"""Closed-form entanglement spectra for structured hypercube bipartitions.

Three equal bipartitions of H(d,2) admit exact mode spectra:

* identity_cut: the cut between two opposite facets (a coordinate cut).
  Whitening is diagonal in the sub-cube eigenbasis, so each sub-cube
  adjacency eigenvalue lambda gives one ratio gamma = 2g/(1+2g(d-lambda)).

* parity_cut: even versus odd Hamming weight.  Every edge of H(d,2) joins
  adjacent strata, so it crosses the cut: V_AA = V_BB = (1 + 2gd) I and
  V_AB = -2g A_eo, and the ratios are 2g/(1+2gd) times the singular values
  of A_eo.  The adjacency [[0, A_eo], [A_eo^T, 0]] has eigenvalues +-s for
  each singular value s, so these are the positive hypercube eigenvalues
  d - 2i (i < d/2) with multiplicity binomial(d, i); even d adds
  binomial(d, d/2)/2 zero modes.

* half_strata (odd d only): lower half of the distance shells versus the
  upper half.  Eliminating the strata away from the cut telescopes into a
  three-term recursion Q_k(x) = x Q_{k-1}(x) - omega_{k-1} Q_{k-2}(x) with
  omega_i = i (d_J - i + 1) inside each ladder block of dimension d_J + 1,
  evaluated at x = d + 1/(2g); the block's single surviving ratio is
  gamma = ((d_J + 1)/2) Q_{n-1}(x) / Q_n(x) with n = (d_J + 1)/2, taken
  from a recursion for the ratio itself, which stays finite where Q_n
  overflows.

The identity and parity forms also know 1 - gamma as a ratio,
(1 + 4gi)/(1 + 2g + 4gi) and (1 + 4gi)/(1 + 2gd), and take
nu = 1/sqrt((1 - gamma)(1 + gamma)) from it for every gamma above 1/2: at
strong coupling the float difference 1.0 - gamma would keep only a few of
its digits.

Each builder returns a ModeSpectrum, which sorts its modes by descending
gamma and carries no log base; analytic_entropy, like
ModeSpectrum.total_entropy, takes the base of the entropy it returns.

All three agree with the numerical engines to near machine precision; the
tests enforce 1e-9.
"""

from __future__ import annotations

import math

from .errors import DomainError, SchemeError
from .gaussian import ModeSpectrum, _mode
from .graph import _integer, cut_name
from .stratify import MAX_DIMENSION, block_table, hypercube_spectrum


def _q_ratio(n: int, x: float, d_block: int) -> float:
    """Q_{n-1}(x) / Q_n(x), n >= 1, without forming either polynomial.

    The ratios r_j = Q_{j-1}/Q_j obey 1/r_j = x - omega_{j-1} r_{j-1} from
    r_1 = 1/x, and stay of order 1/x where Q_n itself overflows a float.
    At the half-strata point x = d + 1/(2g) > d_block every Q_j(x) is
    positive (its zeros are eigenvalues of a leading block of the ladder's
    tridiagonal, within [-d_block, d_block] by interlacing), so no
    denominator vanishes.
    """
    r = 1.0 / x
    for j in range(2, n + 1):
        r = 1.0 / (x - (j - 1) * (d_block - j + 2) * r)
    return r


def _check_dg(d: int, g: float):
    if (d := _integer(d)) is None or d < 1:
        raise DomainError("dimension must be a positive integer")
    if d > MAX_DIMENSION:
        raise DomainError(
            "analytic spectra require d <= %d, whose mode degeneracies fit a "
            "float, got d = %d" % (MAX_DIMENSION, d)
        )
    g = float(g)
    if g < 0.0:
        raise DomainError("analytic spectra require g >= 0")
    if not math.isfinite(g):
        raise DomainError("analytic spectra require a finite g")
    if not math.isfinite(1.0 + 2.0 * g * d):
        raise DomainError(
            "analytic spectra require 1 + 2g*d to be finite, got g = %r, d = %d"
            % (g, d)
        )
    # Adding 0.0 turns -0.0 into 0.0, so no mode reports a gamma of -0.
    return d, g + 0.0


def gamma_identity_cut(d: int, g: float) -> ModeSpectrum:
    """Exact spectrum of the coordinate (facet-to-facet) cut of H(d,2).

    One mode per sub-cube adjacency eigenvalue lambda_i = (d-1) - 2i with
    degeneracy binomial(d-1, i): gamma_i = 2g / (1 + 2g(d - lambda_i)).
    Mode count is 2^(d-1); none are zero for g > 0.
    """
    d, g = _check_dg(d, g)
    modes = []
    for i in range(d):
        # d - lambda_i = 1 + 2i, so 1 - gamma_i = (1 + 4gi) / (1 + 2g + 4gi).
        den = 1.0 + 2.0 * g * (1 + 2 * i)
        gap = (1.0 + 4.0 * g * i) / den
        modes.append(_mode(2.0 * g / den, math.comb(d - 1, i), gap))
    return ModeSpectrum(modes)


def gamma_parity_cut(d: int, g: float) -> ModeSpectrum:
    """Exact spectrum of the even/odd Hamming-weight cut of H(d,2).

    One mode per positive adjacency eigenvalue lambda_i = d - 2i with
    degeneracy binomial(d, i): gamma_i = 2g lambda_i / (1 + 2gd).  Even d
    adds binomial(d, d/2)/2 zero modes, so the count is 2^(d-1).
    """
    d, g = _check_dg(d, g)
    den = 1.0 + 2.0 * g * d
    pref = 2.0 * g / den
    # Each eigenvalue pair +-lambda is one singular value lambda of A_eo; the
    # kernel of the adjacency (lambda = 0, even d) splits evenly between the
    # two sides.  With lambda = d - 2i, 1 - gamma = (1 + 4gi) / (1 + 2gd).
    modes = [
        _mode(
            pref * lam,
            mult if lam else mult // 2,
            (1.0 + 2.0 * g * (d - lam)) / den,
        )
        for lam, mult in hypercube_spectrum(d)
        if lam >= 0
    ]
    return ModeSpectrum(modes)


def gamma_half_strata(d: int, g: float) -> ModeSpectrum:
    """Exact spectrum of the half-strata cut of H(d,2), odd d only.

    Each ladder block of dimension d_J + 1 straddles the cut symmetrically
    and leaves exactly one coupled mode:
    gamma = ((d_J + 1)/2) Q_{n-1}(x) / Q_n(x), n = (d_J + 1)/2, evaluated
    at x = d + 1/(2g).  Decoupled zero modes are not listed, so the count
    equals binomial(d, (d-1)/2).
    """
    d, g = _check_dg(d, g)
    if d % 2 == 0:
        raise SchemeError("half_strata spectrum is defined only for odd d")
    modes = []
    for dim, deg in block_table(d):
        if g == 0.0:
            modes.append(_mode(0.0, deg))
            continue
        gamma = (dim / 2.0) * _q_ratio(dim // 2, d + 1.0 / (2.0 * g), dim - 1)
        modes.append(_mode(gamma, deg))
    return ModeSpectrum(modes)


# Closed-form spectrum of each named cut, keyed by graph.cut_name.
CLOSED_FORMS = {
    "identity_cut": gamma_identity_cut,
    "parity_cut": gamma_parity_cut,
    "half_strata": gamma_half_strata,
}


def analytic_entropy(scheme: str, d: int, g: float, log_base=2) -> float:
    """Total closed-form entropy of a named cut, in any spelling cut_name
    accepts."""
    return CLOSED_FORMS[cut_name(scheme)](d, g).total_entropy(log_base)

"""Closed-form entanglement spectra for structured hypercube bipartitions.

One family of equal bipartitions of H(d,2), and the half-strata cut, admit
exact mode spectra:

* hyperplane cuts: side A = {x : c.x = 0 mod 2}, the normal c of weight
  1 <= w <= d.  w = 1 is the coordinate cut between two opposite facets
  (identity_cut), w = d the even/odd Hamming-weight cut (parity_cut).
  The Walsh characters chi_s are eigenvectors of V = I + 2gL, with
  eigenvalues 1 + 4g|s|.  chi_s and chi_{s xor c} agree on A and are
  opposite on B, so each pair spans one sector [[a, b], [b, a]] of the
  cut, whose ratio is |b|/a.  With p bits of s off c and q on it,

      gamma     = 2g(w - 2q) / (1 + 2g(w + 2p)),
      1 - gamma = (1 + 4g(p + q)) / (1 + 2g(w + 2p)),

  for p = 0..d-w and q = 0..w/2.  s xor c has w - q bits on c, so the
  binomial(d-w, p) binomial(w, q) characters of (p, q) pair off with those
  of (p, w - q), one sector each; at 2q = w, the zero modes of even w,
  they pair among themselves, half as many.

* half_strata (odd d only): lower half of the distance shells versus the
  upper half.  Eliminating the strata away from the cut telescopes into a
  three-term recursion Q_k(x) = x Q_{k-1}(x) - omega_{k-1} Q_{k-2}(x) with
  omega_i = i (d_J - i + 1) inside each ladder block of dimension d_J + 1,
  evaluated at x = d + 1/(2g); the block's single surviving ratio is
  gamma = ((d_J + 1)/2) Q_{n-1}(x) / Q_n(x) with n = (d_J + 1)/2, taken
  from a recursion for the ratio itself, which stays finite where Q_n
  overflows.

The hyperplane form knows 1 - gamma as the ratio above and takes
nu = 1/sqrt((1 - gamma)(1 + gamma)) from it for every gamma above 1/2: at
strong coupling the float difference 1.0 - gamma would keep only a few of
its digits.

Each builder returns a ModeSpectrum, which sorts its modes by descending
gamma and carries no log base; analytic_entropy, like
ModeSpectrum.total_entropy, takes the base of the entropy it returns.

All of them agree with the numerical engines to near machine precision;
the tests enforce 1e-9.
"""

from __future__ import annotations

import math

from .errors import DomainError, SchemeError
from .gaussian import ModeSpectrum, _mode
from .graph import _integer, cut_name
from .stratify import MAX_DIMENSION, block_table


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


def gamma_hyperplane_cut(d: int, w: int, g: float) -> ModeSpectrum:
    """Exact spectrum of a hyperplane cut {x : c.x = 0} of H(d,2) whose
    normal c has weight w in 1..d, derived in the module docstring: one
    mode per p = 0..d-w and q = 0..w/2, 2^(d-1) with degeneracies.
    """
    d, g = _check_dg(d, g)
    if (w := _integer(w)) is None or not 1 <= w <= d:
        raise DomainError("hyperplane weight must be an integer in 1..%d" % d)
    modes = []
    for p in range(d - w + 1):
        den = 1.0 + 2.0 * g * (w + 2 * p)
        pref = 2.0 * g / den
        for q in range(w // 2 + 1):
            # At 2q = w the characters pair among themselves.
            degeneracy = math.comb(d - w, p) * math.comb(w, q) // (1 + (2 * q == w))
            gap = (1.0 + 4.0 * g * (p + q)) / den
            modes.append(_mode(pref * (w - 2 * q), degeneracy, gap))
    return ModeSpectrum(modes)


def gamma_identity_cut(d: int, g: float) -> ModeSpectrum:
    """Exact spectrum of the coordinate (facet-to-facet) cut of H(d,2), the
    hyperplane cut of weight 1."""
    return gamma_hyperplane_cut(d, 1, g)


def gamma_parity_cut(d: int, g: float) -> ModeSpectrum:
    """Exact spectrum of the even/odd Hamming-weight cut of H(d,2), the
    hyperplane cut of weight d."""
    return gamma_hyperplane_cut(d, d, g)


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

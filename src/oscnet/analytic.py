"""Closed-form entanglement spectra for structured hypercube bipartitions.

Three equal bipartitions of H(d,2) admit exact mode spectra:

* identity_cut: the cut between two opposite facets (a coordinate cut).
  Whitening is diagonal in the sub-cube eigenbasis, so each sub-cube
  adjacency eigenvalue lambda gives one ratio gamma = 2g/(1+2g(d-lambda)).

* parity_cut: even versus odd Hamming weight.  Both whitened blocks are
  multiples of the identity, so the ratios are 2g/(1+2gd) times the
  singular values of the even-to-odd coupling inside each ladder block.

* half_strata (odd d only): lower half of the distance shells versus the
  upper half.  Eliminating the strata away from the cut telescopes into a
  three-term recursion Q_k(x) = x Q_{k-1}(x) - omega_{k-1} Q_{k-2}(x) with
  omega_i = i (d_J - i + 1) inside each ladder block of dimension d_J + 1,
  evaluated at x = d + 1/(2g); the block's single surviving ratio is
  gamma = ((d_J + 1)/2) Q_{n-1}(x) / Q_n(x) with n = (d_J + 1)/2.

All three agree with the numerical engines to near machine precision; the
tests enforce 1e-9.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, SchemeError, SingularityError
from .gaussian import ModeSpectrum, _mode, _norm_log_base
from .graph import cut_name
from .stratify import block_table, spin_x_block


def q_polynomial(n: int, x: float, d_block: int) -> float:
    """Evaluate Q_n(x) for the block of dimension d_block + 1 by recursion."""
    if not isinstance(d_block, int) or d_block < 1:
        raise ValueError("d_block must be a positive integer")
    if not isinstance(n, int) or n < 0:
        raise ValueError("polynomial index must be a non-negative integer")
    x = float(x)
    prev, cur = 1.0, x
    if n == 0:
        return prev
    for j in range(2, n + 1):
        omega = (j - 1) * (d_block - (j - 1) + 1)
        prev, cur = cur, x * cur - omega * prev
    return cur


def _check_dg(d: int, g: float):
    if not isinstance(d, int) or d < 1:
        raise DomainError("dimension must be a positive integer")
    g = float(g)
    if g < 0.0:
        raise DomainError("analytic spectra require g >= 0")
    if not math.isfinite(g):
        raise DomainError("analytic spectra require a finite g")
    # Adding 0.0 turns -0.0 into 0.0, so no mode reports a gamma of -0.
    return g + 0.0


def _finish(modes, log_base) -> ModeSpectrum:
    modes = sorted(modes, key=lambda m: -m.gamma)
    return ModeSpectrum(tuple(modes), log_base=_norm_log_base(log_base))


def gamma_identity_cut(d: int, g: float, log_base=2) -> ModeSpectrum:
    """Exact spectrum of the coordinate (facet-to-facet) cut of H(d,2).

    One mode per sub-cube adjacency eigenvalue lambda_i = (d-1) - 2i with
    degeneracy binomial(d-1, i): gamma_i = 2g / (1 + 2g(d - lambda_i)).
    Mode count is 2^(d-1); none are zero for g > 0.
    """
    g = _check_dg(d, g)
    modes = []
    for i in range(d):
        lam = (d - 1) - 2 * i
        gamma = 2.0 * g / (1.0 + 2.0 * g * (d - lam))
        modes.append(_mode(gamma, math.comb(d - 1, i)))
    return _finish(modes, log_base)


def gamma_parity_cut(d: int, g: float, log_base=2) -> ModeSpectrum:
    """Exact spectrum of the even/odd Hamming-weight cut of H(d,2).

    Every ratio is (2g/(1+2gd)) times a singular value of the even-to-odd
    stratum coupling of one ladder block; blocks contribute with their
    degeneracies, and even strata left unpaired inside a block contribute
    zero modes, so the count including zeros is 2^(d-1).
    """
    g = _check_dg(d, g)
    pref = 2.0 * g / (1.0 + 2.0 * g * d)
    modes = []
    zero_modes = 0
    for dim, deg in block_table(d):
        k = (d + 1 - dim) // 2
        even = [j for j in range(dim) if (k + j) % 2 == 0]
        odd = [j for j in range(dim) if (k + j) % 2 == 1]
        paired = min(len(even), len(odd))
        zero_modes += (len(even) - paired) * deg
        if paired == 0:
            continue
        block = spin_x_block(dim)
        coupling = block[np.ix_(even, odd)]
        for s in np.linalg.svd(coupling, compute_uv=False):
            modes.append(_mode(pref * float(s), deg))
    if zero_modes:
        modes.append(_mode(0.0, zero_modes))
    return _finish(modes, log_base)


def gamma_half_strata(d: int, g: float, log_base=2) -> ModeSpectrum:
    """Exact spectrum of the half-strata cut of H(d,2), odd d only.

    Each ladder block of dimension d_J + 1 straddles the cut symmetrically
    and leaves exactly one coupled mode:
    gamma = ((d_J + 1)/2) Q_{n-1}(x) / Q_n(x), n = (d_J + 1)/2, evaluated
    at x = d + 1/(2g).  Decoupled zero modes are not listed, so the count
    equals binomial(d, (d-1)/2).
    """
    g = _check_dg(d, g)
    if d % 2 == 0:
        raise SchemeError("half_strata spectrum is defined only for odd d")
    modes = []
    for dim, deg in block_table(d):
        if g == 0.0:
            modes.append(_mode(0.0, deg))
            continue
        d_j = dim - 1
        n_j = dim // 2
        x = d + 1.0 / (2.0 * g)
        q_n = q_polynomial(n_j, x, d_j)
        if abs(q_n) <= 1e-300:
            raise SingularityError(
                "elimination denominator Q_%d vanished at x=%.17g" % (n_j, x)
            )
        gamma = (dim / 2.0) * q_polynomial(n_j - 1, x, d_j) / q_n
        modes.append(_mode(gamma, deg))
    return _finish(modes, log_base)


# Closed-form spectrum of each named cut, keyed by graph.cut_name.
CLOSED_FORMS = {
    "identity_cut": gamma_identity_cut,
    "parity_cut": gamma_parity_cut,
    "half_strata": gamma_half_strata,
}


def analytic_entropy(scheme: str, d: int, g: float, log_base=2) -> float:
    """Total closed-form entropy of a named cut, in any spelling cut_name
    accepts."""
    return CLOSED_FORMS[cut_name(scheme)](d, g, log_base).total_entropy()

"""Entanglement entropy engines for Gaussian ground states.

The ground state of H = (1/2)(p^T p + x^T V x) with V positive definite is
the Gaussian psi(x) ~ exp(-x^T V x / 2).  Tracing out one side of a
bipartition leaves a mixed Gaussian state whose entropy this module computes
two independent ways:

* gamma_spectrum / entropy_of_bipartition: whiten the two diagonal blocks of
  V with their Cholesky factors and take singular values gamma_i of the
  rescaled cross-coupling; each gamma maps to a thermal mode parameter
  nu = 1/sqrt(1 - gamma^2).

* entropy_oracle_symplectic: reduce the ground-state covariance matrices
  (positions V^{-1}/2, momenta V/2) to one side and read off the symplectic
  eigenvalues of the reduced state.

Both must agree to near machine precision on any positive definite V; the
oracle is the slower, assumption-free reference path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyError,
    DefinitenessError,
    DomainError,
    SingularityError,
)
from .graph import EIG_FLOOR, Bipartition, PotentialMatrix

# Coupling ratios below this are exact zero modes (nu = 1, no entropy).
GAMMA_ZERO = 1e-12
# Coupling ratios within this of 1 describe a non-normalizable mode.
GAMMA_CEILING = 1.0 - 1e-12
# Symplectic eigenvalues may dip below 1 by at most this before we call the
# computation inconsistent; smaller dips are clamped to exactly 1.
NU_SLACK = 1e-10


def _norm_log_base(log_base) -> str:
    """Normalize a log-base argument to "2" or "e"."""
    if log_base in (2, 2.0, "2"):
        return "2"
    if log_base == "e" or (isinstance(log_base, float) and log_base == math.e):
        return "e"
    raise ValueError("log base must be 2 or 'e', got %r" % (log_base,))


def _as_matrix(v) -> np.ndarray:
    """The matrix of a PotentialMatrix, or a raw array put through the same
    certification gate."""
    if isinstance(v, PotentialMatrix):
        return v.matrix
    return PotentialMatrix.certify(v)


def _eigh_pd(m: np.ndarray, what: str):
    """Eigendecomposition of a matrix that must be positive definite."""
    w, u = np.linalg.eigh(m)
    if w.min() <= EIG_FLOOR:
        raise DefinitenessError(
            "%s has eigenvalue %.3e at or below the %g floor"
            % (what, w.min(), EIG_FLOOR)
        )
    return w, u


def nu_from_gamma(gamma: float) -> float:
    """Thermal mode parameter nu = 1/sqrt(1 - gamma^2).

    gamma enters squared, so its sign is irrelevant.  |gamma| within 1e-12
    of 1 (or beyond) is rejected: the corresponding mode has divergent
    entropy and no normalizable reduced state.
    """
    g = abs(float(gamma))
    if g >= GAMMA_CEILING:
        raise SingularityError(
            "coupling ratio %.17g is at or beyond the normalizable range" % g
        )
    return 1.0 / math.sqrt((1.0 - g) * (1.0 + g))


def entropy_from_nu(nu: float, log_base=2) -> float:
    """Entropy of one thermal mode with symplectic eigenvalue nu.

    S(nu) = ((nu+1)/2) log((nu+1)/2) - ((nu-1)/2) log((nu-1)/2), which is 0
    at nu = 1.  Values of nu below 1 by more than 1e-10 are rejected;
    smaller dips are treated as exactly 1.
    """
    log = math.log2 if _norm_log_base(log_base) == "2" else math.log
    nu = float(nu)
    if nu < 1.0 - NU_SLACK:
        raise DomainError("symplectic eigenvalue %.17g is below 1" % nu)
    if nu <= 1.0:
        return 0.0
    up = (nu + 1.0) / 2.0
    dn = (nu - 1.0) / 2.0
    return up * log(up) - dn * log(dn)


@dataclass(frozen=True)
class Mode:
    """One entanglement mode: coupling ratio, thermal parameter, degeneracy."""

    gamma: float
    nu: float
    degeneracy: int = 1

    def __post_init__(self):
        if not isinstance(self.degeneracy, int) or self.degeneracy < 1:
            raise ValueError("degeneracy must be a positive integer")
        if self.gamma < 0.0:
            raise ValueError("gamma is reported as a non-negative ratio")
        if self.nu < 1.0:
            raise ValueError("nu must be at least 1")


def _mode(gamma: float, degeneracy: int = 1) -> Mode:
    """The mode of one coupling ratio; ratios below GAMMA_ZERO are exact zero
    modes with nu = 1."""
    gamma = float(gamma)
    nu = 1.0 if gamma < GAMMA_ZERO else nu_from_gamma(gamma)
    return Mode(gamma=gamma, nu=nu, degeneracy=degeneracy)


@dataclass(frozen=True)
class ModeSpectrum:
    """A multiset of entanglement modes with a fixed entropy log base."""

    modes: tuple
    log_base: str = "2"

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "log_base", _norm_log_base(self.log_base))

    def mode_count(self) -> int:
        """Total number of modes, degeneracies included."""
        return sum(m.degeneracy for m in self.modes)

    def expanded_gammas(self) -> np.ndarray:
        """All gamma values repeated by degeneracy, sorted descending."""
        out = []
        for m in self.modes:
            out.extend([m.gamma] * m.degeneracy)
        return np.sort(np.array(out))[::-1]

    def total_entropy(self) -> float:
        """Sum of degeneracy * S(nu) over all modes."""
        return float(
            sum(
                m.degeneracy * entropy_from_nu(m.nu, self.log_base)
                for m in self.modes
            )
        )


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Truncated Schmidt decomposition of one thermal mode.

    probabilities[n] = (2/(nu+1)) ((nu-1)/(nu+1))^n for n = 0..n_max and
    lambdas are their square roots.  tail_mass is the probability weight
    beyond n_max, computed in closed form.
    """

    nu: float
    n_max: int
    lambdas: np.ndarray
    probabilities: np.ndarray
    tail_mass: float

    def mean_occupation(self) -> float:
        """Sum of n * p_n over the stored distribution.

        Converges to (nu - 1)/2 as n_max grows.
        """
        n = np.arange(self.n_max + 1)
        return float(np.sum(n * self.probabilities))


def schmidt_spectrum(nu: float, n_max: int) -> SchmidtSpectrum:
    """Schmidt coefficients of one mode up to occupation number n_max."""
    if not isinstance(n_max, int) or n_max < 1:
        raise ValueError("n_max must be a positive integer")
    nu = float(nu)
    if nu < 1.0 - NU_SLACK:
        raise DomainError("symplectic eigenvalue %.17g is below 1" % nu)
    nu = max(nu, 1.0)
    t = (nu - 1.0) / (nu + 1.0)
    n = np.arange(n_max + 1)
    probabilities = (2.0 / (nu + 1.0)) * t ** n
    lambdas = np.sqrt(probabilities)
    tail = t ** (n_max + 1)
    lambdas.setflags(write=False)
    probabilities.setflags(write=False)
    return SchmidtSpectrum(nu, n_max, lambdas, probabilities, float(tail))


def gamma_spectrum(v, cut: Bipartition, log_base=2) -> ModeSpectrum:
    """Coupling-ratio spectrum of a bipartition of the ground state.

    Whitens both diagonal blocks of V by their Cholesky factors
    V_AA = L_A L_A^T, V_BB = L_B L_B^T and takes the singular values of
    L_A^{-1} V_AB L_B^{-T}, which are those of V_AA^{-1/2} V_AB V_BB^{-1/2};
    each singular value gamma < 1 is one entanglement mode.  min(|A|, |B|)
    modes are returned, sorted by descending gamma; ratios below 1e-12 count
    as exact zero modes.
    """
    base = _norm_log_base(log_base)
    m = _as_matrix(v)
    if cut.n != m.shape[0]:
        raise ValueError("bipartition size does not match matrix")
    a = list(cut.side_a)
    b = list(cut.side_b)
    # V is certified above EIG_FLOOR, so by interlacing both blocks are too.
    la = np.linalg.cholesky(m[np.ix_(a, a)])
    lb = np.linalg.cholesky(m[np.ix_(b, b)])
    coupling = np.linalg.solve(lb, np.linalg.solve(la, m[np.ix_(a, b)]).T).T
    sigma = np.linalg.svd(coupling, compute_uv=False)
    if sigma.size and sigma[0] >= 1.0:
        raise DefinitenessError(
            "whitened coupling has singular value %.17g >= 1; "
            "the matrix is not positive definite" % sigma[0]
        )
    return ModeSpectrum(tuple(_mode(s) for s in sigma), log_base=base)


def entropy_of_bipartition(v, cut: Bipartition, log_base=2) -> float:
    """Entanglement entropy across a cut via the whitened-coupling engine."""
    return gamma_spectrum(v, cut, log_base=log_base).total_entropy()


def _position_covariance(m: np.ndarray) -> np.ndarray:
    """Ground-state position covariance V^{-1}/2 of psi ~ exp(-x^T V x / 2).

    m must be certified positive definite (PotentialMatrix.certify); the
    inverse is by LU factorization.  The census reads all of it; the
    single-cut oracle solves only for its side's columns instead.
    """
    return np.linalg.inv(m) / 2.0


def _symplectic_nus(x_cov: np.ndarray, p_cov: np.ndarray, subset) -> np.ndarray:
    """Symplectic eigenvalues of the state restricted to subset.

    Computes sqrt(eig(4 X_A P_A)) through the symmetrized product
    sqrt(X_A) (4 P_A) sqrt(X_A), which is similar to 4 X_A P_A but
    manifestly symmetric.  Values below 1 by more than NU_SLACK raise;
    smaller dips clamp to 1.
    """
    rows = np.asarray(subset)
    xa = x_cov[rows[:, None], rows]
    pa = p_cov[rows[:, None], rows]
    w, u = _eigh_pd(xa, "reduced position covariance")
    root = (u * np.sqrt(w)) @ u.T
    nus_sq = np.linalg.eigvalsh(root @ (4.0 * pa) @ root)
    nus = np.sqrt(np.maximum(nus_sq, 0.0))
    if nus.min() < 1.0 - NU_SLACK:
        raise ConsistencyError(
            "symplectic eigenvalue %.17g fell below 1 by more than %g"
            % (nus.min(), NU_SLACK)
        )
    return np.maximum(nus, 1.0)


def _entropy_from_cov(
    x_cov: np.ndarray, p_cov: np.ndarray, subset, base: str
) -> float:
    nus = _symplectic_nus(x_cov, p_cov, subset)
    return float(sum(entropy_from_nu(nu, base) for nu in nus.tolist()))


def entropy_oracle_symplectic(v, subset, log_base=2) -> float:
    """Reference entropy of the ground state reduced to an index subset.

    Takes the subset's block of the position covariance V^{-1}/2 from an LU
    solve of V against the subset's unit columns, and its block of the
    momentum covariance V/2, then sums S(nu) over the symplectic eigenvalues
    nu = sqrt(eig(4 X_A P_A)).  Slower than the whitened engine but
    assumption-free: it never touches the complement's block structure,
    which makes it the independent check.
    """
    base = _norm_log_base(log_base)
    m = _as_matrix(v)
    n = m.shape[0]
    rows = np.asarray(Bipartition.from_side_a(n, subset).side_a)
    cols = np.arange(rows.size)
    unit = np.zeros((n, rows.size))
    unit[rows, cols] = 1.0
    x_aa = np.linalg.solve(m, unit)[rows] / 2.0
    p_aa = m[rows[:, None], rows] / 2.0
    return _entropy_from_cov(x_aa, p_aa, cols, base)

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
  eigenvalues of the reduced state.  The position covariance enters through
  a factor: gathered from the exact table that potential_matrix attaches on
  H(d,2), or, for any V without one, solved from the Cholesky factor of all
  of V, never from the cut's blocks.  The oracle's kernel is stacked, in
  two steps: _stacked_triangles reduces k cuts' factor columns F[:, A] to
  triangles R by one stacked QR, and _stacked_forms takes those and the
  4P blocks to the forms R 4P_A R^T by one stacked matmul; the census
  feeds it chunks of partitions, the single cut k = 1.  Each form then
  takes exactly one eigvalsh (_symplectic_nus) and one entropy_from_nu
  per nu, summed as a list (_entropy_from_cov): the per-cut path holds
  those calls and nothing more.

Both must agree to near machine precision on any positive definite V; the
oracle is the assumption-free reference path.  The engine and the oracle's
Cholesky route share one primitive, the triangular solve _solve_lower, and
nothing else.  Certification (graph._lower_factor) also calls it, to halve
V by Schur complements, but certification is the gate before both routes and neither
reads its result, so they stay independent.  _solve_lower halves a
triangle down to leaves of at most SOLVE_LEAF rows, applies each leaf's
inverse by matmul and refines the result once in working precision, so
nearly all of its flops are matmul flops.

A spectrum carries no log base: bits or nats change the unit of an
entropy, not the gammas and nus it is summed from.  So gamma_spectrum, like
the gamma_* closed forms in analytic, takes none, and
ModeSpectrum.entropies alone turns modes into entropies; total_entropy sums
its values.  Those two methods and every function that returns an entropy
(entropy_from_nu, entropy_of_bipartition, entropy_oracle_symplectic) take
log_base, 2 or "e".

Every dense factorization gets a column-major operand.  numpy's linalg
copies each operand into a Fortran-order buffer for LAPACK, and from a
row-major array that copy is a strided transpose.  So the Cholesky calls
factor transposed views (V^T, V_AA^T, V_BB^T), and the QR gets F[:, A]
column-major from either route.  np.linalg.cholesky reads the lower
triangle of its operand, which for a transposed view is the upper triangle
of V or of the block.  Every block that potential_matrix's V writes is
exactly that of a symmetric V, signed zeros included, so LAPACK sees the
same buffer and returns the same bits as from the row-major array; a raw
array that is only symmetric within SYMMETRY_TOL has its upper triangle
factored.  The engine and the oracle read V through PotentialMatrix.block;
only the oracle's Cholesky route reads all of V.

On a single cut each (n/2) x (n/2) block lives only from its write to its
last read.  _solve_lower overwrites its right-hand side, so the fresh V_AB
is solved where it was gathered.  The engine drops L_A before it factors
V_BB, keeps one transposed copy of L_A^{-1} V_AB for the second solve,
and drops L_B before the SVD: at most three blocks are alive at once.  The
oracle drops F[:, A] after its QR and only then gathers 4P_A.  What is
left of the single cut's peak is that QR: numpy holds F[:, A], its own
copy of it and LAPACK's buffer at once, two blocks each.
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
from .graph import Bipartition, PotentialMatrix, _integer, hamming_weights

# Coupling ratios below this are exact zero modes (nu = 1, no entropy).
GAMMA_ZERO = 1e-12
# Coupling ratios within this of 1 describe a non-normalizable mode.
GAMMA_CEILING = 1.0 - 1e-12
# Symplectic eigenvalues may dip below 1 by at most this before we call the
# computation inconsistent; smaller dips are clamped to exactly 1.
NU_SLACK = 1e-10
# Triangles of at most this order are leaves of _solve_lower, applied by
# their inverse; larger ones are halved.  16 beat 32 and 64 on the whitening
# solves of the H(10,2) parity cut.
SOLVE_LEAF = 16
# Rows of the covariance root table gathered per pass.  On the H(10,2)
# parity cut, passes of 32 rows peak at 4.5 MB of numpy buffers, where one
# pass over all 512 rows took 8 MB: its int64 labels and weights were each
# as large as the gathered block.
_TABLE_ROWS = 32


# The log of every accepted log-base spelling.  A lookup goes by hash and
# equality, so 2.0, np.int64(2) and np.float64(math.e) find their key, while
# True (== 1), np.float32(math.e) (!= math.e), NaN and unhashable values
# do not.
_LOGS = {2: math.log2, "2": math.log2, math.e: math.log, "e": math.log}


def _norm_log_base(log_base) -> str:
    """Normalize a log-base argument to "2" or "e"; a spelling _LOGS does
    not hold is refused."""
    try:
        log = _LOGS[log_base]
    except (KeyError, TypeError):
        raise ValueError("log base must be 2 or 'e', got %r" % (log_base,)) from None
    return "2" if log is math.log2 else "e"


def _as_potential(v) -> PotentialMatrix:
    """v itself, or a copy of a raw array put through the same certification
    gate."""
    if isinstance(v, PotentialMatrix):
        return v
    return PotentialMatrix(np.array(v, dtype=float))


def nu_from_gamma(gamma: float) -> float:
    """Thermal mode parameter nu = 1/sqrt(1 - gamma^2).

    gamma enters squared, so its sign is irrelevant.  |gamma| within 1e-12
    of 1 (or beyond) is rejected: the corresponding mode has divergent
    entropy and no normalizable reduced state.  A NaN or infinite gamma is a
    DomainError.
    """
    g = abs(float(gamma))
    if not math.isfinite(g):
        raise DomainError("coupling ratio %r is not finite" % g)
    if g >= GAMMA_CEILING:
        raise SingularityError(
            "coupling ratio %.17g is at or beyond the normalizable range" % g
        )
    return 1.0 / math.sqrt((1.0 - g) * (1.0 + g))


def entropy_from_nu(nu: float, log_base=2) -> float:
    """Entropy of one thermal mode with symplectic eigenvalue nu.

    S(nu) = ((nu+1)/2) log((nu+1)/2) - ((nu-1)/2) log((nu-1)/2), which is 0
    at nu = 1.  Values of nu below 1 by more than 1e-10, NaN and infinity
    are rejected; smaller dips are treated as exactly 1.
    """
    try:
        log = _LOGS[log_base]
    except (KeyError, TypeError):
        # Every accepted spelling is a key, so this raises the refusal.
        log = _LOGS[_norm_log_base(log_base)]
    nu = float(nu)
    # Written so that NaN, which fails every comparison, is refused too.
    if not 1.0 - NU_SLACK <= nu < math.inf:
        raise DomainError(
            "symplectic eigenvalue %.17g is below 1 or not finite" % nu
        )
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
        # Every comparison with NaN is false, so the checks below cannot
        # refuse it.
        if not (math.isfinite(self.gamma) and math.isfinite(self.nu)):
            raise DomainError(
                "mode parameters must be finite, got gamma = %r, nu = %r"
                % (self.gamma, self.nu)
            )
        if (degeneracy := _integer(self.degeneracy)) is None or degeneracy < 1:
            raise ValueError("degeneracy must be a positive integer")
        object.__setattr__(self, "degeneracy", degeneracy)
        if self.gamma < 0.0:
            raise ValueError("gamma is reported as a non-negative ratio")
        if self.nu < 1.0:
            raise ValueError("nu must be at least 1")


def _mode(gamma: float, degeneracy: int = 1, gap: float | None = None) -> Mode:
    """The mode of one coupling ratio; ratios in [0, GAMMA_ZERO) are exact
    zero modes, gamma = 0 and nu = 1, so rounding noise of the SVD never
    reaches a printed gamma.

    gap is 1 - gamma when the caller knows it to a few ulps.  Above
    gamma = 1/2 the float difference 1.0 - gamma is exact (Sterbenz), so it
    carries all of gamma's rounding error, magnified by 1/(1 - gamma): there
    nu = 1/sqrt(gap (1 + gamma)) is taken from gap.  Below, both are within
    an ulp or two of 1 - gamma and 1.0 - gamma is kept.  nu_from_gamma's
    refusals apply either way.
    """
    gamma = float(gamma)
    if 0.0 <= gamma < GAMMA_ZERO:
        return Mode(gamma=0.0, nu=1.0, degeneracy=degeneracy)
    nu = nu_from_gamma(gamma)
    if gap is not None and gamma > 0.5:
        nu = 1.0 / math.sqrt(gap * (1.0 + gamma))
    return Mode(gamma=gamma, nu=nu, degeneracy=degeneracy)


@dataclass(frozen=True)
class ModeSpectrum:
    """A multiset of entanglement modes, sorted by descending gamma.

    The spectrum has no unit: entropies and total_entropy take the log base.
    The sort is stable, so modes of equal gamma keep the order they came in.
    """

    modes: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "modes", tuple(sorted(self.modes, key=lambda m: -m.gamma))
        )

    def mode_count(self) -> int:
        """Total number of modes, degeneracies included."""
        return sum(m.degeneracy for m in self.modes)

    def expanded_gammas(self) -> np.ndarray:
        """All gamma values repeated by degeneracy, sorted descending."""
        out = []
        for m in self.modes:
            out.extend([m.gamma] * m.degeneracy)
        return np.array(out)

    def entropies(self, log_base=2) -> list:
        """S(nu) of one copy of each mode, in mode order."""
        base = _norm_log_base(log_base)
        return [entropy_from_nu(m.nu, base) for m in self.modes]

    def total_entropy(self, log_base=2) -> float:
        """Sum of degeneracy * S(nu) over all modes."""
        return float(
            sum(m.degeneracy * s for m, s in zip(self.modes, self.entropies(log_base)))
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
    if (n_max := _integer(n_max)) is None or n_max < 1:
        raise ValueError("n_max must be a positive integer")
    nu = float(nu)
    if not 1.0 - NU_SLACK <= nu < math.inf:
        raise DomainError(
            "symplectic eigenvalue %.17g is below 1 or not finite" % nu
        )
    nu = max(nu, 1.0)
    t = (nu - 1.0) / (nu + 1.0)
    n = np.arange(n_max + 1)
    probabilities = (2.0 / (nu + 1.0)) * t ** n
    lambdas = np.sqrt(probabilities)
    tail = t ** (n_max + 1)
    lambdas.setflags(write=False)
    probabilities.setflags(write=False)
    return SchmidtSpectrum(nu, n_max, lambdas, probabilities, float(tail))


def _solve_lower(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^{-1} B for a lower-triangular L with a nonzero diagonal.

    numpy has no triangular solve, and np.linalg.solve would LU-factor L as
    if it were full.  Recursive halving costs one matmul per level instead:
    X_1 = L_11^{-1} B_1, then X_2 = L_22^{-1} (B_2 - L_21 X_1), down to
    leaves of order at most SOLVE_LEAF.  A leaf T = L^{-1} is solved once
    against the identity and applied by matmul, Y = T X, then refined once
    on the same rows, Y += T (X - L Y).  The inverse alone is not backward
    stable: where the true solution has zeros it leaves rounding noise.  A
    Cholesky factor of a block of V at g = 1e8, solved against the block's
    own columns, then shows a componentwise backward error near 1.  One step
    of fixed-precision iterative refinement makes the solve componentwise
    backward stable, as substitution is (Skeel, Math. Comp. 35, 817 (1980);
    Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    chs. 8 and 12).

    The solve overwrites b, a float64 array, and returns it; a caller that
    reads B afterwards passes a copy.  The engine and certification hand it
    fresh C-ordered blocks that nothing reads again, so no block is held
    twice.  Any other layout is solved in a C-ordered buffer and written
    back, so its bits are those of a solve of a C-ordered copy.
    """
    x = np.ascontiguousarray(b)
    _substitute(l, x)
    if x is not b:
        b[...] = x
    return b


def _substitute(l: np.ndarray, x: np.ndarray) -> None:
    """Overwrite the rows x with L^{-1} x, the recursion of _solve_lower."""
    n = l.shape[0]
    if n <= SOLVE_LEAF:
        t = np.linalg.solve(l, np.eye(n))
        y = t @ x
        y += t @ (x - l @ y)
        x[...] = y
        return
    h = n // 2
    _substitute(l[:h, :h], x[:h])
    x[h:] -= l[h:, :h] @ x[:h]
    _substitute(l[h:, h:], x[h:])


def gamma_spectrum(v, cut: Bipartition) -> ModeSpectrum:
    """Coupling-ratio spectrum of a bipartition of the ground state.

    Whitens both diagonal blocks of V by their Cholesky factors
    V_AA = L_A L_A^T, V_BB = L_B L_B^T and takes the singular values of
    L_A^{-1} V_AB L_B^{-T}, which are those of V_AA^{-1/2} V_AB V_BB^{-1/2};
    each singular value gamma < 1 is one entanglement mode.  min(|A|, |B|)
    modes are returned, sorted by descending gamma; ratios below 1e-12 are
    exact zero modes, reported as gamma = 0.
    """
    v = _as_potential(v)
    if cut.n != v.n:
        raise ValueError("bipartition size does not match matrix")
    a = np.asarray(cut.side_a, dtype=np.intp)
    b = np.asarray(cut.side_b, dtype=np.intp)
    # V is certified above EIG_FLOOR, so by interlacing both blocks are too.
    # Transposed views are column-major operands (see the module docstring).
    # Each block is dropped after its last read, so at most three are alive
    # at once.
    la = np.linalg.cholesky(v.block(a, a).T)
    w = _solve_lower(la, v.block(a, b))
    del la
    lb = np.linalg.cholesky(v.block(b, b).T)
    w = np.array(w.T, order="C")
    coupling = _solve_lower(lb, w).T
    del lb
    sigma = np.linalg.svd(coupling, compute_uv=False)
    if sigma.size and sigma[0] >= 1.0:
        raise DefinitenessError(
            "whitened coupling has singular value %.17g >= 1; "
            "the matrix is not positive definite" % sigma[0]
        )
    return ModeSpectrum(tuple(_mode(s) for s in sigma))


def entropy_of_bipartition(v, cut: Bipartition, log_base=2) -> float:
    """Entanglement entropy across a cut via the whitened-coupling engine."""
    return gamma_spectrum(v, cut).total_entropy(log_base)


def _position_covariance(v: PotentialMatrix, rows=None) -> np.ndarray:
    """A tall factor F, n x |rows|, with F^T F = X[rows, rows], of the
    ground-state position covariance X = V^{-1}/2 of psi ~ exp(-x^T V x / 2);
    all of X's columns when rows is None.

    The route follows from v alone.  When v carries a profile, the symmetric
    root X^{1/2} as a function of Hamming distance that potential_matrix
    attaches on H(d,2), F is its column block.  Otherwise (a raw array,
    PotentialMatrix(array), any other graph) V = C C^T is factored by
    Cholesky and F = C^{-1} E_rows / sqrt(2), E_rows the unit columns of
    rows.  X itself is never formed: V^{-1} would resolve its small
    eigenvalues only to eps max|X|.
    """
    idx = np.arange(v.n)
    cols = idx if rows is None else np.asarray(rows)
    if v.profile is not None:
        # F is symmetric, so the rows F[rows, :] transposed are F[:, rows],
        # column-major.  They are gathered _TABLE_ROWS at a time, so F's
        # block is the only n x |rows| array.
        weights = hamming_weights(v.profile.size - 1)
        out = np.empty((v.n, cols.size), order="F")
        for i in range(0, cols.size, _TABLE_ROWS):
            part = cols[i : i + _TABLE_ROWS]
            out[:, i : i + part.size] = v.profile[weights[part[:, None] ^ idx]].T
        return out
    # certify has shown V positive definite, so the Cholesky exists.
    unit = np.zeros((v.n, cols.size))
    unit[cols, np.arange(cols.size)] = 1.0
    root = _solve_lower(np.linalg.cholesky(v.matrix.T), unit)
    # The scaling pass writes F column-major, the layout QR copies it into.
    return np.divide(root, math.sqrt(2.0), out=np.empty(root.shape, order="F"))


def _stacked_triangles(cols: np.ndarray) -> np.ndarray:
    """The triangles R of k cuts at once, shape (k, m, m), from one stacked
    QR.

    cols is a (k, n, m) stack of tall blocks F[:, A] of a factor of the
    position covariance, F^T F = X, and each R has R^T R = X_A.  LAPACK
    still sees each cut on its own, so a triangle has the same bits
    whatever else shares its stack.
    """
    return np.linalg.qr(cols, mode="r")


def _stacked_forms(r: np.ndarray, p4: np.ndarray) -> np.ndarray:
    """The symmetric forms R 4P_A R^T of k cuts at once, shape (k, m, m).

    r is a (k, m, m) stack of triangles from _stacked_triangles and p4 the
    stack of the blocks 4 P_A.  Any square R with R^T R = X_A gives
    nu^2 = eig(R 4P_A R^T), which is similar to 4 X_A P_A but manifestly
    symmetric.  One stacked matmul forms every congruence, each cut's on
    its own.  The QR and the congruence are two steps so that a caller can
    drop F[:, A] before it gathers 4 P_A.
    """
    return r @ p4 @ r.swapaxes(-1, -2)


def _symplectic_nus(form: np.ndarray) -> list:
    """Symplectic eigenvalues nu = sqrt(eig(form)) of one cut's form
    R 4P_A R^T, as a list of floats.  Values below 1 by more than NU_SLACK
    raise; smaller dips clamp to 1.

    eigvalsh returns ascending eigenvalues w, so only w[0] is checked.  The
    clamp and the root run on Python floats: math.sqrt, like np.sqrt, is
    correctly rounded, so each nu has the bits of sqrt(max(w, 1)), and a
    NaN stays NaN as it would through np.maximum.
    """
    w = np.linalg.eigvalsh(form).tolist()
    low = math.sqrt(max(w[0], 0.0))
    if low < 1.0 - NU_SLACK:
        raise ConsistencyError(
            "symplectic eigenvalue %.17g fell below 1 by more than %g"
            % (low, NU_SLACK)
        )
    return [1.0 if x <= 1.0 else math.sqrt(x) for x in w]


def _entropy_from_cov(form: np.ndarray, base: str) -> float:
    """Entropy of one cut from its form R 4P_A R^T (see _stacked_forms)."""
    return sum([entropy_from_nu(nu, base) for nu in _symplectic_nus(form)])


def entropy_oracle_symplectic(v, subset, log_base=2) -> float:
    """Reference entropy of the ground state reduced to an index subset.

    Takes the subset's block of the position covariance V^{-1}/2 and of the
    momentum covariance V/2, then sums S(nu) over the symplectic
    eigenvalues nu = sqrt(eig(4 X_A P_A)).  It is assumption-free: it never
    touches the complement's block structure, which makes it the
    independent check.

    On H(d,2) a factor of the covariance block is gathered from the
    distance table of X^{1/2} that potential_matrix attaches; elsewhere it
    is solved from the Cholesky factor of V against the subset's unit
    columns.  A raw array or PotentialMatrix(array) carries no table, so it
    takes the Cholesky route on H(d,2) too, a route that knows nothing of
    hypercube harmonic analysis.
    """
    base = _norm_log_base(log_base)
    v = _as_potential(v)
    rows = np.asarray(Bipartition.from_side_a(v.n, subset).side_a)
    r = _stacked_triangles(_position_covariance(v, rows)[None])
    # 4P_A from V_AA, gathered once F[:, A] is dropped: halved, then
    # quadrupled, in place.
    p4 = v.block(rows, rows)
    p4 /= 2.0
    p4 *= 4.0
    form = _stacked_forms(r, p4[None])[0]
    return _entropy_from_cov(form, base)

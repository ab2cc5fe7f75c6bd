"""Entanglement entropy engines for Gaussian ground states.

The ground state of H = (1/2)(p^T p + x^T V x) with V positive definite is
the Gaussian psi(x) ~ exp(-x^T V x / 2).  Tracing out one side of a
bipartition leaves a mixed Gaussian state whose entropy this module computes
two independent ways:

* gamma_spectrum / entropy_of_bipartition: whiten the two diagonal blocks of
  V with their Cholesky factors and take singular values gamma_i of the
  rescaled cross-coupling; each gamma maps to a thermal mode parameter
  nu = 1/sqrt(1 - gamma^2).  On a V that potential_matrix recognised as
  H(d,2), a cut whose side A is mapped onto itself by k >= 1 translations
  x -> x xor t is a union of cosets and splits into 2^k translation
  sectors of 2^(d-k) cosets each (cosets module; Serre, Linear
  Representations of Finite Groups, sec. 2.6).  The distinct sectors are
  written from V's diagonal and coupling into stacks, each whitened in one
  pass (_sector_couplings); the H(10,2) parity cut is one stack of ten
  2 x 2 blocks.  Every other input is whitened whole
  (_whitened_couplings).  Both give min(|A|, |B|) modes, one Mode object
  per distinct value.

* entropy_oracle_symplectic: reduce the ground-state covariance matrices
  (positions V^{-1}/2, momenta V/2) to one side and read off the symplectic
  eigenvalues of the reduced state.  The position covariance enters through
  a factor: gathered from the exact table that potential_matrix attaches on
  H(d,2), or, for any V without one, solved from the Cholesky factor of all
  of V, never from the cut's blocks.  The kernel is stacked in two steps:
  _stacked_triangles reduces k cuts' factor columns F[:, A] to triangles R
  by one QR, _stacked_forms takes those and the 4P blocks to the forms
  R 4P_A R^T by one matmul; the census feeds it chunks of partitions, the
  single cut k = 1.  Each form then takes one eigvalsh and one
  entropy_from_nu per nu (_entropy_from_cov).  On a table-carrying
  V, a cut that the engine splits into sectors is split by the oracle too
  (_sector_entropy): each distinct sector's F_chi is a Walsh sum of the
  eigenvalues of X^{1/2} and its 4P_chi a sum of V's distance-0 and
  distance-1 entries, run through the same kernel, with one eigvalsh for
  the stack of forms; the H(10,2) parity cut becomes ten 1 x 1 forms.

coset_cut_spectrum and coset_cut_oracle run the two sector routes on a cut
named by its quotient form (d, M, S), A = {x : Mx in S}, with no V, labels
or table, so d runs to 62 (cosets module).

Both must agree to near machine precision on any positive definite V; the
oracle is the assumption-free reference path.  On a coset-union cut they
share only the symmetry's combinatorics, the cut's quotient form with its
distinct sectors and their counts (cosets._Quotient, computed once per cut
and kept on the Bipartition).  Each builds and reduces its own blocks: the
engine whitens V_chi, the oracle takes the QR of F_chi's columns, never
reads V_chi, a whitening or a certificate, and checks on side A's labels
that A is the union of cosets the quotient form names.  The engine and
the oracle's Cholesky route share one primitive, the triangular solve
_solve_lower, and nothing else.  Certification (graph._lower_factor) also
calls it, to halve by Schur complements a V that is neither small nor a
hypercube's, but it is the gate before both routes and neither reads its
result.  Every route of H(d,2), the quotient routes too, takes its verdict
from one 1 x 1 leaf, V's exact smallest eigenvalue
(graph._cube_potential).  _solve_lower
halves a triangle down to leaves of at most SOLVE_LEAF rows, applies each
leaf's inverse by matmul and refines the result once in working precision,
so nearly all its flops are matmul's.  Both, like _whitened_couplings,
also take stacks.

A spectrum carries no log base, the unit of an entropy, not of its gammas
and nus: gamma_spectrum and analytic's gamma_* closed forms take none;
ModeSpectrum.entropies, total_entropy (a math.fsum) and every function
that returns an entropy take log_base, 2 or "e".

Every dense factorization gets a column-major operand: numpy's linalg
copies each operand into a Fortran-order buffer for LAPACK, and from a
row-major array that copy is a strided transpose.  So the Cholesky calls
factor transposed views, whose lower triangle is the upper one of V or a
block, and the QR gets F[:, A], or each F_chi[:, A], column-major.  Every
block potential_matrix's V writes is exactly that of a symmetric V, signed
zeros included, so LAPACK returns the bits of the row-major array; a raw
array symmetric only within SYMMETRY_TOL has its upper triangle factored.
The engine's dense route and the oracle read V through PotentialMatrix.block,
the oracle's Cholesky route all of V; the sector routes read none of V's
blocks, nor the root table.

On a single cut each (n/2) x (n/2) block of the dense routes lives from its
write to its last read, and V_AB is solved where it was gathered: the
engine holds at most three blocks at once.  The oracle gathers 4P_A only
after the QR of F[:, A], its peak, where numpy holds F[:, A], a copy and
LAPACK's buffer.  The sector routes hold arrays of O(m d) values per
sector, m the number of cosets, and none of 2^d; the engine's stacks of
V_chi, like the census's gathers, are held to STACK_BYTES.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError, SingularityError
from . import graph
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
# Most bytes of blocks one stacked step gathers: the census's factor columns
# and 4P blocks, the engine's translation-sector blocks V_chi.  A block
# larger than this goes alone.
STACK_BYTES = 1 << 18
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
    entropies and the totals take one Python-level step per run of equal
    modes, not per mode: gamma_spectrum lists a ratio's copies as one
    shared Mode object, and hands its runs over with the modes.
    """

    modes: tuple

    def __post_init__(self):
        # reverse keeps a stable sort's order among equal keys, so this is
        # the order of the key -gamma.
        modes = sorted(self.modes, key=operator.attrgetter("gamma"), reverse=True)
        object.__setattr__(self, "modes", tuple(modes))

    @classmethod
    def _of_runs(cls, runs: list) -> "ModeSpectrum":
        """The spectrum of runs, (mode, copies) pairs in descending gamma,
        listing each mode's copies as one shared object.  modes is built by
        list repetition, not sorted again, and the runs are kept."""
        spectrum = cls.__new__(cls)
        modes = itertools.chain.from_iterable(itertools.repeat(*run) for run in runs)
        object.__setattr__(spectrum, "modes", tuple(modes))
        object.__setattr__(spectrum, "_runs", runs)
        return spectrum

    @functools.cached_property
    def _runs(self) -> list:
        """(mode, copies) for each run of equal modes; equal modes have the
        same entropy.  A run of one shared object is stepped over in C."""
        return [(m, len(list(run))) for m, run in itertools.groupby(self.modes)]

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
        """S(nu) of one copy of each mode, in mode order; each distinct nu
        is evaluated once."""
        base = _norm_log_base(log_base)
        s = {}
        out = []
        for m, copies in self._runs:
            if m.nu not in s:
                s[m.nu] = entropy_from_nu(m.nu, base)
            out += [s[m.nu]] * copies
        return out

    def total_entropy(self, log_base=2) -> float:
        """Sum of degeneracy * S(nu) over all modes, correctly rounded
        (math.fsum): a plain sum over the 2048 modes of the H(12,2) parity
        cut at g = 100 was 6.9e-14 from the exact total, the fsum 1.0e-16."""
        return self._total(self.entropies(log_base))

    def _total(self, entropies) -> float:
        """total_entropy from the list entropies returned: the fsum of the
        term degeneracy * S(nu) of each mode, each run's term computed
        once."""
        terms = []
        at = 0
        for m, copies in self._runs:
            terms += [m.degeneracy * entropies[at]] * copies
            at += copies
        return math.fsum(terms)


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
    """L^{-1} B for a lower-triangular L with a nonzero diagonal, or for
    each pair of a stack of them.

    numpy has no triangular solve, and np.linalg.solve would LU-factor L as
    if it were full.  Recursive halving costs one matmul per level instead:
    X_1 = L_11^{-1} B_1, then X_2 = L_22^{-1} (B_2 - L_21 X_1), down to
    leaves of order at most SOLVE_LEAF.  A leaf T = L^{-1} is solved once
    against the identity and applied by matmul, Y = T X, then refined once,
    Y += T (X - L Y).  The inverse alone leaves rounding noise where the
    true solution has zeros: a Cholesky factor of a block of V at g = 1e8,
    solved against the block's own columns, showed a componentwise backward
    error near 1.  One step of fixed-precision iterative refinement makes
    the solve componentwise backward stable, as substitution is (Skeel,
    Math. Comp. 35, 817 (1980); Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., chs. 8 and 12).

    The solve overwrites b, a float64 array, and returns it.  The engine and
    certification hand it fresh C-ordered blocks that nothing reads again.
    Any other layout is solved in a C-ordered buffer and written back, with
    the bits of a solve of a C-ordered copy.
    """
    x = np.ascontiguousarray(b)
    _substitute(l, x)
    if x is not b:
        b[...] = x
    return b


def _substitute(l: np.ndarray, x: np.ndarray) -> None:
    """Overwrite the rows x with L^{-1} x, the recursion of _solve_lower."""
    n = l.shape[-1]
    if n <= SOLVE_LEAF:
        t = np.linalg.solve(l, np.broadcast_to(np.eye(n), l.shape))
        y = t @ x
        y += t @ (x - l @ y)
        x[...] = y
        return
    h = n // 2
    _substitute(l[..., :h, :h], x[..., :h, :])
    x[..., h:, :] -= l[..., h:, :h] @ x[..., :h, :]
    _substitute(l[..., h:, h:], x[..., h:, :])


def _whitened_couplings(block, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Singular values, descending, of L_A^{-1} V_AB L_B^{-T} for the sides
    a and b of a V, or of each V of a stack, read as fresh C-ordered arrays
    block(rows, cols) = V[..., rows, cols], with V_AA = L_A L_A^T and
    V_BB = L_B L_B^T.  V is certified, so a value at or near 1 is a mode
    rounding has made non-normalizable, which nu_from_gamma refuses.
    """
    # V is certified, so by interlacing both blocks are.  Transposed views
    # are column-major operands; each block is dropped after its last read.
    la = np.linalg.cholesky(block(a, a).swapaxes(-1, -2))
    w = _solve_lower(la, block(a, b))
    del la
    lb = np.linalg.cholesky(block(b, b).swapaxes(-1, -2))
    w = np.array(w.swapaxes(-1, -2), order="C")
    coupling = _solve_lower(lb, w).swapaxes(-1, -2)
    del lb
    return np.linalg.svd(coupling, compute_uv=False)


def _sector_couplings(q, diagonal: float, coupling: float) -> tuple:
    """The values of _whitened_couplings for a coset-union cut of H(d,2) in
    quotient form q (cosets._Quotient), as (sigma, counts): one row of
    values per distinct sector of T, unsorted, and that sector's count of
    characters.  diagonal and coupling are V's 1 + 2gd and 2g.

    V[x, y] depends on x xor y alone, so every translation in T commutes
    with V.  For a character chi of T, the vectors sum_t chi(t) e_{r xor t},
    one per coset representative r, span one sector: they are real,
    orthogonal and each lies inside one side, so the sectors split the cut
    into independent ones with the same modes.  The sector's block is
    V_chi[e, e'] = sum_t chi(t) V[r_e, r_e' xor t], written in O(m d): a
    free bit moves r_e to the representative r_e xor e_j with weight 1, and
    the pivot f of a basis vector t moves it to r_e xor e_f xor t with
    weight chi(t).  Integer weights times one coupling make each block
    exactly symmetric.  The blocks go in stacks of at most STACK_BYTES (a
    larger block alone), each whitened by one _whitened_couplings; LAPACK
    and matmul see each block on its own, so its values have the bits of
    its whitening alone.  No block is certified: written in exact
    arithmetic, each V_chi is a block of V in another basis, so its
    eigenvalues are some of V's, which the caller has certified.  Neither
    V's blocks nor its root table are read.

    The slot order sets the rounding of each block's whitening, not its
    accuracy: on 240 random sectors at g = 1e4..1e8, ascending, descending
    and the quotient's order all left the largest gamma 1.1 ulp from the
    exact one on average.
    """
    m = 1 << len(q.normals)
    slots = np.arange(m)
    step = max(1, STACK_BYTES // (8 * m * m))
    parts = []
    for lo in range(0, len(q.characters), step):
        chunk = q.characters[lo : lo + step]
        hops = np.zeros((len(chunk), m, m), dtype=np.int8)
        # Free bits' moves, the same in every sector, then the pivots'.
        for j in range(len(q.normals)):
            hops[:, slots, slots ^ (1 << j)] = 1
        for offset, signs in zip(q.offsets, np.array([s for s, _ in chunk]).T):
            hops[:, slots, slots ^ offset] += signs[:, None]
        stack = hops * -coupling
        stack[:, slots, slots] += diagonal
        flat = stack.reshape(len(chunk), m * m)
        parts.append(
            _whitened_couplings(
                lambda rows, cols: np.take(flat, rows[:, None] * m + cols, axis=1),
                q.a,
                q.b,
            )
        )
    return np.concatenate(parts), [count for _, count in q.characters]


def _spectrum(sigma: np.ndarray, counts, expand: bool = True) -> ModeSpectrum:
    """The ModeSpectrum of coupling ratios sigma, one row per block with the
    block's count of copies in counts.  Each distinct ratio becomes one
    Mode, largest first: repeated once per copy, the Mode object shared, or
    with expand false listed once with its copies as its degeneracy."""
    totals = {}
    for row, count in zip(sigma.tolist(), counts):
        for s in row:
            totals[s] = totals.get(s, 0) + count
    # Descending ratios give descending gammas: _mode maps only ratios
    # below GAMMA_ZERO, the smallest, to 0.
    pairs = sorted(totals.items(), reverse=True)
    if not expand:
        return ModeSpectrum._of_runs([(_mode(s, count), 1) for s, count in pairs])
    return ModeSpectrum._of_runs([(_mode(s), count) for s, count in pairs])


def _cut_quotient(v: PotentialMatrix, cut: Bipartition):
    """The cut's quotient form, which it computes once and keeps, when v
    carries the H(d,2) table and a translation but 0 maps side A onto
    itself; else None."""
    if cut.n != v.n:
        raise ValueError("bipartition size does not match matrix")
    return None if v.profile is None else cut._quotient


def gamma_spectrum(v, cut: Bipartition) -> ModeSpectrum:
    """Coupling-ratio spectrum of a bipartition of the ground state.

    Whitens both diagonal blocks of V by their Cholesky factors
    V_AA = L_A L_A^T, V_BB = L_B L_B^T and takes the singular values of
    L_A^{-1} V_AB L_B^{-T}, which are those of V_AA^{-1/2} V_AB V_BB^{-1/2};
    each singular value gamma < 1 is one entanglement mode.  min(|A|, |B|)
    modes are returned, sorted by descending gamma; ratios below 1e-12 are
    exact zero modes, reported as gamma = 0.  Each distinct ratio becomes
    one Mode, largest first, shared by its copies.

    On a V that potential_matrix recognised as H(d,2), a cut whose side A
    some translation maps onto itself is split into translation sectors,
    whitened as stacks (_sector_couplings); any other input is whitened
    whole.
    """
    v = _as_potential(v)
    q = _cut_quotient(v, cut)
    if q is None:
        in_a = cut._indicator
        sigma = _whitened_couplings(v.block, np.flatnonzero(in_a), np.flatnonzero(~in_a))
        return _spectrum(sigma[None], [1])
    return _spectrum(*_sector_couplings(q, v._diagonal[0], v._coupling))


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


def _symplectic_nus(w: list) -> list:
    """Symplectic eigenvalues nu = sqrt(w) of one cut, as a list of floats,
    from the eigenvalues w of its form R 4P_A R^T as np.linalg.eigvalsh
    lists them.  Values below 1 by more than NU_SLACK raise; smaller dips
    clamp to 1.

    eigvalsh returns ascending eigenvalues, so only w[0] is checked.  The
    clamp and the root run on Python floats: math.sqrt, like np.sqrt, is
    correctly rounded, so each nu has the bits of sqrt(max(w, 1)), and a
    NaN stays NaN as it would through np.maximum.
    """
    low = math.sqrt(max(w[0], 0.0))
    if low < 1.0 - NU_SLACK:
        raise ConsistencyError(
            "symplectic eigenvalue %.17g fell below 1 by more than %g"
            % (low, NU_SLACK)
        )
    return [1.0 if x <= 1.0 else math.sqrt(x) for x in w]


def _entropy_from_cov(form: np.ndarray, base: str) -> float:
    """Entropy of one cut from its form R 4P_A R^T (see _stacked_forms)."""
    return _entropy_from_eigvals(np.linalg.eigvalsh(form).tolist(), base)


def _entropy_from_eigvals(w: list, base: str) -> float:
    """Entropy of one cut from the eigenvalues w of its form, listed as
    np.linalg.eigvalsh returns them."""
    return sum([entropy_from_nu(nu, base) for nu in _symplectic_nus(w)])


def _sector_entropy(q, diagonal: float, coupling: float, roots, base: str) -> float:
    """The oracle's entropy of a coset-union cut of H(d,2) in quotient form
    q (cosets._Quotient): one reduced state per distinct sector of T,
    weighted by its count of characters.  diagonal and coupling are V's
    1 + 2gd and 2g, roots the Walsh eigenvalues phi(w) = 1/sqrt(2(1 + 4gw))
    of X^{1/2} (graph._walsh_roots).

    The translation x -> x xor t commutes with X^{1/2} and with V, whose
    entries depend on x xor y alone, so in the basis of _sector_couplings
    each splits into one block per character chi of T, and the block of
    X^{1/2} squares to that of X.  The blocks depend on the slot difference
    alone: F_chi[e, e'] = f_chi(e xor e') with
    f_chi(e) = sum_t chi(t) F(|r_e xor t|).  Write chi(t) = (-1)^{y.t}, y
    the pivots of T where chi is -1.  Poisson summation over T (MacWilliams
    and Sloane, The Theory of Error-Correcting Codes, ch. 5) gives
    f_chi(e) = 2^-c sum_u phi(|y xor M^T u|) (-1)^{u.e} over u in F_2^c,
    for y.r_e = 0 and M r_e = e: m Walsh terms in place of T's 2^k, taken
    by weight as sum_w n_w phi(w) and rounded once (math.fsum of exact
    products), in O(m c d) per sector.  No table of X^{1/2} is read: the
    phi(0) = 1/sqrt(2) that dominates it at strong coupling enters the
    trivial sector alone, and no cancellation takes it out of the others.
    4P_chi[e, e'] = 2 p_chi(e xor e') with p_chi(e) the sum over V's
    distance-0 and distance-1 entries: 1 + 2gd at e = 0 and -2g times
    chi(t) for each bit i with e_i = r_e xor t.  Each sector then takes the
    dense route's algebra: F_chi's columns on A's cosets through
    _stacked_triangles and _stacked_forms.  One eigvalsh takes the stack of
    forms; LAPACK sees each form on its own, so each sector's eigenvalues,
    and its entropy, have the bits of _entropy_from_cov of its form alone,
    and each sector is checked and clamped against NU_SLACK on its own.
    The oracle reads no V_chi, whitening or certificate: it shares with the
    engine only q's combinatorics.
    """
    m = 1 << len(q.normals)
    slots = np.arange(m)
    signs = np.array([chi for chi, _ in q.characters], dtype=np.int64)
    signs = signs.reshape(len(q.characters), len(q.basis))
    y = (signs < 0) @ np.left_shift(1, np.array(list(q.basis), dtype=np.int64))
    span = np.zeros(m, dtype=np.int64)
    for j, normal in enumerate(q.normals):
        span[1 << j : 2 << j] = span[: 1 << j] ^ normal
    # The sum is sum_w n_w phi(w) for the integers
    # n[chi, e, w] = sum_u (-1)^{u.e} [|y xor M^T u| = w], a Walsh-Hadamard
    # transform over u in c butterfly passes, exact in int64.
    n = np.bitwise_count(y[:, None] ^ span)[..., None] == np.arange(q.d + 1)
    n = n.astype(np.int64)
    for j in range(len(q.normals)):
        pair = n.reshape(len(n), -1, 2, 1 << j, q.d + 1)
        zero, one = pair[:, :, :1], pair[:, :, 1:]
        n = np.concatenate((zero + one, zero - one), axis=2).reshape(n.shape)
    # |n_w| <= m <= 2^12, so with phi split into 40 high and 13 low bits
    # (Veltkamp) both products are exact, and fsum rounds their sum once.
    big = roots * 8193.0
    high = big - (big - roots)
    terms = np.concatenate((n * high, n * (roots - high)), axis=-1)
    f = np.array(list(map(math.fsum, terms.reshape(-1, 2 * q.d + 2).tolist())))
    f = f.reshape(-1, m) / m
    hits = np.zeros(signs.shape[:1] + (m,), dtype=np.int64)
    hits[:, 1 << np.arange(len(q.normals))] = 1
    for offset, sign in zip(q.offsets, signs.T):
        hits[:, offset] += sign
    # Each p_chi(e) correctly rounded, as the sum over T was; an exact
    # zero is +0.0, as that sum left it.
    p = hits * -coupling
    p[:, 0] = [
        math.fsum([diagonal] + [-coupling if h > 0 else coupling] * abs(h))
        for h in hits[:, 0].tolist()
    ]
    p += 0.0
    a = q.a
    # take writes a C-ordered stack of F_chi[A, :], so each sector's
    # F_chi[:, A] is column-major.
    r = _stacked_triangles(np.take(f, a[:, None] ^ slots, axis=1).swapaxes(1, 2))
    p4 = np.take(p, a[:, None] ^ a, axis=1)
    p4 *= 2.0
    eigvals = np.linalg.eigvalsh(_stacked_forms(r, p4)).tolist()
    return math.fsum(
        count * _entropy_from_eigvals(w, base)
        for w, (_, count) in zip(eigvals, q.characters)
    )


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
    hypercube harmonic analysis.  With the table, a side A that some
    translation maps onto itself is reduced per translation sector
    (_sector_entropy), and the sectors' entropies are summed by math.fsum.

    subset is side A's labels, or a Bipartition of v's vertices whose side
    A is taken as it is: its labels were checked when it was built.
    """
    base = _norm_log_base(log_base)
    v = _as_potential(v)
    if isinstance(subset, Bipartition):
        cut = subset
    else:
        cut = Bipartition.from_side_a(v.n, subset)
    q = _cut_quotient(v, cut)
    if q is not None:
        # The oracle's own check that side A is the union of cosets q names:
        # each label x lies in slot Mx, and A must be the labels whose slot
        # is on side A.
        in_slot = np.zeros(1 << len(q.normals), dtype=bool)
        in_slot[q.a] = True
        if not np.array_equal(in_slot[q.slots(np.arange(v.n))], cut._indicator):
            raise ConsistencyError("side A is not a union of cosets of its translations")
        roots = graph._walsh_roots(q.d, v._coupling / 2.0)
        return _sector_entropy(q, v._diagonal[0], v._coupling, roots, base)
    rows = np.flatnonzero(cut._indicator)
    r = _stacked_triangles(_position_covariance(v, rows)[None])
    # 4P_A from V_AA, gathered once F[:, A] is dropped: halved, then
    # quadrupled, in place.
    p4 = v.block(rows, rows)
    p4 /= 2.0
    p4 *= 4.0
    form = _stacked_forms(r, p4[None])[0]
    return _entropy_from_cov(form, base)


def coset_cut_spectrum(d: int, normals, subset, g: float) -> ModeSpectrum:
    """The engine's spectrum of the coset-union cut A = {x : Mx in S} of
    H(d,2) at coupling g, for d up to 62, with no V or label array built.

    M = normals is a full-rank c x d matrix of 0s and 1s whose rows span the
    labels orthogonal to the translations that map A onto itself; column a
    multiplies bit a of a label.  S = subset holds integers in 0..2^c - 1,
    bit j standing for row j, neither none nor all of them (cosets module
    docstring).  The parity cut is M = [[1] * d], S = [0].

    V is certified as potential_matrix certifies it, with the same
    DefinitenessError (graph._cube_potential).  Each distinct sector's
    V_chi is then written from 1 + 2gd and -2g and whitened, as
    gamma_spectrum does on a hypercube V (_sector_couplings).  Each
    distinct ratio is one Mode whose degeneracy counts its copies, 2^(d-1)
    modes in all on a hyperplane.
    """
    from . import cosets

    q = cosets._of_normals(d, normals, subset)
    _, diagonal, coupling = graph._cube_potential(q.d, g)
    return _spectrum(*_sector_couplings(q, diagonal, coupling), expand=False)


def coset_cut_oracle(d: int, normals, subset, g: float, log_base=2) -> float:
    """The oracle's entropy of the coset-union cut A = {x : Mx in S} of
    H(d,2) at coupling g, with no V or label array built; d, normals and
    subset as coset_cut_spectrum takes them.

    V is certified as potential_matrix certifies it
    (graph._cube_potential).  Each distinct sector's covariance blocks are
    Walsh sums over the rows' span (_sector_entropy).
    """
    from . import cosets

    base = _norm_log_base(log_base)
    q = cosets._of_normals(d, normals, subset)
    g, diagonal, coupling = graph._cube_potential(q.d, g)
    roots = graph._walsh_roots(q.d, g)
    return _sector_entropy(q, diagonal, coupling, roots, base)

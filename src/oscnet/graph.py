"""Graphs, ground-state potential matrices, and named bipartitions.

Vertices are integers 0..n-1.  For the d-dimensional hypercube the label of a
vertex is read as a d-bit string, bit a giving the coordinate along axis a,
so vertex 0 is the all-zeros corner and Hamming weight stratifies the graph
into distance shells around it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    DefinitenessError,
    DomainError,
    EdgeListError,
    GraphSizeError,
    SchemeError,
)

# Every consumer of a graph builds dense n x n matrices, so this one limit
# bounds every graph; the largest hypercube within it is H(12,2).
MAX_VERTICES = 4096
MAX_HYPERCUBE_DIM = MAX_VERTICES.bit_length() - 1

# Largest |V[i,j] - V[j,i]| a matrix may have and still count as symmetric.
SYMMETRY_TOL = 1e-12
# A positive definite matrix must have every eigenvalue above this floor.
EIG_FLOOR = 1e-12
# Matrices of at most this order are certified by one Cholesky call; larger
# ones are halved (see _lower_factor).  Leaves of 128, 256 and 512 rows
# certified the n = 1024 V of H(10,2) in 16-17 ms against 24 ms for one
# call; 256 was the fastest, and at n = 2048 too.  Only V of other graphs
# and raw arrays are halved: a V of H(d,2) is certified by the 1 x 1 leaf of
# its exact smallest eigenvalue (PotentialMatrix._from_graph).
CERTIFY_LEAF = 256
# Side of the square tiles the symmetry check compares; a tile pair fits in
# a core's L2 cache.
_SYMMETRY_TILE = 128

# Every accepted spelling of a named hypercube cut, mapped to its canonical
# name.  The canonical names key analytic.CLOSED_FORMS.
CUT_NAMES = {
    "identity_cut": "identity_cut",
    "identity-cut": "identity_cut",
    "coordinate": "identity_cut",
    "parity_cut": "parity_cut",
    "parity": "parity_cut",
    "half_strata": "half_strata",
    "half-strata": "half_strata",
}


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph on vertices 0..n-1.

    edges may list each edge in either orientation, in any order and any
    number of times; the constructor canonicalizes it to an (m, 2) int64
    array with i < j in every row, sorted lexicographically and free of
    repeats.  So two instances compare equal, and hash alike, iff they have
    the same vertex count and the same edge set.  Self-loops and endpoints
    outside 0..n-1 are refused.  A read-only int64 array that owns its data
    and is already canonical, as another Graph's edges are, is kept as it
    is; any other input is copied.

    A graph from hypercube_graph(d) records d and writes its edges, the
    same canonical array, when .edges is first read: the routes of H(d,2)
    read its labels, never its edges.  Equality, the hash, num_edges,
    degrees and adjacency_matrix read .edges, so they see the same array.
    """

    n: int
    edges: np.ndarray

    # d on a graph from hypercube_graph; not a field, as Graph takes no d.
    _cube = None

    def __post_init__(self):
        if (n := _integer(self.n)) is None or n < 1:
            raise GraphSizeError("vertex count must be a positive integer")
        object.__setattr__(self, "n", n)
        if self.n > MAX_VERTICES:
            raise GraphSizeError(
                "vertex count %d exceeds the supported maximum %d"
                % (self.n, MAX_VERTICES)
            )
        e = np.asarray(self.edges)
        if e.ndim != 2 or e.shape[1] != 2:
            raise EdgeListError("edge array must have shape (m, 2)")
        if e.shape[0]:
            # Refused rather than cast, as Bipartition refuses non-integer
            # labels: a cast would truncate 0.7 to 0 and read True as 1.
            if e.dtype.kind not in "iu":
                raise EdgeListError("edge endpoints must be integers")
            if e.min() < 0 or e.max() >= self.n:
                raise EdgeListError("edge endpoint out of range")
        e = e.astype(np.int64, copy=False)
        # Each edge becomes the key i n + j with i < j, which orders like the
        # pair.  Keys that already increase strictly are those of the
        # canonical array itself, which is kept.  Else, on H(10,2), sorting
        # the 1-D keys and dropping equal neighbours took 26 us, a lexsort
        # of the rows 120 us and np.unique of the keys 440 us.
        lo, hi = e[:, 0], e[:, 1]
        keys = lo * self.n + hi
        if np.all(lo < hi) and np.all(keys[1:] > keys[:-1]):
            if e.flags.writeable or not e.flags.owndata:
                e = e.copy()
        else:
            loops = lo == hi
            if loops.any():
                raise EdgeListError("self-loop on vertex %d" % lo[loops.argmax()])
            keys = np.minimum(lo, hi) * self.n + np.maximum(lo, hi)
            keys.sort()
            keep = np.empty(keys.size, dtype=bool)
            keep[:1] = True
            np.not_equal(keys[1:], keys[:-1], out=keep[1:])
            e = np.column_stack(np.divmod(keys[keep], self.n))
        e.setflags(write=False)
        object.__setattr__(self, "edges", e)

    def __getattr__(self, name):
        # Reached only for an attribute not set: .edges of a graph from
        # hypercube_graph before its first read.  Two threads reading it at
        # once may each write one; the arrays are equal.
        if name != "edges" or self._cube is None:
            raise AttributeError(
                "%r object has no attribute %r" % (type(self).__name__, name)
            )
        edges = _hypercube_edges(self._cube)
        object.__setattr__(self, "edges", edges)
        return edges

    def __reduce__(self):
        # A copy or an unpickled graph is built as the original was: its
        # edges canonical, read-only and its own, or on H(d,2) not yet
        # written.
        if self._cube is not None:
            return hypercube_graph, (self._cube,)
        return Graph, (self.n, self.edges)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edges, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges.tobytes()))

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    def degrees(self) -> np.ndarray:
        """Vertex degrees as an int64 vector."""
        return np.bincount(self.edges.ravel(), minlength=self.n).astype(
            np.int64, copy=False
        )

    def adjacency_matrix(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix."""
        a = np.zeros((self.n, self.n))
        if self.num_edges:
            i, j = self.edges[:, 0], self.edges[:, 1]
            a[i, j] = 1.0
            a[j, i] = 1.0
        return a


def _integer(x) -> int | None:
    """x as an int if it is a Python or numpy integer but not a bool, else None."""
    ok = isinstance(x, (int, np.integer)) and not isinstance(x, bool)
    return int(x) if ok else None


def _vertex_labels(side) -> list:
    """The labels of one side as ints, non-integers and bools refused; a type
    scan and operator.index take a quarter of the time of _integer per label,
    and a side of ints alone is returned as it is."""
    try:
        side = list(side)
        types = set(map(type, side))
        if types <= {int}:
            return side
        if bool not in types:
            return [operator.index(v) for v in side]
    except TypeError:
        pass
    raise ValueError("vertex labels must be integers")


@dataclass(frozen=True)
class Bipartition:
    """A two-sided split of vertices 0..n-1 into non-empty sides A and B.

    Side A's indicator over 0..n-1 and, for n = 2^d, the cut's quotient form
    as a coset-union cut of H(d,2) are computed on first read and kept with
    the cut, so the engine and the oracle of one cut read one copy.
    """

    side_a: tuple
    side_b: tuple

    def __post_init__(self):
        a = tuple(sorted(_vertex_labels(self.side_a)))
        b = tuple(sorted(_vertex_labels(self.side_b)))
        object.__setattr__(self, "side_a", a)
        object.__setattr__(self, "side_b", b)
        if not a or not b:
            raise ValueError("both sides of a bipartition must be non-empty")
        seen = set(a)
        if len(seen) != len(a) or len(set(b)) != len(b):
            raise ValueError("bipartition sides contain duplicate vertices")
        if seen & set(b):
            raise ValueError("bipartition sides overlap")
        union = sorted(a + b)
        if union[0] != 0 or union[-1] != len(union) - 1:
            raise ValueError("bipartition must cover vertices 0..n-1 exactly")

    @classmethod
    def from_side_a(cls, n: int, side_a) -> "Bipartition":
        """Build a bipartition of 0..n-1 from one side.

        The side is checked once, and both sides are read off one boolean
        mask over 0..n-1, which the cut keeps as its indicator; the
        complement is right by construction and is not checked again.  The
        labels are read into one int64 array, which serves the range check
        and the mask; a label past int64 is out of range.
        """
        if (n := _integer(n)) is None:
            raise ValueError("vertex count must be an integer")
        try:
            labels = np.array(_vertex_labels(side_a), dtype=np.int64)
        except OverflowError:
            raise ValueError("side A vertex out of range") from None
        if labels.size and (labels.min() < 0 or labels.max() >= n):
            raise ValueError("side A vertex out of range")
        in_a = np.zeros(max(n, 0), dtype=bool)
        in_a[labels] = True
        a = np.flatnonzero(in_a)
        # The checks of __post_init__, in its order, on the mask.
        if not labels.size or a.size == n:
            raise ValueError("both sides of a bipartition must be non-empty")
        if a.size != labels.size:
            raise ValueError("bipartition sides contain duplicate vertices")
        cut = cls.__new__(cls)
        object.__setattr__(cut, "side_a", tuple(a.tolist()))
        object.__setattr__(cut, "side_b", tuple(np.flatnonzero(~in_a).tolist()))
        in_a.setflags(write=False)
        object.__setattr__(cut, "_indicator", in_a)
        return cut

    @property
    def n(self) -> int:
        return len(self.side_a) + len(self.side_b)

    @functools.cached_property
    def _indicator(self) -> np.ndarray:
        """Side A's indicator over 0..n-1, read-only."""
        in_a = np.zeros(self.n, dtype=bool)
        in_a[list(self.side_a)] = True
        in_a.setflags(write=False)
        return in_a

    @functools.cached_property
    def _quotient(self):
        """For n = 2^d, the cut as a union of cosets of the translations of
        H(d,2) that map side A onto itself (cosets._of_cut), with its
        sectors, or None when only 0 does."""
        # cosets imports this module, so it is imported on use.
        from . import cosets

        return cosets._of_cut(self.n.bit_length() - 1, self._indicator)


def _lower_factor(a, n: int, whole: bool = True):
    """The lower Cholesky factor L of a - EIG_FLOOR I for a symmetric n x n
    matrix a, or for each of a stack of them, read from its upper triangle;
    DefinitenessError if one is not positive definite.

    a is an array, or a reader a(rows, cols) that returns a[..., rows, cols]
    for two slices as a view or a fresh array.  A leaf, of at most
    CERTIFY_LEAF rows, is the one place EIG_FLOOR is subtracted, from its
    diagonal: in place if the leaf is writeable, else on a copy.  It is
    factored by one np.linalg.cholesky of its transpose, a column-major view
    that LAPACK copies without transposing.  Above, a is halved by the
    generalized Schur complement: L_11 factors a_11, W = L_11^{-1} a_12 (in
    place if a_12 owns its data) and S = a_22 - W^T W is factored in turn,
    for a - EIG_FLOOR I is positive definite exactly when a_11 and S are,
    less the floor.  With whole false only that verdict is wanted: no n x n
    L is assembled and the result is None (or a leaf's factor).
    """
    # gaussian imports this module, so its solve is imported on use.
    from .gaussian import _solve_lower

    read = a if callable(a) else lambda rows, cols: a[..., rows, cols]
    if n <= CERTIFY_LEAF:
        leaf = read(slice(0, n), slice(0, n))
        leaf = leaf if leaf.flags.writeable else leaf.copy()
        leaf[..., np.arange(n), np.arange(n)] -= EIG_FLOOR
        try:
            return np.linalg.cholesky(leaf.swapaxes(-1, -2))
        except np.linalg.LinAlgError:
            raise DefinitenessError(
                "potential matrix is not positive definite"
            ) from None
    h = n // 2
    top, bottom = slice(0, h), slice(h, n)
    l11 = _lower_factor(read(top, top), h)
    w = read(top, bottom)
    w = _solve_lower(l11, w if w.flags.owndata else w.copy())
    out = None
    if whole:
        out = np.zeros(w.shape[:-2] + (n, n))
        out[..., :h, :h] = l11
        out[..., h:, :h] = w.swapaxes(-1, -2)
    # Each block is dropped once read: a verdict on an n = 1024 matrix then
    # holds about 5 MB at its peak, where one factor of it took 8 MB.
    del l11
    s = w.swapaxes(-1, -2) @ w
    del w
    np.subtract(read(bottom, bottom), s, out=s)
    l22 = _lower_factor(s, n - h, whole)
    if whole:
        out[..., h:, h:] = l22
    return out


def _shifted_diagonal(diagonal: float, coupling: float, k: int) -> float:
    """diagonal - |coupling| k, computed exactly and rounded to the nearest
    float at or below it; -inf when a term is infinite or the difference is
    below every float, as only a V with an infinite or hugely negative
    diagonal gives."""
    try:
        exact = Fraction(diagonal) - abs(Fraction(coupling)) * k
        out = float(exact)
    except OverflowError:
        return -math.inf
    return math.nextafter(out, -math.inf) if Fraction(out) > exact else out


def _positions(n: int, idx) -> tuple:
    """idx as an intp array, and each vertex's position in it or -1; idx must
    be a 1-D integer array of distinct vertices 0..n-1, or empty."""
    idx = np.asarray(idx)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise ValueError("block indices must be 1-D integer arrays")
    if idx.size and not (0 <= idx.min() and idx.max() < n):
        raise ValueError("block indices must be vertices 0..%d" % (n - 1))
    idx = idx.astype(np.intp, copy=False)
    at = np.full(n, -1, dtype=np.intp)
    at[idx] = np.arange(idx.size)
    if np.count_nonzero(at >= 0) != idx.size:
        raise ValueError("block indices must be distinct vertices")
    return idx, at


@dataclass(frozen=True, eq=False, init=False)
class PotentialMatrix:
    """Ground-state potential matrix V = I + 2g L, certified positive definite.

    The Gaussian ground state of the coupled-oscillator Hamiltonian has
    wavefunction proportional to exp(-x^T V x / 2); everything downstream
    (entropy engines, censuses) consumes this object: block(rows, cols) for
    the blocks each route reads, .matrix for all of V.

    profile is set only by potential_matrix on the hypercube H(d,2): the
    symmetric square root of the position covariance V^{-1}/2 at Hamming
    distance k = 0..d, within eps times its largest entry.  The constructor
    does not take it, so it always belongs to the matrix.

    A float64 array given to the constructor is owned, not copied: .matrix
    is that array, made read-only, so the caller's writes to it raise, and
    block gathers from it.  gamma_spectrum and entropy_oracle_symplectic
    copy raw arrays first.

    A V from potential_matrix holds its graph instead: V's diagonal
    1 + 2g deg, the coupling 2g, and the canonical edges or, on H(d,2), d
    alone.  block writes each block from them, and .matrix, all of V, is
    built on first read, made read-only and kept.
    """

    n: int
    profile: np.ndarray | None = field(default=None, repr=False)
    _edges: np.ndarray | None = field(default=None, repr=False)
    _diagonal: np.ndarray | None = field(default=None, repr=False)
    _coupling: float = field(default=0.0, repr=False)
    _cube: int | None = field(default=None, repr=False)

    def __init__(self, matrix):
        m = self.certify(matrix)
        m.setflags(write=False)
        object.__setattr__(self, "n", m.shape[0])
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _from_graph(cls, edges, coupling, diagonal, cube) -> "PotentialMatrix":
        """V of canonical edges, the coupling 2g and the diagonal
        1 + 2g deg, certified positive definite; cube is d, and edges None,
        when the graph is H(d,2), else None.

        V is symmetric by construction, so no symmetry pass runs.  Any
        graph but a hypercube goes to _lower_factor, which reads V through
        block, so only its top-level quarters are built, and subtracts the
        floor at its leaves, in place.

        On H(d,2) the V it has here is D I - c A for the float diagonal D
        and coupling c, and the adjacency A of H(d,2) has the eigenvalues
        d - 2w for w = 0..d (Cvetkovic, Doob and Sachs, Spectra of Graphs,
        2.5; the paper's 2 J_x).  So V's eigenvalues are exactly
        D - c(d - 2w), and lambda_min(V) = D - |c| d for either sign of c:
        V is certified by the 1 x 1 leaf of that value.  It is the float at
        or below D - |c| d (_shifted_diagonal with k = d), so rounding never
        makes the leaf more definite than V, and it loses EIG_FLOOR in
        _lower_factor like any other leaf.
        """
        v = cls.__new__(cls)
        diagonal.setflags(write=False)
        for name, value in (
            ("n", diagonal.size),
            ("_edges", edges),
            ("_diagonal", diagonal),
            ("_coupling", coupling),
            ("_cube", cube),
        ):
            object.__setattr__(v, name, value)
        if cube is None:
            every = np.arange(v.n)
            _lower_factor(lambda r, c: v.block(every[r], every[c]), v.n, whole=False)
            return v
        leaf = np.array([[_shifted_diagonal(float(diagonal[0]), coupling, cube)]])
        _lower_factor(leaf, 1, whole=False)
        return v

    # The gate and the block reader are methods rather than module functions
    # so that perfbench/tracer.py, which wraps module functions only, counts
    # their time in the caller's layer.

    @staticmethod
    def certify(v) -> np.ndarray:
        """v as a square float array, certified symmetric within
        SYMMETRY_TOL and positive definite above EIG_FLOOR.

        Symmetry is one pass over pairs of square tiles, each compared with
        the transpose of its mirror; NaN and inf never pass.  Definiteness
        is block Cholesky by halves of v - EIG_FLOOR I (_lower_factor),
        which reads only the upper triangle of v, through a read-only view:
        the floor is subtracted on copies of its leaves, so v is never
        written, nor copied whole.  By Cauchy interlacing every principal
        block of v then clears the floor too.
        """
        m = np.asarray(v, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("expected a square matrix")
        n = m.shape[0]
        t = _SYMMETRY_TILE
        # inf - inf is NaN by design here; it fails the comparison below.
        with np.errstate(invalid="ignore"):
            for i in range(0, n, t):
                for j in range(i, n, t):
                    tile = m[i : i + t, j : j + t] - m[j : j + t, i : i + t].T
                    if not np.abs(tile).max() <= SYMMETRY_TOL:
                        raise ValueError(
                            "matrix must be finite and symmetric within %g"
                            % SYMMETRY_TOL
                        )
        frozen = m.view()
        frozen.setflags(write=False)
        _lower_factor(frozen, n, whole=False)
        return m

    def block(self, rows, cols) -> np.ndarray:
        """The block V[rows][:, cols] as a fresh C-ordered float64 array,
        for 1-D integer index arrays rows and cols, each of distinct
        vertices.

        A V from potential_matrix writes the block from its graph: the
        signed zero 2g * -0.0 everywhere, -2g on each edge with both ends in
        the block, 1 + 2g deg on the diagonal.  On H(d,2) the neighbours of
        x are x xor 2^a, so the edges come from one gather of the rows'
        labels' d neighbours, in O(|rows| d); on any other graph from a
        scan of every edge, in O(m).  The block takes O(|rows| |cols| + n)
        besides.  These are the entries the dense V holds, signed zeros
        included, so the block is bit for bit the slice of .matrix and
        LAPACK sees the same buffer.  Any other V is gathered from .matrix.
        """
        rows, at_row = _positions(self.n, rows)
        cols, at_col = _positions(self.n, cols)
        if self._diagonal is None:
            return self.matrix[rows[:, None], cols]
        c = self._coupling
        out = np.full((rows.size, cols.size), c * -0.0)
        if self._cube is None:
            ends = self._edges.T
            for i, j in (ends, ends[::-1]):
                p, q = at_row[i], at_col[j]
                hit = (p >= 0) & (q >= 0)
                out[p[hit], q[hit]] = -c
        else:
            q = at_col[rows[:, None] ^ (1 << np.arange(self._cube))]
            hit = q >= 0
            out[np.nonzero(hit)[0], q[hit]] = -c
        q = at_col[rows]
        hit = q >= 0
        out[np.flatnonzero(hit), q[hit]] = self._diagonal[rows[hit]]
        return out

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """All of V, read-only.  A V from potential_matrix builds it from
        its graph on first read and keeps it."""
        every = np.arange(self.n)
        m = self.block(every, every)
        m.setflags(write=False)
        return m


def _check_hypercube_dim(d) -> int:
    if (d := _integer(d)) is None or not 1 <= d <= MAX_HYPERCUBE_DIM:
        raise GraphSizeError(
            "hypercube dimension must be an integer in 1..%d" % MAX_HYPERCUBE_DIM
        )
    return d


def hypercube_graph(d: int) -> Graph:
    """The binary hypercube H(d,2): 2^d vertices, edges between labels at
    Hamming distance 1.

    The graph records d and writes its d 2^(d-1) edges only when .edges is
    first read (Graph): potential_matrix, entropy and census on it read the
    labels alone.
    """
    d = _check_hypercube_dim(d)
    cube = Graph.__new__(Graph)
    object.__setattr__(cube, "n", 1 << d)
    object.__setattr__(cube, "_cube", d)
    return cube


def _hypercube_edges(d: int) -> np.ndarray:
    """The canonical edge array of H(d,2), read-only: label x's upper
    neighbours x | 2^a, for each bit a that x lacks, ascending."""
    # Labels fit in int16; the int64 array is written once.
    x = np.arange(1 << d, dtype=np.int16)
    up = x[:, None] | (1 << np.arange(d, dtype=np.int16))
    edges = np.empty((d << (d - 1), 2), dtype=np.int64)
    edges[:, 0] = np.repeat(x, d - np.bitwise_count(x))
    edges[:, 1] = np.compress((up != x[:, None]).ravel(), up)
    edges.setflags(write=False)
    return edges


def graph_from_edge_list(text: str) -> Graph:
    """Parse a plain-text edge list.

    One edge per line as two whitespace-separated non-negative integers.
    Blank lines are skipped and '#' starts a comment.  The vertex count is
    one plus the largest index mentioned; duplicate edges (in either
    orientation) collapse to one in Graph.
    """
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListError(
                "expected two vertex indices, got %d tokens" % len(tokens), lineno
            )
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListError("non-integer vertex index", lineno) from None
        if i < 0 or j < 0:
            raise EdgeListError("negative vertex index", lineno)
        if i == j:
            raise EdgeListError("self-loop on vertex %d" % i, lineno)
        pairs.append((i, j))
    if not pairs:
        raise EdgeListError("edge list contains no edges")
    edges = np.array(pairs, dtype=np.int64)
    return Graph(int(edges.max()) + 1, edges)


def graph_from_uri(uri: str) -> Graph:
    """Resolve "hypercube:<d>" or "file:<path>" to a Graph."""
    kind, sep, rest = uri.partition(":")
    if not sep:
        raise ValueError("graph URI must look like hypercube:<d> or file:<path>")
    if kind == "hypercube":
        try:
            d = int(rest)
        except ValueError:
            raise GraphSizeError("hypercube dimension must be an integer") from None
        return hypercube_graph(d)
    if kind == "file":
        with open(rest, "r", encoding="utf-8") as handle:
            return graph_from_edge_list(handle.read())
    raise ValueError("unknown graph URI scheme %r" % kind)


def _inv_sqrt(a: Fraction) -> Fraction:
    """1/sqrt(a) for a rational a > 0, correctly rounded to float64 and
    returned as the exact rational value of that float."""
    # y = floor(sqrt(a^-1) 2^s) carries 64 or more bits; a sticky half unit
    # marks an inexact root, so rounding it once gives the rounding of the
    # true root.
    num, den = a.denominator, a.numerator
    s = max(0, 64 - (num.bit_length() - den.bit_length()) // 2)
    y = math.isqrt((num << (2 * s)) // den)
    twice = 2 * y + (y * y * den != num << (2 * s))
    return Fraction(float(Fraction(twice, 1 << (s + 1))))


@functools.lru_cache
def _walsh_roots(d: int, g: float) -> np.ndarray:
    """phi(w) = 1/sqrt(2(1 + 4gw)) for w = 0..d, each correctly rounded,
    read-only and computed once per (d, g): the eigenvalues of X^{1/2} on
    the Walsh characters of weight w of H(d,2)."""
    q = Fraction(g)
    roots = np.array([float(_inv_sqrt(2 * (1 + 4 * q * w))) for w in range(d + 1)])
    roots.setflags(write=False)
    return roots


@functools.lru_cache
def _root_profile(d: int, g: float) -> np.ndarray:
    """Symmetric square root F = X^{1/2} of the position covariance
    X = V^{-1}/2 of H(d,2), at Hamming distance 0..d, read-only and
    computed once per (d, g).

    The Walsh characters of weight l span an eigenspace of V = I + 2gL with
    eigenvalue 1 + 4gl, and its projector has entries 2^-d K_l(dist(i,j))
    (Delsarte 1973), so F at distance k is
    2^-d sum_l K_l(k) / sqrt(2(1 + 4gl)).  Each term's 1/sqrt is rounded
    once (_walsh_roots), and the terms, which alternate in sign, are summed
    over exact rationals (a float g is one) and rounded to float once: every
    entry is then within eps * F(0) of the exact root.
    """
    # stratify imports this module, so its names are imported on use.
    from .stratify import krawtchouk

    roots = list(map(Fraction, _walsh_roots(d, g).tolist()))
    scale = Fraction(1, 2**d)
    profile = np.array(
        [
            float(scale * sum(krawtchouk(l, k, d) * roots[l] for l in range(d + 1)))
            for k in range(d + 1)
        ]
    )
    profile.setflags(write=False)
    return profile


def _hypercube_dim(graph: Graph) -> int | None:
    """d if graph is H(d,2) with its bit-string labels, else None: as
    hypercube_graph recorded it, or read off any other graph's edges."""
    if graph._cube is not None:
        return graph._cube
    # The canonical edges are distinct, so d 2^(d-1) of them that each join
    # labels one bit apart are every edge of H(d,2).  Labels are below
    # MAX_VERTICES = 2^12, so their xor is taken in int16: no array of m
    # int64 values is made.
    d = graph.n.bit_length() - 1
    if d >= 1 and graph.n == 1 << d and graph.num_edges == d << (d - 1):
        ends = graph.edges
        bits = np.bitwise_xor(ends[:, 0], ends[:, 1], dtype=np.int16)
        if np.all(np.bitwise_count(bits) == 1):
            return d
    return None


def potential_matrix(graph: Graph, g: float) -> PotentialMatrix:
    """V = I + 2 g L for the graph Laplacian L.

    g >= 0 always yields a positive definite V; mildly negative g is accepted
    as long as definiteness survives (construction verifies it).  NaN and
    infinite g are refused, and so is a g > 0 so strong that 1 + 2g deg_max
    rounds to 2g deg_max in float64: V would be the singular 2g L.  On H(d,2)
    the result carries the profile of the covariance root.
    """
    # Every vertex of H(d,2) has degree d, so its degrees are not counted,
    # and its blocks are written from labels, so its edges are not read.
    d = _hypercube_dim(graph)
    degrees = graph.degrees() if d is None else np.full(graph.n, d)
    g = _check_coupling(g, int(degrees.max()))
    c = 2.0 * g
    edges = graph.edges if d is None else None
    try:
        out = PotentialMatrix._from_graph(edges, c, c * degrees + 1.0, d)
    except DefinitenessError as exc:
        raise _definiteness_hint(exc, g) from None
    if d is not None:
        object.__setattr__(out, "profile", _root_profile(d, g))
    return out


def _check_coupling(g, deg_max: int) -> float:
    """g as a float, refused when NaN or infinite, or when g > 0 is so strong
    that 1 + 2g deg_max rounds to 2g deg_max in float64."""
    g = float(g)
    if not math.isfinite(g):
        raise DomainError("coupling g = %r must be finite" % g)
    top = 2.0 * g * deg_max
    # NaN compares false, so an overflowing 2g is refused here too.
    if g > 0.0 and not 1.0 + top > top:
        raise DomainError(
            "coupling g = %r is too strong for float64: 1 + 2g*%d rounds "
            "to 2g*%d, so V = I + 2gL is singular" % (g, deg_max, deg_max)
        )
    return g


def _definiteness_hint(exc: DefinitenessError, g: float) -> DefinitenessError:
    """exc with the likely cause for coupling g: for g >= 0, V is positive
    definite in exact arithmetic, and only rounding at strong coupling can
    fail the gate."""
    hint = "g too negative?" if g < 0 else "g = %r too strong for float64?" % g
    return DefinitenessError("%s (%s)" % (exc, hint))


def hamming_weights(d: int) -> np.ndarray:
    """Hamming weight of every d-bit label 0..2^d-1."""
    d = _check_hypercube_dim(d)
    idx = np.arange(1 << d, dtype=np.int64)
    w = np.zeros(1 << d, dtype=np.int64)
    for a in range(d):
        w += (idx >> a) & 1
    return w


def cut_name(name: str) -> str:
    """Canonical name of a named hypercube cut, from any accepted spelling."""
    try:
        return CUT_NAMES[name]
    except (KeyError, TypeError):
        raise SchemeError(
            "unknown scheme %r (choose from %s)" % (name, ", ".join(CUT_NAMES))
        ) from None


def _hyperplane_cut(d: int, normal: int) -> Bipartition:
    """The cut of H(d,2) whose side A is {x : normal.x = 0 mod 2}."""
    side_a = hamming_weights(d)[np.arange(1 << d) & normal] % 2 == 0
    return Bipartition.from_side_a(1 << d, np.flatnonzero(side_a).tolist())


def named_bipartition(d: int, scheme: str, axis: int | None = None) -> Bipartition:
    """One of the structured equal bipartitions of H(d,2).

    scheme is any spelling in CUT_NAMES:

    parity_cut   side A = even Hamming weight labels.
    identity_cut side A = labels with bit `axis` clear (axis defaults to 0);
                 this is the cut between two opposite facets.
    half_strata  side A = strata 0..(d-1)/2, defined only for odd d.

    The first two are hyperplane cuts.  axis is refused with any scheme but
    identity_cut.
    """
    scheme = cut_name(scheme)
    if axis is not None and scheme != "identity_cut":
        raise SchemeError("axis applies only to the coordinate cut, not %s" % scheme)
    d = _check_hypercube_dim(d)
    if scheme == "half_strata":
        if d % 2 == 0:
            raise SchemeError("half_strata is defined only for odd d")
        side_a = np.flatnonzero(hamming_weights(d) <= (d - 1) // 2)
        return Bipartition.from_side_a(1 << d, side_a.tolist())
    normal = (1 << d) - 1
    if scheme == "identity_cut":
        if axis is None:
            axis = 0
        elif (axis := _integer(axis)) is None:
            raise SchemeError("coordinate axis must be an integer")
        if not 0 <= axis < d:
            raise SchemeError("coordinate axis %r out of range for d=%d" % (axis, d))
        normal = 1 << axis
    return _hyperplane_cut(d, normal)

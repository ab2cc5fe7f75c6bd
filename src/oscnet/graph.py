"""Graphs, ground-state potential matrices, and named bipartitions.

Vertices are integers 0..n-1.  For the d-dimensional hypercube the label of a
vertex is read as a d-bit string, bit a giving the coordinate along axis a,
so vertex 0 is the all-zeros corner and Hamming weight stratifies the graph
into distance shells around it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DefinitenessError,
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
    """Undirected simple graph with a canonical edge array.

    edges is an (m, 2) int64 array with i < j in every row, sorted
    lexicographically and free of duplicates.  Instances compare equal iff
    vertex count and edge arrays match exactly.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise GraphSizeError("vertex count must be a positive integer")
        if self.n > MAX_VERTICES:
            raise GraphSizeError(
                "vertex count %d exceeds the supported maximum %d"
                % (self.n, MAX_VERTICES)
            )
        e = np.asarray(self.edges, dtype=np.int64)
        if e.ndim != 2 or e.shape[1] != 2:
            raise EdgeListError("edge array must have shape (m, 2)")
        object.__setattr__(self, "edges", e)
        if e.shape[0]:
            if e.min() < 0 or e.max() >= self.n:
                raise EdgeListError("edge endpoint out of range")
            if not (e[:, 0] < e[:, 1]).all():
                raise EdgeListError("edges must satisfy i < j (no self-loops)")
        e.setflags(write=False)

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
        return np.bincount(self.edges.ravel(), minlength=self.n).astype(np.int64)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix."""
        a = np.zeros((self.n, self.n))
        if self.num_edges:
            i, j = self.edges[:, 0], self.edges[:, 1]
            a[i, j] = 1.0
            a[j, i] = 1.0
        return a


def _vertex_labels(side) -> list:
    """The labels of one side as ints; non-integer labels are refused rather
    than truncated."""
    try:
        return [operator.index(v) for v in side]
    except TypeError:
        raise ValueError("vertex labels must be integers") from None


@dataclass(frozen=True)
class Bipartition:
    """A two-sided split of vertices 0..n-1 into non-empty sides A and B."""

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
        """Build a bipartition of 0..n-1 from one side."""
        side_a = _vertex_labels(side_a)
        if any(v < 0 or v >= n for v in side_a):
            raise ValueError("side A vertex out of range")
        chosen = set(side_a)
        return cls(side_a, [v for v in range(n) if v not in chosen])

    @property
    def n(self) -> int:
        return len(self.side_a) + len(self.side_b)


@dataclass(frozen=True, eq=False)
class PotentialMatrix:
    """Ground-state potential matrix V = I + 2g L, certified positive definite.

    The Gaussian ground state of the coupled-oscillator Hamiltonian has
    wavefunction proportional to exp(-x^T V x / 2); everything downstream
    (entropy engines, censuses) consumes this object or its .matrix.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = self.certify(self.matrix)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    # The gate is a static method rather than a module function so that
    # perfbench/tracer.py, which wraps module functions only, counts its time
    # in the caller's layer.

    @staticmethod
    def certify(v) -> np.ndarray:
        """v as a square float array, certified symmetric within
        SYMMETRY_TOL and positive definite above EIG_FLOOR.

        Symmetry is one pass over pairs of square tiles, each compared with
        the transpose of its mirror; NaN and inf never pass.  Definiteness
        is one Cholesky factorization of v - EIG_FLOOR I; by Cauchy
        interlacing every principal block of v then clears the floor too.
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
        shifted = m.copy()
        shifted[np.diag_indices_from(shifted)] -= EIG_FLOOR
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            raise DefinitenessError(
                "potential matrix is not positive definite (g too negative?)"
            ) from None
        return m

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _check_hypercube_dim(d):
    if not isinstance(d, int) or not 1 <= d <= MAX_HYPERCUBE_DIM:
        raise GraphSizeError(
            "hypercube dimension must be an integer in 1..%d" % MAX_HYPERCUBE_DIM
        )


def hypercube_graph(d: int) -> Graph:
    """The binary hypercube H(d,2): 2^d vertices, edges between labels at
    Hamming distance 1."""
    _check_hypercube_dim(d)
    n = 1 << d
    idx = np.arange(n, dtype=np.int64)
    blocks = []
    for a in range(d):
        lo = idx[(idx >> a) & 1 == 0]
        blocks.append(np.column_stack([lo, lo | (1 << a)]))
    edges = np.vstack(blocks)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return Graph(n, edges[order])


def graph_from_edge_list(text: str) -> Graph:
    """Parse a plain-text edge list.

    One edge per line as two whitespace-separated non-negative integers.
    Blank lines are skipped and '#' starts a comment.  The vertex count is
    one plus the largest index mentioned; duplicate edges (in either
    orientation) collapse to one.
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
        pairs.append((min(i, j), max(i, j)))
    if not pairs:
        raise EdgeListError("edge list contains no edges")
    edges = np.array(sorted(set(pairs)), dtype=np.int64)
    n = int(edges.max()) + 1
    return Graph(n, edges)


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


def potential_matrix(graph: Graph, g: float) -> PotentialMatrix:
    """V = I + 2 g L for the graph Laplacian L.

    g >= 0 always yields a positive definite V; mildly negative g is accepted
    as long as definiteness survives (construction verifies it).
    """
    c = 2.0 * float(g)
    # Off the diagonal V = c * -A, so a non-edge holds the signed zero c * -0.0.
    v = np.full((graph.n, graph.n), c * -0.0)
    i, j = graph.edges[:, 0], graph.edges[:, 1]
    v[i, j] = v[j, i] = -c
    v[np.diag_indices(graph.n)] = c * graph.degrees() + 1.0
    return PotentialMatrix(v)


def hamming_weights(d: int) -> np.ndarray:
    """Hamming weight of every d-bit label 0..2^d-1."""
    _check_hypercube_dim(d)
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


def named_bipartition(d: int, scheme: str, axis: int | None = None) -> Bipartition:
    """One of the structured equal bipartitions of H(d,2).

    scheme is any spelling in CUT_NAMES:

    parity_cut   side A = even Hamming weight labels.
    identity_cut side A = labels with bit `axis` clear (axis defaults to 0);
                 this is the cut between two opposite facets.
    half_strata  side A = strata 0..(d-1)/2, defined only for odd d.
    """
    scheme = cut_name(scheme)
    w = hamming_weights(d)
    n = 1 << d
    if scheme == "parity_cut":
        side_a = np.flatnonzero(w % 2 == 0)
    elif scheme == "identity_cut":
        if axis is None:
            axis = 0
        if not 0 <= axis < d:
            raise SchemeError("coordinate axis %r out of range for d=%d" % (axis, d))
        idx = np.arange(n, dtype=np.int64)
        side_a = np.flatnonzero((idx >> axis) & 1 == 0)
    else:
        if d % 2 == 0:
            raise SchemeError("half_strata is defined only for odd d")
        side_a = np.flatnonzero(w <= (d - 1) // 2)
    return Bipartition.from_side_a(n, side_a.tolist())

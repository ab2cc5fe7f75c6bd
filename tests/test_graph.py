"""Graph construction, potential matrices, named bipartitions."""

import copy
import functools
import math
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oscnet import (
    Bipartition,
    DefinitenessError,
    EdgeListError,
    Graph,
    GraphSizeError,
    PotentialMatrix,
    SchemeError,
    entropy_census,
    entropy_of_bipartition,
    entropy_oracle_symplectic,
    gamma_spectrum,
    graph_from_edge_list,
    graph_from_uri,
    hamming_weights,
    hypercube_graph,
    named_bipartition,
    potential_matrix,
    stratified_adjacency,
)
from oscnet import graph as graph_module
from oscnet.cosets import _translation_stabiliser
from oscnet.graph import CERTIFY_LEAF, EIG_FLOOR, _lower_factor, _shifted_diagonal


def test_hypercube_small_cases():
    g1 = hypercube_graph(1)
    assert g1.n == 2
    assert g1.num_edges == 1
    assert g1.edges.tolist() == [[0, 1]]

    g3 = hypercube_graph(3)
    assert g3.n == 8
    assert g3.num_edges == 12
    assert (g3.degrees() == 3).all()

    g4 = hypercube_graph(4)
    assert g4.n == 16
    assert g4.num_edges == 32
    assert (g4.degrees() == 4).all()


def test_hypercube_edge_count_and_regularity():
    for d in range(1, 9):
        g = hypercube_graph(d)
        assert g.num_edges == d * 2 ** (d - 1)
        assert (g.degrees() == d).all()
        # neighbors differ in exactly one bit
        diff = g.edges[:, 0] ^ g.edges[:, 1]
        assert (diff & (diff - 1) == 0).all()


def test_hypercube_dimension_bounds():
    # 2^12 = 4096 vertices is the largest graph
    assert hypercube_graph(12).n == 4096
    for bad in (0, -1, 13, 21):
        with pytest.raises(GraphSizeError):
            hypercube_graph(bad)
        with pytest.raises(GraphSizeError):
            hamming_weights(bad)
        with pytest.raises(GraphSizeError):
            stratified_adjacency(bad)
    with pytest.raises(GraphSizeError):
        named_bipartition(13, "parity")


def test_vertex_count_limit():
    assert graph_from_edge_list("0 4095\n").n == 4096
    with pytest.raises(GraphSizeError):
        graph_from_edge_list("0 4096\n")


def test_hypercube_automorphism_invariance():
    # XOR masks and coordinate permutations are graph automorphisms
    rng = np.random.default_rng(7)
    d = 4
    g = hypercube_graph(d)
    a = g.adjacency_matrix()
    idx = np.arange(g.n)
    for _ in range(20):
        mask = int(rng.integers(0, g.n))
        perm = rng.permutation(d)
        relabeled = np.zeros_like(idx)
        for a_bit in range(d):
            relabeled |= ((idx >> a_bit) & 1) << int(perm[a_bit])
        relabeled ^= mask
        assert np.array_equal(a[np.ix_(relabeled, relabeled)], a)


@pytest.mark.parametrize(
    "n, edges, error, message",
    [
        (0, np.zeros((0, 2)), GraphSizeError, "positive integer"),
        (2.0, [[0, 1]], GraphSizeError, "positive integer"),
        (4097, [[0, 1]], GraphSizeError, "exceeds"),
        (3, [0, 1], EdgeListError, "shape"),
        (3, [[0, 1, 2]], EdgeListError, "shape"),
        (3, [[0, 3]], EdgeListError, "out of range"),
        (3, [[-1, 2]], EdgeListError, "out of range"),
        (3, [[0, 1], [2, 2]], EdgeListError, "self-loop on vertex 2"),
        (3, [[0.7, 2.2]], EdgeListError, "integers"),
        (3, np.array([[True, False]]), EdgeListError, "integers"),
    ],
)
def test_graph_refuses_malformed_input(n, edges, error, message):
    with pytest.raises(error, match=message):
        Graph(n, edges)


def test_graph_canonicalizes_its_edges():
    # A reversed pair names the same edge, as it does in an edge-list file.
    assert Graph(3, [[1, 0]]).edges.tolist() == [[0, 1]]
    assert Graph(2, [[1, 0]]) == graph_from_edge_list("1 0\n")
    # A repeated edge is one edge: V counts it once on the diagonal and once
    # off it, so V is that of the graph.
    doubled = Graph(2, [[0, 1], [0, 1], [1, 0]])
    assert doubled == hypercube_graph(1) and doubled.num_edges == 1
    assert potential_matrix(doubled, 0.5).matrix.tolist() == [[2, -1], [-1, 2]]
    assert Graph(3, [[0, 1]]) != Graph(3, [[1, 2]])
    assert Graph(3, [[0, 1]]) != Graph(4, [[0, 1]])
    # An empty edge array has no endpoint to refuse, whatever its dtype.
    for dtype in (float, bool, np.uint8):
        assert Graph(3, np.zeros((0, 2), dtype=dtype)).edges.dtype == np.int64
    # The caller's array is read, never reordered or frozen, even when it is
    # canonical already; the graph's own edges are read-only.
    edges = hypercube_graph(3).edges
    for raw in (edges[::-1, ::-1].copy(), edges.copy()):
        before = raw.copy()
        cube = Graph(8, raw)
        assert raw.flags.writeable and np.array_equal(raw, before)
        assert not np.shares_memory(raw, cube.edges)
        with pytest.raises(ValueError):
            cube.edges[0, 0] = 1
    # A read-only canonical array that owns its data, such as another
    # graph's edges, is kept; a read-only view of a writeable array is not.
    assert Graph(8, cube.edges).edges is cube.edges
    view = raw[:]
    view.setflags(write=False)
    assert not np.shares_memory(Graph(8, view).edges, raw)


def test_any_listing_of_the_cube_is_the_cube():
    rng = np.random.default_rng(4)
    cube = hypercube_graph(4)
    rows = cube.edges[np.concatenate([np.arange(cube.num_edges), [0, 5, 5, 31]])]
    rows = rows[rng.permutation(len(rows))]
    flip = rng.random(len(rows)) < 0.5
    rows[flip] = rows[flip, ::-1]
    listed = Graph(16, rows)
    assert listed == cube and hash(listed) == hash(cube)
    v, w = potential_matrix(cube, 0.5), potential_matrix(listed, 0.5)
    assert w.profile is not None and w.profile.tobytes() == v.profile.tobytes()
    assert w.matrix.tobytes() == v.matrix.tobytes()
    cut = named_bipartition(4, "parity")
    assert entropy_of_bipartition(w, cut) == entropy_of_bipartition(v, cut)
    assert entropy_oracle_symplectic(w, cut.side_a) == entropy_oracle_symplectic(
        v, cut.side_a
    )


def test_edge_list_parsing():
    g = graph_from_edge_list("0 1\n1 2\n")
    assert g.n == 3
    assert g.edges.tolist() == [[0, 1], [1, 2]]

    # duplicate orientation and comments collapse
    g = graph_from_edge_list("0 1\n1 0\n# comment line\n\n")
    assert g.num_edges == 1


def test_edge_list_errors_carry_line_numbers():
    cases = [
        ("0 1\n0\n", 2),
        ("0 1 2\n", 1),
        ("0 x\n", 1),
        ("0 1\n-1 2\n", 2),
        ("3 3\n", 1),
    ]
    for text, lineno in cases:
        with pytest.raises(EdgeListError) as err:
            graph_from_edge_list(text)
        assert "line %d" % lineno in str(err.value)
    with pytest.raises(EdgeListError):
        graph_from_edge_list("# only comments\n")


def _cube_pairs(d):
    """The edges of H(d,2) pair by pair: (i, i xor 2^a) with i < j, sorted."""
    pairs = [(i, i ^ (1 << a)) for i in range(1 << d) for a in range(d)]
    return sorted((i, j) for i, j in pairs if i < j)


@pytest.mark.parametrize("d", range(1, 13))
def test_hypercube_edges_are_its_sorted_canonical_pairs(d):
    want = np.array(_cube_pairs(d), dtype=np.int64)
    cube = hypercube_graph(d)
    assert cube.edges.dtype == np.int64 and np.array_equal(cube.edges, want)
    # Shuffled, reoriented and partly repeated, the listing is the same graph
    # with the same canonical array.
    rng = np.random.default_rng(d)
    rows = want[np.concatenate([np.arange(len(want)), rng.integers(0, len(want), 7)])]
    rows = rows[rng.permutation(len(rows))]
    flip = rng.random(len(rows)) < 0.5
    rows[flip] = rows[flip, ::-1]
    listed = Graph(cube.n, rows)
    assert np.array_equal(listed.edges, want) and listed == cube
    # Rows that each have i < j are kept as they are only when they are
    # also sorted and free of repeats.
    assert np.array_equal(Graph(cube.n, np.sort(rows, axis=1)).edges, want)


@pytest.mark.parametrize("d", [1, 2, 7, 12])
def test_potential_matrix_recognises_a_hypercube_read_from_a_file(tmp_path, d):
    path = tmp_path / "cube.txt"
    path.write_text("".join("%d %d\n" % (j, i) for i, j in reversed(_cube_pairs(d))))
    v = potential_matrix(graph_from_uri("file:%s" % path), 0.5)
    want = potential_matrix(hypercube_graph(d), 0.5)
    assert v.profile is not None and v.profile.tobytes() == want.profile.tobytes()


@pytest.mark.parametrize("d", [2, 3, 8])
def test_potential_matrix_refuses_a_hypercube_with_two_labels_swapped(d):
    # Swapping labels 0 and 1 gives an isomorphic graph, but vertex 1 then
    # neighbours 2, two bits away: its labels are not H(d,2)'s bit strings.
    swap = np.arange(1 << d)
    swap[[0, 1]] = [1, 0]
    swapped = Graph(1 << d, swap[np.array(_cube_pairs(d))])
    assert swapped.num_edges == d << (d - 1) and swapped != hypercube_graph(d)
    assert potential_matrix(swapped, 0.5).profile is None


def _graph_facts(graph):
    """What a graph shows through its public attributes and methods, as
    bytes where they are arrays; the dense adjacency only up to n = 1024."""
    e, deg = graph.edges, graph.degrees()
    facts = [graph.n, hash(graph), graph.num_edges, e.dtype, e.shape, e.tobytes()]
    facts += [e.flags.writeable, e.flags.owndata, deg.dtype, deg.tobytes()]
    if graph.n <= 1024:
        facts.append(graph.adjacency_matrix().tobytes())
    return facts


def _round_trips(graph):
    return [graph, pickle.loads(pickle.dumps(graph)), copy.deepcopy(graph)]


@pytest.mark.parametrize("d", range(1, 13))
def test_a_hypercube_graph_is_the_graph_of_its_edges(tmp_path, d):
    # hypercube_graph(d) writes its edges on first read; the graph, fresh
    # or after a pickle or deepcopy round trip of a fresh or written one,
    # is the graph built from its pairs one by one or read from a file.
    pairs = _cube_pairs(d)
    eager = Graph(1 << d, np.array(pairs, dtype=np.int64))
    path = tmp_path / "cube.txt"
    path.write_text("".join("%d %d\n" % (j, i) for i, j in reversed(pairs)))
    read = graph_from_uri("file:%s" % path)
    assert not eager.edges.flags.writeable and eager.edges.flags.owndata
    want = _graph_facts(eager)
    written = hypercube_graph(d)
    written.edges
    for graph in _round_trips(eager) + _round_trips(read) + _round_trips(written):
        assert _graph_facts(graph) == want
    for make in (
        lambda: hypercube_graph(d),
        lambda: pickle.loads(pickle.dumps(hypercube_graph(d))),
        lambda: copy.deepcopy(hypercube_graph(d)),
    ):
        assert "edges" not in vars(make())
        assert make() == eager and eager == make() and make() == read
        assert hash(make()) == hash(eager)
        assert make().num_edges == eager.num_edges
        assert make().degrees().tobytes() == eager.degrees().tobytes()
        assert _graph_facts(make()) == want
    # Its V is that of the eager and the file graph, bit for bit, and so is
    # the verdict near g = -1/(4d), where lambda_min(V) = 1 + 4gd is zero.
    rng = np.random.default_rng(d)
    edge = -1.0 / (4 * d)
    refused = []
    for g in (0.5, edge * (1 - 1e-9), edge * (1 - 1e-14), edge, edge * (1 + 1e-9)):
        rows, cols = (rng.permutation(1 << d)[:200] for _ in range(2))
        verdicts = []
        for graph in (hypercube_graph(d), eager, read):
            try:
                v = potential_matrix(graph, g)
            except DefinitenessError as exc:
                verdicts.append(str(exc))
                continue
            facts = [v.n, v.profile.tobytes(), v.block(rows, cols).tobytes()]
            if d <= 8:
                facts.append(v.matrix.tobytes())
            verdicts.append(facts)
        assert verdicts[0] == verdicts[1] == verdicts[2], g
        refused.append(isinstance(verdicts[0], str))
    assert refused == [False, False, True, True, True]


def _refuse_edges(d):
    raise AssertionError("the edges of H(%d,2) were written" % d)


def test_the_routes_of_a_hypercube_write_no_edges(monkeypatch):
    monkeypatch.setattr(graph_module, "_hypercube_edges", _refuse_edges)
    # The H(10,2) parity cut takes the translation sectors, and the H(8,2)
    # parity side A with vertex 0 swapped for vertex 1 the dense routes.
    parity = named_bipartition(10, "parity")
    a = [1] + list(named_bipartition(8, "parity").side_a[1:])
    swapped = Bipartition.from_side_a(256, a)
    assert swapped._quotient is None
    for d, cut in ((10, parity), (8, swapped)):
        cube = hypercube_graph(d)
        v = potential_matrix(cube, 0.5)
        assert v._edges is None and v._cube == d
        gamma_spectrum(v, cut)
        entropy_oracle_symplectic(v, cut)
        assert "edges" not in vars(cube)
    cube = hypercube_graph(4)
    assert len(entropy_census(cube, 0.5).classes) > 1
    assert "edges" not in vars(cube)
    # Read at last, the edges are written then.
    monkeypatch.undo()
    assert cube.edges.shape == (32, 2) and "edges" in vars(cube)


def test_a_hypercube_and_its_potential_hold_little_memory():
    # hypercube_graph(12) and its V: 0.09 MiB traced, V's diagonal and its
    # temporaries, where writing and scanning the 24,576 edges took
    # 0.85 MiB.
    potential_matrix(hypercube_graph(12), 0.5)
    tracemalloc.start()
    try:
        potential_matrix(hypercube_graph(12), 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.11 * 2**20


def test_graph_uri(tmp_path):
    assert graph_from_uri("hypercube:3") == hypercube_graph(3)
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n1 2\n2 3\n")
    g = graph_from_uri("file:%s" % path)
    assert g.n == 4 and g.num_edges == 3
    with pytest.raises(ValueError):
        graph_from_uri("lattice:3")
    with pytest.raises(ValueError, match="graph URI must look like"):
        graph_from_uri("hypercube3")
    with pytest.raises(GraphSizeError):
        graph_from_uri("hypercube:x")


def test_potential_matrix_values():
    v = potential_matrix(hypercube_graph(1), 0.5)
    assert np.allclose(v.matrix, [[2.0, -1.0], [-1.0, 2.0]])

    v0 = potential_matrix(hypercube_graph(3), 0.0)
    assert np.allclose(v0.matrix, np.eye(8))

    # brute-force recomputation from adjacency
    g = hypercube_graph(3)
    a = g.adjacency_matrix()
    expect = np.eye(8) + 2 * 0.5 * (np.diag(a.sum(axis=1)) - a)
    assert np.allclose(potential_matrix(g, 0.5).matrix, expect)

    # irregular degrees: a star on 0..3 joined to the path 3-4-5-6
    star_path = graph_from_edge_list("0 1\n0 2\n0 3\n3 4\n4 5\n5 6\n")
    a = star_path.adjacency_matrix()
    for coupling in (0.0, 0.1, 1.0 / 3.0, 0.5, 1e8, -0.01):
        expect = np.eye(7) + 2 * coupling * (np.diag(a.sum(axis=1)) - a)
        assert np.array_equal(potential_matrix(star_path, coupling).matrix, expect)


def test_potential_matrix_definiteness():
    g = hypercube_graph(2)
    # slightly negative coupling keeps 1 + 2 g lambda_max positive
    v = potential_matrix(g, -0.05)
    assert np.linalg.eigvalsh(v.matrix).min() > 0
    with pytest.raises(DefinitenessError):
        potential_matrix(g, -0.2)


def test_certify_leaves_the_input_bit_identical():
    # On these diagonals d, (d - EIG_FLOOR) + EIG_FLOOR != d: only putting
    # the saved diagonal back restores them.
    for diagonal, definite in (([1.0, 2.925540438987424e-12], True), ([1.0, 1e-20], False)):
        v = np.diag(diagonal)
        v[0, 1] = v[1, 0] = 1e-13
        shifted = (v.diagonal() - EIG_FLOOR) + EIG_FLOOR
        assert not np.array_equal(shifted, v.diagonal())
        before = v.tobytes()
        if definite:
            assert PotentialMatrix(v).matrix is v
        else:
            with pytest.raises(DefinitenessError):
                PotentialMatrix(v)
            assert v.flags.writeable
        assert v.tobytes() == before
    # A read-only input is certified through a copy, never written.
    frozen = np.diag([1.0, 2.925540438987424e-12])
    frozen.setflags(write=False)
    assert PotentialMatrix(frozen).matrix is frozen
    frozen = np.diag([1.0, 1e-20])
    frozen.setflags(write=False)
    with pytest.raises(DefinitenessError):
        PotentialMatrix(frozen)


def _halved_certify_cases(n, rng):
    """Symmetric n x n matrices and the verdict each should get: smallest
    eigenvalue well above EIG_FLOOR, below 0, between 0 and EIG_FLOOR, and
    twice EIG_FLOOR, where the shift leaves a margin of one EIG_FLOOR;
    one whose halves V_11 and V_22 are definite while the Schur complement
    V_22 - V_21 V_11^{-1} V_12 is not; and two with a diagonal entry on
    which the shift by EIG_FLOOR does not round-trip."""
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    cases = []
    for low, definite in (
        (1e-3, True),
        (-1e-3, False),
        (EIG_FLOOR / 2, False),
        (2 * EIG_FLOOR, True),
    ):
        eigenvalues = np.concatenate([[low], rng.uniform(0.5, 1.5, n - 1)])
        v = (q * eigenvalues) @ q.T
        cases.append(((v + v.T) / 2, definite))
    # Rotating each half of [[I, C], [C^T, I]] keeps both halves near I, but
    # C's singular value 1.5 gives V the eigenvalue 1 - 1.5 = -0.5.
    h = n // 2
    couple = np.zeros((h, n - h))
    couple[0, 0] = 1.5
    couple[np.arange(1, h), np.arange(1, h)] = 0.5
    q1 = np.linalg.qr(rng.standard_normal((h, h)))[0]
    q2 = np.linalg.qr(rng.standard_normal((n - h, n - h)))[0]
    rotation = np.zeros((n, n))
    rotation[:h, :h] = q1
    rotation[h:, h:] = q2
    v = rotation @ np.block([[np.eye(h), couple], [couple.T, np.eye(n - h)]])
    v = v @ rotation.T
    v = (v + v.T) / 2
    np.linalg.cholesky(v[:h, :h])
    np.linalg.cholesky(v[h:, h:])
    cases.append((v, False))
    # The diagonals of the n = 2 bit-identity test, on a row and column cut
    # off from the rest of a definite v.
    for tiny, definite in ((2.925540438987424e-12, True), (1e-20, False)):
        assert (tiny - EIG_FLOOR) + EIG_FLOOR != tiny
        v = cases[0][0].copy()
        v[-1, :] = v[:, -1] = 0.0
        v[-1, -1] = tiny
        cases.append((v, definite))
    return cases


@pytest.mark.parametrize("n", [1024, 2 * CERTIFY_LEAF + 3, CERTIFY_LEAF + 1])
def test_certify_by_halves_gives_the_verdict_of_one_cholesky(n):
    rng = np.random.default_rng(n)
    for v, definite in _halved_certify_cases(n, rng):
        try:
            np.linalg.cholesky(v - EIG_FLOOR * np.eye(n))
            whole = True
        except np.linalg.LinAlgError:
            whole = False
        assert whole == definite
        before = v.tobytes()
        frozen = v.copy()
        frozen.setflags(write=False)
        if definite:
            assert PotentialMatrix(v).matrix is v
            assert PotentialMatrix(frozen).matrix is frozen
        else:
            with pytest.raises(DefinitenessError):
                PotentialMatrix(v)
            assert v.flags.writeable
            with pytest.raises(DefinitenessError):
                PotentialMatrix(frozen)
        assert v.tobytes() == before
        assert frozen.tobytes() == before


@pytest.mark.parametrize("n", [2 * CERTIFY_LEAF + 3, CERTIFY_LEAF + 1, 7])
def test_a_stack_is_factored_as_each_of_its_matrices(n):
    # Leaves and halves index the last two axes, so each factor of a stack
    # has the bits of its matrix factored alone, and one matrix that is not
    # definite refuses the stack.
    rng = np.random.default_rng(n)
    cases = _halved_certify_cases(n, rng)
    definite = [v for v, ok in cases if ok]
    alone = [_lower_factor(v.copy(), n) for v in definite]
    assert _lower_factor(np.stack(definite), n).tobytes() == np.stack(alone).tobytes()
    for v, ok in cases:
        if not ok:
            with pytest.raises(DefinitenessError):
                _lower_factor(np.stack(definite + [v]), n, whole=False)


def _spy_on_cholesky(monkeypatch):
    """A list that records the shape, column-major flag and diagonal of
    every operand np.linalg.cholesky is given from now on."""
    factored = []
    cholesky = np.linalg.cholesky

    def spy(a):
        factored.append((a.shape, a.flags.f_contiguous, a.diagonal().copy()))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    return factored


def test_certify_never_factors_more_than_a_leaf(monkeypatch):
    factored = _spy_on_cholesky(monkeypatch)
    v = potential_matrix(hypercube_graph(10), 0.5).matrix
    monkeypatch.undo()
    assert factored and max(shape[0] for shape, _, _ in factored) <= CERTIFY_LEAF
    # One factor of all of V would be as large as V; certification by
    # halves holds blocks of at most half its order at a time.  numpy's
    # own LAPACK work buffers are not traced.
    work = np.array(v)
    tracemalloc.start()
    try:
        PotentialMatrix.certify(work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * v.nbytes


def test_a_hypercube_is_certified_by_one_leaf_of_its_smallest_eigenvalue(monkeypatch):
    # lambda_min(V) = D - |c| d is known exactly, so every hypercube is
    # certified by one column-major 1 x 1 leaf, whatever its order.
    factored = _spy_on_cholesky(monkeypatch)
    for d in range(1, 13):
        factored.clear()
        potential_matrix(hypercube_graph(d), 0.5)
        assert [(shape, f) for shape, f, _ in factored] == [((1, 1), True)], d
    # One H(10,2) edge short, the graph is no hypercube: it is certified by
    # halves, four leaves, and gets no root table.
    cube = hypercube_graph(10)
    near = Graph(cube.n, cube.edges[1:])
    factored.clear()
    assert potential_matrix(near, 0.5).profile is None
    assert [shape for shape, _, _ in factored] == [(CERTIFY_LEAF, CERTIFY_LEAF)] * 4
    monkeypatch.undo()
    # Halving solves its fresh top-level a_12 in place: 2.51 blocks of
    # (n/2) x (n/2) measured, where solving a copy of it took 3.51.
    tracemalloc.start()
    try:
        potential_matrix(near, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (near.n // 2) ** 2 * 8
    # The certificate of H(12,2) holds no block: 0.09 MiB traced, the
    # diagonal and the hypercube test's int16 edge temporaries, where int64
    # ones and the counted degrees took 0.59 MiB, the 256 x 256 leaf of its
    # low sub-cube 1.07 MiB and halving all of its V 85 MiB.
    cube = hypercube_graph(12)
    potential_matrix(cube, 0.5)
    tracemalloc.start()
    try:
        potential_matrix(cube, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.15 * 2**20


def _dense_potential(graph, g):
    """V = I + 2g L of graph written densely from its adjacency matrix,
    entry by entry as potential_matrix writes it."""
    c = 2.0 * g
    v = np.where(graph.adjacency_matrix() == 1.0, -c, c * -0.0)
    v[np.diag_indices(graph.n)] = c * graph.degrees() + 1.0
    return v


def _label_potential(d, g, rows, cols):
    """V[rows][:, cols] of H(d,2) from the labels alone: 1 + 2gd where
    x = y, -2g where x xor y is a power of two, the signed zero 2g * -0.0
    elsewhere."""
    c = 2.0 * g
    x = rows[:, None] ^ cols
    out = np.where(x & (x - 1) == 0, -c, c * -0.0)
    out[x == 0] = c * d + 1.0
    return out


@pytest.mark.parametrize("g", [0.5, -0.01])
def test_hypercube_blocks_are_written_from_labels(g):
    # The neighbours of x are x xor 2^a, so no edge is read: V holds none,
    # and still writes every block bit for bit, signed zeros included
    # (2g * -0.0 is -0.0 for g > 0 and +0.0 for g < 0).
    rng = np.random.default_rng(31)
    for d in range(1, 13):
        n = 1 << d
        v = potential_matrix(hypercube_graph(d), g)
        assert v._edges is None and v._cube == d
        for _ in range(3):
            rows, cols = (
                rng.choice(n, size=int(rng.integers(0, min(n, 300) + 1)), replace=False)
                for _ in range(2)
            )
            block = v.block(rows, cols)
            want = _label_potential(d, g, rows, cols)
            assert np.array_equal(block, want), d
            assert np.array_equal(np.signbit(block), np.signbit(want)), d
        if d <= 8:
            assert np.array_equal(v.matrix, _dense_potential(hypercube_graph(d), g))


def test_a_hypercube_block_holds_little_beside_itself():
    # The 256-row block of H(12,2): 0.64 MiB traced, the 0.5 MiB block, two
    # 32 KiB position maps and the 256 x 12 neighbour labels, where a scan
    # of all 24,576 edges held 1.34 MiB.
    v = potential_matrix(hypercube_graph(12), 0.5)
    low = np.arange(256)
    v.block(low, low)
    tracemalloc.start()
    try:
        v.block(low, low)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.7 * 2**20


@pytest.mark.parametrize("d", range(1, 12))
def test_a_hypercube_certificate_gives_the_verdict_of_all_of_v(d):
    graph = hypercube_graph(d)
    assert np.array_equal(
        _dense_potential(graph, 0.5), potential_matrix(graph, 0.5).matrix
    )
    # For g < 0, lambda_min(V) = 1 - 4|g| d crosses EIG_FLOOR at g = -1/(4d).
    edge = -1.0 / (4 * d)
    couplings = [
        sign * g
        for g in (0.0, 1e-8, 0.5, 100.0, 1e8, 1e12, 1e13, 1e14, 4e14, -0.01)
        for sign in (1.0, -1.0)
    ]
    couplings += [
        edge * (1 + s * delta)
        for delta in (1e-9, 1e-12, 1e-14, 1e-15)
        for s in (1, -1)
    ]
    couplings.append(edge)
    verdicts = []
    for g in couplings:
        v = _dense_potential(graph, g)
        v[np.diag_indices(graph.n)] -= EIG_FLOOR
        try:
            np.linalg.cholesky(v)
            whole = True
        except np.linalg.LinAlgError:
            whole = False
        del v
        try:
            potential_matrix(graph, g)
            certified = True
        except DefinitenessError:
            certified = False
        assert certified == whole, g
        # The leaf s, the float at or below the exact lambda_min(V), passes
        # when fl(s - EIG_FLOOR) > 0, that is when s > EIG_FLOOR: the exact
        # verdict everywhere but within one ulp above the floor, where s
        # may round down onto it.
        c = 2.0 * g
        exact = Fraction(c * d + 1.0) - abs(Fraction(c)) * d
        if not EIG_FLOOR < exact <= math.nextafter(EIG_FLOOR, math.inf):
            assert certified == (exact > EIG_FLOOR), g
        verdicts.append(certified)
    assert set(verdicts) == {True, False}


def test_a_hypercube_leaf_diagonal_never_rounds_above_the_exact_shift(monkeypatch):
    # On H(9,2) at g = 0.1 the float nearest the exact lambda_min(V),
    # D - |c| d, lies above it, so the leaf steps down one ulp.
    d, g = 9, 0.1
    c = 2.0 * g
    diagonal = c * d + 1.0
    exact = Fraction(diagonal) - abs(Fraction(c)) * d
    assert Fraction(float(exact)) > exact
    shifted = _shifted_diagonal(diagonal, c, d)
    assert shifted == math.nextafter(float(exact), -math.inf)
    assert Fraction(shifted) <= exact
    factored = _spy_on_cholesky(monkeypatch)
    potential_matrix(hypercube_graph(d), g)
    ((shape, _, leaf),) = factored
    assert shape == (1, 1)
    # The leaf is factored less EIG_FLOOR.
    assert leaf.tolist() == [shifted - EIG_FLOOR]
    assert Fraction(leaf[0]) <= exact
    # A term too large for a float leaves a V that is not definite.
    assert _shifted_diagonal(-math.inf, -math.inf, d) == -math.inf
    assert _shifted_diagonal(-1.7e308, -1.7e308, d) == -math.inf


def test_certify_holds_no_copy_of_a_read_only_v():
    # The floor is subtracted on copies of the leaves, never on v, so a
    # read-only v needs no copy: 5.13 MiB traced for this 8 MiB v, where
    # copying all of it to shift its diagonal took 13.14 MiB.
    v = potential_matrix(hypercube_graph(10), 0.5).matrix
    assert not v.flags.writeable
    PotentialMatrix.certify(v)
    tracemalloc.start()
    try:
        assert PotentialMatrix.certify(v) is v
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * v.nbytes


def test_a_graph_built_v_is_never_dense_on_the_cut_path(monkeypatch):
    # Certification reads one leaf of V from the graph, so it holds less
    # than one n x n array; the engine and the table oracle read blocks.
    graph = hypercube_graph(10)
    potential_matrix(hypercube_graph(2), 0.5)
    tracemalloc.start()
    try:
        v = potential_matrix(graph, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < graph.n**2 * 8
    assert peak <= 3 * (graph.n // 2) ** 2 * 8

    def refuse(self):
        raise AssertionError("the dense V was built")

    # A non-data descriptor, like the one it replaces: a V built from an
    # array, such as a translation sector's block, keeps its own matrix.
    refusing = functools.cached_property(refuse)
    refusing.__set_name__(PotentialMatrix, "matrix")
    monkeypatch.setattr(PotentialMatrix, "matrix", refusing)
    cut = named_bipartition(10, "parity")
    gamma_spectrum(v, cut)
    # One vertex swapped across the parity cut leaves no translation that
    # maps side A onto itself, so the engine whitens v's blocks.
    a, b = list(cut.side_a), list(cut.side_b)
    a[0], b[0] = b[0], a[0]
    in_a = np.zeros(graph.n, dtype=bool)
    in_a[a] = True
    assert _translation_stabiliser(10, in_a) == []
    gamma_spectrum(v, Bipartition(a, b))
    entropy_oracle_symplectic(v, cut.side_a)
    monkeypatch.undo()
    # Read at last, all of V is built once, read-only, and kept.
    assert v.matrix is v.matrix and not v.matrix.flags.writeable
    rows = np.array([5, 0, 3])
    assert v.block(rows, rows).tobytes() == v.matrix[np.ix_(rows, rows)].tobytes()


def test_blocks_refuse_a_repeated_vertex():
    v = potential_matrix(hypercube_graph(2), 0.5)
    for w in (v, PotentialMatrix(np.array(v.matrix))):
        with pytest.raises(ValueError, match="distinct"):
            w.block([0, 1, 0], [2])
        with pytest.raises(ValueError, match="distinct"):
            w.block([2], [3, 3])


def test_blocks_refuse_a_label_outside_the_graph():
    # A negative label would wrap around to the last vertices, and a label
    # past n - 1 would fail in numpy's indexing.
    v = potential_matrix(hypercube_graph(2), 0.5)
    for w in (v, PotentialMatrix(np.array(v.matrix))):
        with pytest.raises(ValueError, match="vertices 0..3"):
            w.block([-1], [-1, 0])
        with pytest.raises(ValueError, match="vertices 0..3"):
            w.block([4], [0])
        with pytest.raises(ValueError, match="vertices 0..3"):
            w.block([0], [1, 4])


def test_blocks_take_only_one_dimensional_integer_index_arrays():
    # A bool mask would select rows on the graph route and fail in numpy's
    # indexing on the array route; a float or 2-D array fails on both.
    v = potential_matrix(hypercube_graph(2), 0.5)
    pair = np.array([0, 1])
    bad = (np.ones(4, bool), np.array([True]), np.array([0.0, 1.0]), np.array([[0, 1]]))
    for w in (v, PotentialMatrix(np.array(v.matrix))):
        for idx in bad:
            with pytest.raises(ValueError, match="1-D integer"):
                w.block(idx, pair)
            with pytest.raises(ValueError, match="1-D integer"):
                w.block(pair, idx)
        # An empty index array of any dtype is the empty set.
        for empty in ([], np.array([], dtype=float), np.array([], dtype=bool)):
            assert w.block(empty, pair).shape == (0, 2)
            assert w.block(pair, empty).shape == (2, 0)
        rows, cols = np.array([3], np.uint8), np.array([0, 3], np.int32)
        assert w.block(rows, cols).tobytes() == w.matrix[[3]][:, [0, 3]].tobytes()


def test_integer_arguments_take_numpy_integers_and_refuse_bool():
    # np.uint8(12) is read as 12: a shift 1 << d in uint8 would wrap to 0.
    assert hamming_weights(np.uint8(12)).size == 4096
    for d in (np.int64(3), np.uint8(3)):
        assert hypercube_graph(d) == hypercube_graph(3)
        assert named_bipartition(d, "parity") == named_bipartition(3, "parity")
    g = Graph(np.int64(4), np.array([[0, 1]]))
    assert type(g.n) is int and g == Graph(4, np.array([[0, 1]]))
    assert Bipartition.from_side_a(4, [np.int64(1)]) == Bipartition((1,), (0, 2, 3))
    assert Bipartition.from_side_a(np.int64(2), [0]) == Bipartition((0,), (1,))
    axis_one = named_bipartition(3, "identity-cut", axis=1)
    assert named_bipartition(3, "identity-cut", axis=np.uint8(1)) == axis_one
    for bad in (True, np.True_, 1.0, "1"):
        with pytest.raises(SchemeError, match="axis must be an integer"):
            named_bipartition(3, "identity-cut", axis=bad)
    for bad in (True, np.True_, 2.5, "2"):
        with pytest.raises(ValueError, match="vertex count must be an integer"):
            Bipartition.from_side_a(bad, [0])
    for bad in (True, False, np.True_):
        with pytest.raises(GraphSizeError, match="integer in 1..12"):
            hypercube_graph(bad)
        with pytest.raises(GraphSizeError, match="integer in 1..12"):
            named_bipartition(bad, "parity")
        with pytest.raises(GraphSizeError, match="positive integer"):
            Graph(bad, np.zeros((0, 2), dtype=np.int64))
        # A bool label would read as vertex 0 or 1.
        with pytest.raises(ValueError, match="labels must be integers"):
            Bipartition.from_side_a(2, [bad])
        with pytest.raises(ValueError, match="labels must be integers"):
            Bipartition((bad,), (2,))


def test_potential_matrix_owns_its_array_and_the_engines_copy_first():
    # PotentialMatrix takes a float64 array without a copy and freezes it;
    # the engine and the oracle copy a raw array before wrapping it.
    cut = named_bipartition(3, "parity")
    raw = np.array(potential_matrix(hypercube_graph(3), 0.5).matrix)
    gamma_spectrum(raw, cut)
    entropy_oracle_symplectic(raw, cut.side_a)
    assert raw.flags.writeable
    owned = PotentialMatrix(raw)
    assert owned.matrix is raw
    assert not raw.flags.writeable
    with pytest.raises(ValueError):
        raw[0, 0] = 2.0


def test_symmetry_check_covers_every_tile():
    # n = 1024 spans several tiles of the blocked check; each perturbed entry
    # lies in a different tile pair, one of them on the diagonal.
    v = potential_matrix(hypercube_graph(10), 0.5).matrix
    assert PotentialMatrix(v.copy()).n == 1024
    for i, j in ((700, 3), (3, 700), (1023, 512), (5, 6)):
        bad = v.copy()
        bad[i, j] += 1e-9
        with pytest.raises(ValueError, match="symmetric"):
            PotentialMatrix(bad)


@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
def test_certify_refuses_a_non_square_array(shape):
    with pytest.raises(ValueError, match="square"):
        PotentialMatrix(np.ones(shape))


def test_non_finite_matrices_rejected():
    base = potential_matrix(hypercube_graph(2), 0.5).matrix
    for bad_value in (np.nan, np.inf, -np.inf):
        for i, j in ((0, 0), (1, 2)):
            for both in (False, True):
                bad = base.copy()
                bad[i, j] = bad_value
                if both:
                    bad[j, i] = bad_value
                with pytest.raises(ValueError):
                    PotentialMatrix(bad)


def test_hamming_weights_match_bit_count():
    for d in (1, 3, 6):
        w = hamming_weights(d)
        assert all(int(w[v]) == bin(v).count("1") for v in range(1 << d))


def test_named_bipartition_examples():
    assert named_bipartition(3, "parity").side_a == (0, 3, 5, 6)
    assert named_bipartition(3, "coordinate", axis=0).side_a == (0, 2, 4, 6)
    assert named_bipartition(3, "half_strata").side_a == (0, 1, 2, 4)
    assert named_bipartition(1, "parity").side_a == (0,)


def test_named_bipartition_sides_are_equal_halves():
    for d in range(1, 8):
        for scheme in ("parity", "coordinate"):
            cut = named_bipartition(d, scheme)
            assert len(cut.side_a) == len(cut.side_b) == 2 ** (d - 1)
        if d % 2 == 1:
            cut = named_bipartition(d, "half_strata")
            assert len(cut.side_a) == len(cut.side_b) == 2 ** (d - 1)


def test_named_bipartition_errors():
    with pytest.raises(SchemeError):
        named_bipartition(4, "half_strata")
    with pytest.raises(SchemeError):
        named_bipartition(3, "diagonal")
    with pytest.raises(SchemeError):
        named_bipartition(3, "coordinate", axis=3)
    # axis belongs to the coordinate cut alone; other schemes used to drop it
    with pytest.raises(SchemeError, match="axis"):
        named_bipartition(3, "parity", axis=5)
    with pytest.raises(SchemeError, match="axis"):
        named_bipartition(3, "half-strata", axis=-4)


def test_bipartition_validation():
    with pytest.raises(ValueError):
        Bipartition((0, 1), (1, 2))
    with pytest.raises(ValueError):
        Bipartition((), (0, 1))
    with pytest.raises(ValueError):
        Bipartition((0, 2), (3, 4))
    with pytest.raises(ValueError):
        Bipartition.from_side_a(4, [0, 7])
    with pytest.raises(ValueError):
        Bipartition.from_side_a(4, [0, 0, 2])
    # labels must be integers; floats and strings are not truncated or parsed
    with pytest.raises(ValueError):
        Bipartition(("0", 3.2), (1, 2))
    with pytest.raises(ValueError):
        Bipartition((0, 3), (1.0, 2))
    with pytest.raises(ValueError):
        Bipartition.from_side_a(4, [0.7, 3.9])
    with pytest.raises(ValueError):
        Bipartition.from_side_a(4, np.array([0.0, 3.0]))
    assert Bipartition.from_side_a(4, np.array([3, 0])).side_a == (0, 3)
    cut = Bipartition.from_side_a(4, [2, 0])
    assert cut.side_a == (0, 2)
    assert cut.side_b == (1, 3)
    assert cut.n == 4


def test_from_side_a_is_the_checked_cut_of_its_side():
    # from_side_a checks side A once and reads both sides off one mask; the
    # cut equals the one the checking constructor builds, and keeps the mask
    # as its read-only indicator.
    rng = np.random.default_rng(33)
    for _ in range(200):
        n = int(rng.integers(2, 70))
        side = rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist()
        cut = Bipartition.from_side_a(n, side)
        rest = sorted(set(range(n)) - set(side))
        assert cut == Bipartition(side, rest)
        assert type(cut.side_a) is tuple and type(cut.side_b) is tuple
        assert all(type(v) is int for v in cut.side_a + cut.side_b)
        assert cut._indicator.tolist() == [v in side for v in range(n)]
        assert not cut._indicator.flags.writeable
        built = Bipartition(cut.side_a, cut.side_b)._indicator
        assert np.array_equal(built, cut._indicator) and not built.flags.writeable
    for n, side, message in (
        (4, [], "non-empty"),
        (4, [3, 2, 1, 0], "non-empty"),
        (4, [0, 1, 2, 3, 3], "non-empty"),
        (4, [0, 0, 2], "duplicate"),
        (4, [4], "out of range"),
        (4, [-1, 0], "out of range"),
        (4, [2**70], "out of range"),
        (4, [-(2**70), 0], "out of range"),
        (4, [np.uint64(2**64 - 1)], "out of range"),
        (4, [5, 0, 0], "out of range"),
        (4, [2**70, 1.5], "integers"),
        (4, [0, 9, np.True_], "integers"),
        (0, [], "non-empty"),
        (-2, [], "non-empty"),
    ):
        with pytest.raises(ValueError, match=message):
            Bipartition.from_side_a(n, side)


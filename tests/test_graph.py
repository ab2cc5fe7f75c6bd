"""Graph construction, potential matrices, named bipartitions."""

import tracemalloc

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
from oscnet.graph import CERTIFY_LEAF, EIG_FLOOR


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
    # The caller's array is read, never reordered or frozen; the graph's own
    # edges are read-only.
    raw = hypercube_graph(3).edges[::-1, ::-1].copy()
    before = raw.copy()
    cube = Graph(8, raw)
    assert raw.flags.writeable and np.array_equal(raw, before)
    with pytest.raises(ValueError):
        cube.edges[0, 0] = 1


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


def test_certify_never_factors_more_than_a_leaf(monkeypatch):
    factored = []
    cholesky = np.linalg.cholesky

    def spy(a):
        factored.append(a.shape[0])
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    v = potential_matrix(hypercube_graph(10), 0.5).matrix
    monkeypatch.undo()
    assert factored and max(factored) <= CERTIFY_LEAF
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
    # Certification reads V's quarters from the graph, so it holds less
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
    # Certification solves its fresh top-level a_12 in place: 2.51 blocks
    # of (n/2) x (n/2) measured, where solving a copy of it took 3.51.
    assert peak <= 3 * (graph.n // 2) ** 2 * 8

    def refuse(self):
        raise AssertionError("the dense V was built")

    monkeypatch.setattr(PotentialMatrix, "matrix", property(refuse))
    cut = named_bipartition(10, "parity")
    gamma_spectrum(v, cut)
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

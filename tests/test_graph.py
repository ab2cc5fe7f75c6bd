"""Graph construction, potential matrices, named bipartitions."""

import numpy as np
import pytest

from oscnet import (
    Bipartition,
    DefinitenessError,
    EdgeListError,
    GraphSizeError,
    PotentialMatrix,
    SchemeError,
    graph_from_edge_list,
    graph_from_uri,
    hamming_weights,
    hypercube_graph,
    named_bipartition,
    potential_matrix,
    stratified_adjacency,
)


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

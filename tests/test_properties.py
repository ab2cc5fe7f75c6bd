"""Property tests: engine, oracle and relabeling on random graphs and cuts."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oscnet import (
    Bipartition,
    Graph,
    Mode,
    ModeSpectrum,
    PotentialMatrix,
    entropy_census,
    entropy_from_nu,
    entropy_of_bipartition,
    entropy_oracle_symplectic,
    potential_matrix,
)

PROPERTY = settings(max_examples=100, deadline=None)


@st.composite
def graphs(draw, sizes):
    """A random graph on a vertex count drawn from sizes."""
    n = draw(sizes)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = np.array(
        [p for p, keep in zip(pairs, chosen) if keep], dtype=np.int64
    ).reshape(-1, 2)
    return Graph(n, edges)


@st.composite
def instances(draw, n_max=10):
    """A random graph, a coupling g >= 0 (so V = I + 2gL is positive
    definite) and a random proper subset of its vertices."""
    graph = draw(graphs(st.integers(2, n_max)))
    n = graph.n
    g = draw(st.floats(0.0, 3.0))
    side_a = draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True)
    )
    return graph, g, sorted(side_a)


@PROPERTY
@given(instances())
def test_oracle_matches_engine(instance):
    graph, g, side_a = instance
    v = potential_matrix(graph, g)
    cut = Bipartition.from_side_a(graph.n, side_a)
    engine = entropy_of_bipartition(v, cut)
    assert abs(entropy_oracle_symplectic(v, side_a) - engine) < 1e-9


@PROPERTY
@given(instances())
def test_both_sides_carry_the_same_entropy(instance):
    graph, g, side_a = instance
    v = potential_matrix(graph, g)
    cut = Bipartition.from_side_a(graph.n, side_a)
    swapped = Bipartition(cut.side_b, cut.side_a)
    assert abs(
        entropy_oracle_symplectic(v, cut.side_a)
        - entropy_oracle_symplectic(v, cut.side_b)
    ) < 1e-9
    assert abs(
        entropy_of_bipartition(v, cut) - entropy_of_bipartition(v, swapped)
    ) < 1e-9


@PROPERTY
@given(instances(), st.randoms(use_true_random=False))
def test_entropy_is_invariant_under_relabeling(instance, rnd):
    graph, g, side_a = instance
    perm = list(range(graph.n))
    rnd.shuffle(perm)
    relabeled = np.sort(np.array(perm, dtype=np.int64)[graph.edges], axis=1)
    other = Graph(graph.n, relabeled[np.lexsort(relabeled.T[::-1])])
    moved = [perm[i] for i in side_a]

    v, w = potential_matrix(graph, g), potential_matrix(other, g)
    before = entropy_oracle_symplectic(v, side_a)
    assert abs(entropy_oracle_symplectic(w, moved) - before) < 1e-9
    assert abs(
        entropy_of_bipartition(w, Bipartition.from_side_a(graph.n, moved)) - before
    ) < 1e-9


@PROPERTY
@given(
    graphs(st.integers(1, 10)), st.floats(0.0, 3.0), st.randoms(use_true_random=False)
)
def test_a_graph_is_its_edge_set(graph, g, rnd):
    # Shuffled, orientation-flipped and repeated rows list the same edges.
    rows = graph.edges.tolist()
    rows += [rnd.choice(rows) for _ in range(rnd.randint(0, len(rows)))]
    rnd.shuffle(rows)
    rows = [row[::-1] if rnd.random() < 0.5 else row for row in rows]
    other = Graph(graph.n, np.array(rows, dtype=np.int64).reshape(-1, 2))
    assert other == graph and hash(other) == hash(graph)
    assert (
        potential_matrix(other, g).matrix.tobytes()
        == potential_matrix(graph, g).matrix.tobytes()
    )


@PROPERTY
@given(
    graphs(st.integers(1, 10)),
    st.sampled_from([0.5, 1e8, -1.0]),
    st.randoms(use_true_random=False),
)
def test_blocks_are_the_slices_of_v(graph, g, rnd):
    # A graph-built V writes its blocks from the edges; they must be the
    # bits of the dense V, signed zeros included.  Symmetric by
    # construction, it runs no symmetry pass, so this is that check.
    if g < 0:
        # |2gL| <= 4g deg_max < 1/2, so V stays definite.
        g /= 8 * max(1, int(graph.degrees().max()))
    v = potential_matrix(graph, g)
    # Entry by entry, V = I + 2g L is 2g * -A off the diagonal, so a
    # non-edge holds the signed zero 2g * -0.0.
    dense = 2.0 * g * -graph.adjacency_matrix()
    dense[np.diag_indices(graph.n)] = 2.0 * g * graph.degrees() + 1.0
    assert v.matrix.tobytes() == dense.tobytes()
    for w in (v, PotentialMatrix(dense)):
        for _ in range(3):
            r, c = (
                np.array(rnd.sample(range(graph.n), rnd.randint(0, graph.n)), dtype=int)
                for _ in range(2)
            )
            block = w.block(r, c)
            assert block.dtype == np.float64 and block.flags.c_contiguous
            assert block.tobytes() == w.matrix[np.ix_(r, c)].tobytes()
            assert block.tobytes() == w.block(c, r).T.tobytes()


@PROPERTY
@given(graphs(st.sampled_from([2, 4, 6, 8])), st.floats(0.0, 3.0))
def test_census_classes_descend_from_max_to_min(graph, g):
    report = entropy_census(graph, g)
    entropies = [c.entropy for c in report.classes]
    assert all(a >= b for a, b in zip(entropies, entropies[1:]))
    assert sum(c.multiplicity for c in report.classes) == report.total_partitions
    assert report.max_class == 0
    assert report.min_class == len(report.classes) - 1


@PROPERTY
@given(
    st.lists(
        st.tuples(st.sampled_from([0.75, 0.5, 0.0, -0.0]), st.integers(1, 3)),
        min_size=1,
        max_size=40,
    ),
    st.randoms(),
)
def test_mode_spectrum_sorts_stably_by_descending_gamma(drawn, rnd):
    # Modes with tied gammas, each its own object; some share values, so a
    # run of equal modes spans distinct objects.  0.0 and -0.0 tie.
    modes = [Mode(gamma, 1.0 + (i % 3), deg) for i, (gamma, deg) in enumerate(drawn)]
    rnd.shuffle(modes)
    spectrum = ModeSpectrum(tuple(modes))
    # Descending gamma, tied modes in their input order: a stable sort on
    # the key -gamma.
    order = sorted(range(len(modes)), key=lambda i: -modes[i].gamma)
    assert [id(m) for m in spectrum.modes] == [id(modes[i]) for i in order]
    entropies = spectrum.entropies()
    assert entropies == [entropy_from_nu(m.nu) for m in spectrum.modes]
    total = math.fsum(m.degeneracy * s for m, s in zip(spectrum.modes, entropies))
    assert spectrum.total_entropy() == total

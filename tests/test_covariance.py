"""The exact hypercube covariance table against LU and exact rationals."""

import re
from fractions import Fraction

import numpy as np
import pytest

from oscnet import (
    DefinitenessError,
    DomainError,
    Graph,
    PotentialMatrix,
    entropy_census,
    entropy_oracle_symplectic,
    graph_from_edge_list,
    graph_from_uri,
    hypercube_graph,
    named_bipartition,
    potential_matrix,
)
from oscnet.gaussian import _position_covariance
from oscnet.graph import EIG_FLOOR

EPS = np.finfo(float).eps


def _couplings(d):
    # The last one is a negative g just inside the definiteness floor:
    # lambda_min(V) = 1 + 4gd = 1e-3.
    return (0.0, 1e-8, 1e-4, 0.5, 1e4, 1e8, -(1.0 - 1e-3) / (4 * d))


def _exact_inverse(d, g):
    """V^{-1} of H(d,2) in rationals, by Gauss-Jordan elimination."""
    n = 1 << d
    q = Fraction(g)
    rows = []
    for i in range(n):
        row = [Fraction(0)] * (2 * n)
        row[i] = 1 + 2 * q * d
        for a in range(d):
            row[i ^ (1 << a)] = -2 * q
        row[n + i] = Fraction(1)
        rows.append(row)
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        p = rows[col][col]
        rows[col] = [x / p for x in rows[col]]
        for r in range(n):
            f = rows[r][col]
            if r != col and f != 0:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def test_table_matches_lu_inverse():
    # The table is exact to rounding, so the difference is LU's own error,
    # bounded by cond(V) eps max|X|; the worst measured factor was 4
    # (d = 6, g = 1e-4).
    cases = [(d, g) for d in range(1, 9) for g in _couplings(d)] + [(10, 0.5)]
    for d, g in cases:
        v = potential_matrix(hypercube_graph(d), g)
        assert v.profile is not None and v.profile.shape == (d + 1,)
        table = _position_covariance(v)
        lu = np.linalg.inv(v.matrix) / 2.0
        lam = [1.0 + 4.0 * g * l for l in range(d + 1)]
        cond = max(lam) / min(lam)
        bound = 8.0 * cond * EPS * np.abs(lu).max()
        assert np.abs(table - lu).max() <= bound, (d, g)
        # one side's block, as the oracle reads it
        rows = np.asarray(named_bipartition(d, "identity_cut").side_a)
        block = _position_covariance(v, rows)
        assert np.array_equal(block, table[np.ix_(rows, rows)])
        solved = _position_covariance(v, rows, lu=True)
        assert np.abs(solved - lu[np.ix_(rows, rows)]).max() <= bound


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_table_is_exact_at_weak_coupling(d):
    # Entries at distance k are O(g^k), down to ~1e-32 at d = 4, while the
    # terms of the Krawtchouk sum are O(2^-d); a float sum would leave only
    # its rounding error there.
    g = 1e-8
    exact = _exact_inverse(d, g)
    table = _position_covariance(potential_matrix(hypercube_graph(d), g))
    n = 1 << d
    worst = 0.0
    for i in range(n):
        for j in range(n):
            want = exact[i][j] / 2
            assert want != 0
            worst = max(worst, abs(Fraction(float(table[i, j])) - want) / abs(want))
    assert worst <= 1e-15


def test_profile_only_on_the_hypercube_potential():
    cube = hypercube_graph(3)
    assert potential_matrix(cube, 0.5).profile is not None
    # the same matrix given directly, or the cube relabeled, takes the LU route
    assert PotentialMatrix(potential_matrix(cube, 0.5).matrix).profile is None
    # swapping labels 6 and 7 is not an automorphism of the cube
    perm = np.array([0, 1, 2, 3, 4, 5, 7, 6])
    relabeled = graph_from_edge_list(
        "".join("%d %d\n" % (perm[i], perm[j]) for i, j in cube.edges)
    )
    assert relabeled.num_edges == 12 and relabeled != cube
    assert potential_matrix(relabeled, 0.5).profile is None
    # a 4-cycle labeled around the ring is not H(2,2) as labeled
    ring = Graph(4, np.array([(0, 1), (0, 3), (1, 2), (2, 3)]))
    assert potential_matrix(ring, 0.5).profile is None
    with pytest.raises(TypeError):
        PotentialMatrix(np.eye(2), np.zeros(2))


def test_oracle_lu_route_ignores_the_table():
    d, g = 5, 0.7
    v = potential_matrix(hypercube_graph(d), g)
    side_a = named_bipartition(d, "half_strata").side_a
    plain = PotentialMatrix(v.matrix)
    lu = entropy_oracle_symplectic(v, side_a, lu=True)
    assert lu == entropy_oracle_symplectic(plain, side_a)
    assert abs(entropy_oracle_symplectic(v, side_a) - lu) < 1e-12


def test_census_table_route_matches_relabeled_lu_route(tmp_path):
    d, g = 4, 0.5
    n = 1 << d
    perm = np.random.default_rng(11).permutation(n)
    edges = hypercube_graph(d).edges
    path = tmp_path / "relabeled.txt"
    path.write_text("".join("%d %d\n" % (perm[i], perm[j]) for i, j in edges))
    relabeled = graph_from_uri("file:%s" % path)
    assert relabeled != hypercube_graph(d)
    assert potential_matrix(relabeled, g).profile is None

    table = entropy_census(hypercube_graph(d), g)
    lu = entropy_census(relabeled, g)
    assert len(table.classes) == len(lu.classes) == 55
    assert [c.multiplicity for c in table.classes] == [
        c.multiplicity for c in lu.classes
    ]
    worst = max(abs(a.entropy - b.entropy) for a, b in zip(table.classes, lu.classes))
    assert worst <= 1e-12


def test_too_strong_coupling_is_refused_by_name():
    for d, g in ((3, 1e16), (3, 1e200), (2, 1e200), (2, 1e308)):
        with pytest.raises(DomainError, match=re.escape("g = %r is too strong" % g)):
            potential_matrix(hypercube_graph(d), g)
    # just below the rounding threshold V is still accepted
    assert potential_matrix(hypercube_graph(3), 1e15).profile is not None
    # 1 + 2g*2 survives rounding here, but the Cholesky gate does not; the
    # message must not blame a negative g
    path = Graph(3, np.array([(0, 1), (1, 2)]))
    g = 3981071705534985.5
    with pytest.raises(DefinitenessError) as err:
        potential_matrix(path, g)
    assert "too negative" not in str(err.value) and repr(g) in str(err.value)
    with pytest.raises(DefinitenessError, match="too negative"):
        potential_matrix(hypercube_graph(3), -(1.0 - EIG_FLOOR) / 12 - 1e-3)

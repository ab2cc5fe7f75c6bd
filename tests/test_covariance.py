"""The hypercube table of the covariance root against mpmath, LU and the
Cholesky route."""

import math
import re

import mpmath
import numpy as np
import pytest

import oscnet.graph
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
from oscnet.gaussian import _TABLE_ROWS, _position_covariance
from oscnet.graph import EIG_FLOOR

EPS = np.finfo(float).eps


def _couplings(d):
    # The last one is a negative g just inside the definiteness floor:
    # lambda_min(V) = 1 + 4gd = 1e-3.
    return (0.0, 1e-8, 1e-4, 0.5, 1e4, 1e8, -(1.0 - 1e-3) / (4 * d))


def _mp_root_profile(d, g):
    """X^{1/2} of H(d,2) at Hamming distance 0..d, to 50 digits, with the
    Krawtchouk values summed from binomials here rather than taken from
    the library."""
    with mpmath.workdps(50):
        q = mpmath.mpf(g)
        roots = [1 / mpmath.sqrt(2 * (1 + 4 * q * l)) for l in range(d + 1)]
        return [
            sum(
                (-1) ** j * math.comb(k, j) * math.comb(d - k, l - j) * roots[l]
                for l in range(d + 1)
                for j in range(min(k, l) + 1)
            )
            / 2**d
            for k in range(d + 1)
        ]


@pytest.mark.parametrize("d", range(1, 9))
def test_root_table_against_mpmath(d):
    # Each 1/sqrt is rounded once and the sum, over exact rationals, once
    # more, so every entry is within eps * F(0) of the exact root: the terms
    # of F(k) add up in magnitude to at most F(0).  Entries of order g^k at
    # weak coupling are therefore not correctly rounded, only that close.
    for g in _couplings(d):
        table = potential_matrix(hypercube_graph(d), g).profile
        assert table.shape == (d + 1,)
        exact = _mp_root_profile(d, g)
        bound = EPS * float(exact[0])
        for k in range(d + 1):
            assert abs(mpmath.mpf(float(table[k])) - exact[k]) <= bound, (d, g, k)


def test_table_matches_lu_inverse():
    # A factor's Gram matrix F^T F is X; its difference from the LU inverse
    # is bounded by cond(V) eps max|X|, up to a factor measured at most 4
    # for the table (d = 6, g = 1e-4) and 6 for the Cholesky route's factor
    # (d = 8, g = 1e-4).
    cases = [(d, g) for d in range(1, 9) for g in _couplings(d)] + [(10, 0.5)]
    for d, g in cases:
        v = potential_matrix(hypercube_graph(d), g)
        plain = PotentialMatrix(v.matrix)
        root = _position_covariance(v)
        lu = np.linalg.inv(v.matrix) / 2.0
        lam = [1.0 + 4.0 * g * l for l in range(d + 1)]
        cond = max(lam) / min(lam)
        bound = 8.0 * cond * EPS * np.abs(lu).max()
        assert np.array_equal(root, root.T)
        assert np.abs(root.T @ root - lu).max() <= bound, (d, g)
        # one side's columns, as the oracle reads them
        rows = np.asarray(named_bipartition(d, "identity_cut").side_a)
        assert np.array_equal(_position_covariance(v, rows), root[:, rows])
        # the Cholesky route's tall factor of the same block
        solved = _position_covariance(plain, rows)
        assert solved.shape == (v.n, rows.size)
        assert np.abs(solved.T @ solved - lu[np.ix_(rows, rows)]).max() <= bound


def test_table_columns_gathered_in_passes_match_the_whole_table():
    # Side sets that end in a partial pass, listed in any order.
    v = potential_matrix(hypercube_graph(7), 0.5)
    root = _position_covariance(v)
    rng = np.random.default_rng(5)
    for size in (1, _TABLE_ROWS - 1, _TABLE_ROWS, 2 * _TABLE_ROWS + 5, v.n):
        rows = rng.permutation(v.n)[:size]
        cols = _position_covariance(v, rows)
        assert cols.flags.f_contiguous
        assert np.array_equal(cols, root[:, rows])


def test_profile_only_on_the_hypercube_potential():
    cube = hypercube_graph(3)
    assert potential_matrix(cube, 0.5).profile is not None
    # the same matrix given directly, or the cube relabeled, takes the
    # Cholesky route
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
    # every edge one bit apart, but one edge short of the cube
    assert potential_matrix(Graph(8, cube.edges[1:]), 0.5).profile is None
    with pytest.raises(TypeError):
        PotentialMatrix(np.eye(2), np.zeros(2))


def test_profile_is_read_only_and_computed_once_per_cube_and_coupling(monkeypatch):
    # The cube is recognized from its own edges, without building another.
    def refuse(d):
        raise AssertionError("hypercube_graph called")

    cube = hypercube_graph(4)
    monkeypatch.setattr(oscnet.graph, "hypercube_graph", refuse)
    profile = potential_matrix(cube, 0.375).profile
    assert not profile.flags.writeable
    assert potential_matrix(cube, 0.375).profile is profile
    assert potential_matrix(cube, 0.25).profile is not profile


def test_oracle_takes_cholesky_route_without_the_table():
    # The route is a property of V alone: the same matrix without the
    # profile takes the Cholesky route, and no switch forces it.
    d, g = 5, 0.7
    v = potential_matrix(hypercube_graph(d), g)
    side_a = named_bipartition(d, "half_strata").side_a
    plain = PotentialMatrix(v.matrix)
    rows = np.asarray(side_a)
    assert not np.array_equal(
        _position_covariance(v, rows), _position_covariance(plain, rows)
    )
    solved = entropy_oracle_symplectic(plain, side_a)
    assert solved == entropy_oracle_symplectic(np.array(v.matrix), side_a)
    assert abs(entropy_oracle_symplectic(v, side_a) - solved) < 1e-12
    with pytest.raises(TypeError):
        entropy_oracle_symplectic(v, side_a, table=False)
    with pytest.raises(TypeError):
        _position_covariance(v, rows, table=False)


def test_census_table_route_matches_relabeled_lu_route(tmp_path):
    # The relabeled cube has no table, so its census takes the Cholesky
    # route.  Relative differences measured: 3.2e-15 at g = 0.5, 1.0e-13 at
    # 1e4, 3.2e-10 at 1e8.
    d = 4
    n = 1 << d
    perm = np.random.default_rng(11).permutation(n)
    edges = hypercube_graph(d).edges
    path = tmp_path / "relabeled.txt"
    path.write_text("".join("%d %d\n" % (perm[i], perm[j]) for i, j in edges))
    relabeled = graph_from_uri("file:%s" % path)
    assert relabeled != hypercube_graph(d)
    assert potential_matrix(relabeled, 0.5).profile is None

    for g, rel in ((0.5, 1e-14), (1e4, 2e-13), (1e8, 1e-9)):
        table = entropy_census(hypercube_graph(d), g)
        solved = entropy_census(relabeled, g)
        assert len(table.classes) == len(solved.classes) == 55, g
        assert [c.multiplicity for c in table.classes] == [
            c.multiplicity for c in solved.classes
        ], g
        worst = max(
            abs(a.entropy - b.entropy) / a.entropy
            for a, b in zip(table.classes, solved.classes)
        )
        assert worst <= rel, (g, worst)


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


def test_non_finite_coupling_is_refused_by_name():
    for g in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DomainError, match=re.escape("g = %r must be finite" % g)):
            potential_matrix(hypercube_graph(2), g)

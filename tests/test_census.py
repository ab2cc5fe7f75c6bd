"""Census over equal bipartitions: counts, classes, determinism, extremes."""

import itertools
import json
import math

import numpy as np
import pytest

from oscnet import (
    analytic_entropy,
    entropy_census,
    entropy_oracle_symplectic,
    graph_from_edge_list,
    hypercube_graph,
    named_bipartition,
    potential_matrix,
)
from oscnet.census import _side_a_subsets

# The six known entropy classes of the cube at g = 0.5, written as side-A
# vertex sets with 0-based coordinate labels (vertex b2 b1 b0 has index
# 4 b2 + 2 b1 + b0).  Descending entropy order.
CUBE_CLASSES = [
    [(0, 3, 5, 6)],
    [
        (0, 1, 2, 7), (0, 1, 4, 7), (0, 1, 5, 6), (0, 1, 3, 6),
        (0, 2, 4, 7), (0, 2, 5, 6), (0, 2, 3, 5), (0, 3, 4, 6),
        (0, 3, 4, 5), (0, 5, 6, 7), (0, 3, 6, 7), (0, 3, 5, 7),
    ],
    [(0, 1, 6, 7), (0, 2, 5, 7), (0, 3, 4, 7)],
    [
        (0, 1, 2, 6), (0, 1, 2, 5), (0, 1, 4, 6), (0, 1, 3, 4),
        (0, 1, 5, 7), (0, 1, 3, 7), (0, 2, 4, 5), (0, 2, 3, 4),
        (0, 4, 6, 7), (0, 2, 6, 7), (0, 2, 3, 7), (0, 4, 5, 7),
    ],
    [(0, 1, 2, 4), (0, 1, 3, 5), (0, 2, 3, 6), (0, 4, 5, 6)],
    [(0, 1, 2, 3), (0, 1, 4, 5), (0, 2, 4, 6)],
]


def test_equal_bipartition_counts():
    assert len(list(_side_a_subsets(2))) == 1
    assert len(list(_side_a_subsets(8))) == 35
    assert len(list(_side_a_subsets(16))) == math.comb(15, 7) == 6435


def test_equal_bipartitions_are_canonical_and_ordered():
    sides = list(_side_a_subsets(8))
    assert all(s[0] == 0 for s in sides)
    assert sides == sorted(sides)
    assert len(set(sides)) == len(sides)
    expect = [(0,) + rest for rest in itertools.combinations(range(1, 8), 3)]
    assert sides == expect


def test_equal_bipartitions_odd_n_rejected():
    path = graph_from_edge_list("0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n")
    assert path.n == 7
    with pytest.raises(ValueError):
        entropy_census(path, 0.5)


def test_cube_census_class_structure():
    report = entropy_census(hypercube_graph(3), 0.5)
    assert report.total_partitions == 35
    assert len(report.classes) == 6
    assert [c.multiplicity for c in report.classes] == [1, 12, 3, 12, 4, 3]
    entropies = [c.entropy for c in report.classes]
    assert entropies == sorted(entropies, reverse=True)
    for cls, expect in zip(report.classes, CUBE_CLASSES):
        assert cls.representatives == tuple(sorted(expect))
        assert not cls.capped
    assert report.max_class == 0
    assert report.min_class == 5
    assert report.warnings == ()


def test_cube_census_values_match_oracle():
    report = entropy_census(hypercube_graph(3), 0.5)
    v = potential_matrix(hypercube_graph(3), 0.5)
    for cls in report.classes:
        member = list(cls.representatives[0])
        assert abs(entropy_oracle_symplectic(v, member) - cls.entropy) < 1e-9


def test_census_extremes_are_parity_and_coordinate_cuts():
    report = entropy_census(hypercube_graph(3), 0.5)
    bottom = report.classes[report.min_class]
    top = report.classes[report.max_class]
    assert top.representatives == (named_bipartition(3, "parity").side_a,)
    coords = tuple(
        sorted(named_bipartition(3, "coordinate", axis=a).side_a for a in range(3))
    )
    assert bottom.representatives == coords
    assert abs(top.entropy - analytic_entropy("parity_cut", 3, 0.5)) < 1e-9
    assert abs(bottom.entropy - analytic_entropy("identity_cut", 3, 0.5)) < 1e-9


def test_extremal_partitions_single_pair():
    report = entropy_census(hypercube_graph(1), 0.5)
    bottom = report.classes[report.min_class].representatives
    top = report.classes[report.max_class].representatives
    assert bottom == top == ((0,),)


def test_census_single_pair():
    report = entropy_census(hypercube_graph(1), 0.5)
    assert report.total_partitions == 1
    assert len(report.classes) == 1
    assert report.classes[0].representatives == ((0,),)
    assert abs(report.classes[0].entropy - 0.4014135460857287) < 1e-12


def test_census_zero_coupling_single_class():
    report = entropy_census(hypercube_graph(3), 0.0)
    assert len(report.classes) == 1
    assert report.classes[0].multiplicity == 35
    assert report.classes[0].entropy == 0.0
    assert report.classes[0].capped
    assert len(report.classes[0].representatives) == 16


def test_census_class_structure_is_coupling_independent():
    reports = [entropy_census(hypercube_graph(3), g) for g in (0.1, 0.5, 1.0)]
    memberships = [
        tuple(c.representatives for c in rep.classes) for rep in reports
    ]
    assert memberships[0] == memberships[1] == memberships[2]
    assert all(rep.min_class == reports[0].min_class for rep in reports)
    assert all(rep.max_class == reports[0].max_class for rep in reports)


def test_census_is_deterministic_and_thread_invariant():
    g = hypercube_graph(3)
    a = entropy_census(g, 0.5)
    b = entropy_census(g, 0.5)
    assert a.to_dict() == b.to_dict()
    for threads in (2, 3):
        c = entropy_census(g, 0.5, threads=threads)
        assert a.to_dict() == c.to_dict()


def test_census_boundary_warning_fires_near_tolerance():
    g = hypercube_graph(3)
    strict = entropy_census(g, 0.5)
    values = [c.entropy for c in strict.classes]
    smallest_gap = min(a - b for a, b in zip(values, values[1:]))
    loose = entropy_census(g, 0.5, tolerance=smallest_gap / 5.0)
    assert len(loose.classes) == 6
    assert any("boundary" in w for w in loose.warnings)


def test_census_merges_below_tolerance():
    g = hypercube_graph(3)
    report = entropy_census(g, 0.5, tolerance=10.0)
    assert len(report.classes) == 1
    assert report.classes[0].multiplicity == 35


def test_census_sampling_is_seeded_and_bounded():
    g = hypercube_graph(4)
    a = entropy_census(g, 0.5, sample=40, seed=3)
    b = entropy_census(g, 0.5, sample=40, seed=3)
    assert a.to_dict() == b.to_dict()
    assert a.total_partitions <= 40
    c = entropy_census(g, 0.5, sample=40, seed=4)
    assert c.total_partitions <= 40
    for cls in a.classes:
        for rep in cls.representatives:
            assert rep[0] == 0 and len(rep) == 8
            assert list(rep) == sorted(set(rep)) and max(rep) < 16


def test_census_validation():
    for tolerance in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            entropy_census(hypercube_graph(3), 0.5, tolerance=tolerance)
    with pytest.raises(ValueError):
        entropy_census(hypercube_graph(3), 0.5, threads=0)
    with pytest.raises(ValueError):
        entropy_census(hypercube_graph(3), 0.5, sample=0)
    with pytest.raises(TypeError):
        entropy_census("hypercube:3", 0.5)


def test_census_json_schema_and_csv_shape():
    report = entropy_census(hypercube_graph(3), 0.5)
    doc = json.loads(json.dumps(report.to_dict()))
    for key in (
        "n", "g", "logBase", "tolerance", "totalPartitions",
        "minClass", "maxClass", "classes", "warnings",
    ):
        assert key in doc
    assert doc["n"] == 8
    assert doc["logBase"] == "2"
    assert doc["totalPartitions"] == 35
    assert len(doc["classes"]) == 6
    first = doc["classes"][0]
    for key in ("entropy", "multiplicity", "representatives", "capped"):
        assert key in first
    assert first["representatives"] == [[0, 3, 5, 6]]

    csv = report.to_csv().splitlines()
    assert csv[0] == "class,entropy,multiplicity,capped,representatives"
    assert len(csv) == 7


def test_entropy_is_automorphism_invariant():
    # relabeling by a hypercube automorphism cannot change any entropy
    rng = np.random.default_rng(17)
    d = 3
    n = 1 << d
    v = potential_matrix(hypercube_graph(d), 0.5)
    idx = np.arange(n)
    for _ in range(20):
        mask = int(rng.integers(0, n))
        perm = rng.permutation(d)
        image = np.zeros_like(idx)
        for bit in range(d):
            image |= ((idx >> bit) & 1) << int(perm[bit])
        image ^= mask
        side = sorted(int(i) for i in rng.choice(n, size=4, replace=False))
        mapped = sorted(int(image[i]) for i in side)
        a = entropy_oracle_symplectic(v, side)
        b = entropy_oracle_symplectic(v, mapped)
        assert abs(a - b) < 1e-10

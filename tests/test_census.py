"""Census over equal bipartitions: counts, classes, determinism, extremes."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscnet import (
    ConsistencyError,
    analytic_entropy,
    entropy_census,
    entropy_oracle_symplectic,
    graph_from_edge_list,
    hypercube_graph,
    named_bipartition,
    potential_matrix,
)
from oscnet import census
from oscnet.census import (
    REPRESENTATIVE_CAP,
    CensusReport,
    EntropyClass,
    _classes,
    _enumerated,
    _sampled,
    _side_a_subsets,
)
from oscnet.gaussian import NU_SLACK, _position_covariance, entropy_from_nu

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


@pytest.mark.parametrize(
    "cores, threads, d, workers",
    [
        # 3,000 requested workers are capped at the cores.
        (3, 3000, 4, 3),
        (2, 2, 3, 2),
        # The cube's 35 rows give two or more to each of 4 capped workers,
        # but not to each of 20: the serial fallback counts capped workers.
        (4, 3000, 3, 4),
        (20, 3000, 3, None),
        # One core, or none reported, runs serially.
        (1, 8, 3, None),
        (None, 8, 3, None),
    ],
)
def test_census_workers_are_capped_at_the_cores(monkeypatch, cores, threads, d, workers):
    import concurrent.futures

    made = []

    class InProcessPool:
        """Records max_workers and maps in this process: no worker starts."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, blocks):
            return map(fn, blocks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(census.os, "cpu_count", lambda: cores)
    pooled = entropy_census(hypercube_graph(d), 0.5, threads=threads)
    assert made == ([] if workers is None else [workers])
    monkeypatch.undo()
    assert pooled.to_dict() == entropy_census(hypercube_graph(d), 0.5).to_dict()


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
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            entropy_census(hypercube_graph(3), 0.5, tolerance=tolerance)
    with pytest.raises(ValueError):
        entropy_census(hypercube_graph(3), 0.5, threads=0)
    with pytest.raises(ValueError):
        entropy_census(hypercube_graph(3), 0.5, sample=0)
    for seed in (1.5, "3"):
        with pytest.raises(ValueError, match="seed"):
            entropy_census(hypercube_graph(3), 0.5, sample=4, seed=seed)
    with pytest.raises(TypeError):
        entropy_census("hypercube:3", 0.5)


def test_census_takes_numpy_integers_and_refuses_bool():
    g = hypercube_graph(3)
    want = entropy_census(g, 0.5, sample=20, seed=7).to_dict()
    for kind in (np.int64, np.uint8):
        got = entropy_census(g, 0.5, threads=kind(1), sample=kind(20), seed=kind(7))
        assert got.to_dict() == want
    for name in ("threads", "sample", "seed"):
        for bad in (True, np.True_):
            with pytest.raises(ValueError, match=name):
                entropy_census(g, 0.5, **{"sample": 4, name: bad})


def test_census_refuses_too_many_partitions(monkeypatch):
    # The cube's 35 partitions, or a sample of them, against a cap on either
    # side of 35.
    monkeypatch.setattr(census, "MAX_CENSUS_PARTITIONS", 34)
    with pytest.raises(ValueError, match="35 partitions exceed the census limit of 34"):
        entropy_census(hypercube_graph(3), 0.5)
    with pytest.raises(ValueError, match="--sample"):
        entropy_census(hypercube_graph(3), 0.5, sample=35)
    assert entropy_census(hypercube_graph(3), 0.5, sample=34).total_partitions <= 34
    monkeypatch.setattr(census, "MAX_CENSUS_PARTITIONS", 35)
    assert entropy_census(hypercube_graph(3), 0.5).total_partitions == 35


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


def test_renderings_do_not_depend_on_the_slice_size(monkeypatch):
    # The 55 classes of H(4,2) keep 1 to 16 representatives each, so the
    # slices end at every kind of class boundary.
    report = entropy_census(hypercube_graph(4), 0.5)
    whole = report.to_csv()
    joined = [
        "|".join(",".join(map(str, row)) for row in c.representatives)
        for c in report.classes
    ]
    for size in (1, 7, 54):
        monkeypatch.setattr(census, "RENDER_CLASSES", size)
        assert list(report.joined_representatives(",")) == joined
        assert report.to_csv() == whole


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


def test_enumerated_rows_are_the_side_a_tuples():
    for n in (2, 8, 16):
        assert list(map(tuple, _enumerated(n).tolist())) == list(_side_a_subsets(n))


def _assert_strictly_increasing(rows):
    """Each row is lexicographically larger than the one before it, which
    _classes relies on to break ties by row index."""
    differ = rows[1:] != rows[:-1]
    assert differ.any(axis=1).all()
    first = differ.argmax(axis=1)
    at = np.arange(len(first))
    assert (rows[1:][at, first] > rows[:-1][at, first]).all()


def _assert_canonical_and_unique(rows, n):
    assert rows.dtype == np.int16 and rows.shape[1] == n // 2
    assert (rows[:, 0] == 0).all() and (rows < n).all()
    assert (np.diff(rows, axis=1) > 0).all()
    assert len(set(map(tuple, rows.tolist()))) == len(rows)
    _assert_strictly_increasing(rows)


def test_enumerated_and_sampled_rows_strictly_increase():
    for n in (2, 8, 16):
        _assert_strictly_increasing(_enumerated(n))
    for n, sample in ((8, 30), (16, 500), (64, 3000)):
        _assert_strictly_increasing(_sampled(n, sample, 4))
    # the check itself refuses a swapped pair and a repeated row
    rows = _enumerated(8)
    for bad in (rows[[0, 2, 1]], rows[[0, 1, 1]]):
        with pytest.raises(AssertionError):
            _assert_strictly_increasing(bad)


def test_sampler_rows_are_canonical_unique_and_seeded():
    for n, sample in ((2, 5), (8, 200), (16, 500), (64, 3000)):
        rows = _sampled(n, sample, 11)
        _assert_canonical_and_unique(rows, n)
        assert 1 <= len(rows) <= sample
        assert np.array_equal(rows, _sampled(n, sample, 11))
    # 200 draws from the cube's 35 partitions find all of them
    assert np.array_equal(_sampled(8, 200, 11), _enumerated(8))
    assert not np.array_equal(_sampled(64, 50, 11), _sampled(64, 50, 12))


def test_sampler_rows_do_not_depend_on_the_chunk_size(monkeypatch):
    want = _sampled(64, 1000, 5)
    monkeypatch.setattr(census, "SAMPLE_CHUNK_KEYS", 63 * 7)
    assert np.array_equal(_sampled(64, 1000, 5), want)


# The 6-cycle with chord 0-3: off the hypercube table, so the census
# factor comes from the Cholesky route.
CHORDED_CYCLE = "0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n0 3\n"


def _census_entropies(monkeypatch, graph, g, **kwargs):
    """(side-A rows, entropies) as entropy_census hands them to grouping."""
    seen = {}

    def record(entropies, side_a, tolerance):
        seen["rows"], seen["entropies"] = side_a, entropies
        return _classes(entropies, side_a, tolerance)

    monkeypatch.setattr(census, "_classes", record)
    entropy_census(graph, g, **kwargs)
    return seen["rows"], seen["entropies"]


def _per_partition_entropies(graph, g, rows):
    """The census kernel one partition at a time: a 2-D qr(mode="r"), the
    congruence R 4P_A R^T, eigvalsh, the clamp to 1 and the entropy sum."""
    v = potential_matrix(graph, g)
    root = _position_covariance(v)
    p_cov = v.matrix / 2.0
    out = []
    for a in rows.tolist():
        r = np.linalg.qr(root[:, a], mode="r")
        nus_sq = np.linalg.eigvalsh(r @ (4.0 * p_cov[np.ix_(a, a)]) @ r.T)
        nus = np.sqrt(np.maximum(nus_sq, 0.0))
        assert nus.min() >= 1.0 - NU_SLACK
        out.append(sum(entropy_from_nu(nu) for nu in np.maximum(nus, 1.0).tolist()))
    return np.array(out)


@pytest.mark.parametrize(
    "uri, g, sample",
    [("hypercube:3", g, None) for g in (0.5, 1e4, 1e11)]
    + [("hypercube:4", g, None) for g in (0.5, 1e4, 1e11)]
    + [("hypercube:6", g, 500) for g in (0.5, 1e4, 1e11)]
    + [("chorded-cycle", g, None) for g in (0.5, 1e8)],
)
def test_stacked_census_matches_the_per_partition_kernel_bit_for_bit(
    monkeypatch, uri, g, sample
):
    if uri == "chorded-cycle":
        graph = graph_from_edge_list(CHORDED_CYCLE)
    else:
        graph = hypercube_graph(int(uri.split(":")[1]))
    rows, entropies = _census_entropies(monkeypatch, graph, g, sample=sample, seed=3)
    if sample is not None:
        assert len(rows) == sample
    want = _per_partition_entropies(graph, g, rows)
    assert entropies.tobytes() == want.tobytes()


def test_census_entropies_do_not_depend_on_the_stack_size(monkeypatch):
    graph = hypercube_graph(4)
    _, want = _census_entropies(monkeypatch, graph, 0.5)
    # One row of H(4,2) gathers 8 x 16 factor entries and 8 x 8 of 4P.
    row_bytes = 8 * 8 * (16 + 8)
    for budget in (row_bytes, 7 * row_bytes + 5):
        monkeypatch.setattr(census, "STACK_BYTES", budget)
        _, entropies = _census_entropies(monkeypatch, graph, 0.5)
        assert entropies.tobytes() == want.tobytes()


def test_no_stack_gathers_more_than_the_budget(monkeypatch):
    # Each chunk's factor columns reach the QR, then its 4P blocks the
    # congruence; together they stay within the budget.
    chunks = []
    triangles, forms = census._stacked_triangles, census._stacked_forms

    def record_cols(cols):
        chunks.append((cols.shape[0], cols.nbytes))
        return triangles(cols)

    def record_blocks(r, p4):
        k, nbytes = chunks[-1]
        chunks[-1] = (k, nbytes + p4.nbytes)
        return forms(r, p4)

    monkeypatch.setattr(census, "_stacked_triangles", record_cols)
    monkeypatch.setattr(census, "_stacked_forms", record_blocks)
    for d in (3, 4):
        chunks.clear()
        entropy_census(hypercube_graph(d), 0.5)
        assert sum(k for k, _ in chunks) == math.comb(2**d - 1, 2 ** (d - 1) - 1)
        assert all(nbytes <= census.STACK_BYTES for _, nbytes in chunks)
    assert max(k for k, _ in chunks) > 1
    # A budget below one row's bytes takes one row at a time.
    monkeypatch.setattr(census, "STACK_BYTES", 1000)
    chunks.clear()
    entropy_census(hypercube_graph(4), 0.5)
    assert [k for k, _ in chunks] == [1] * 6435


def test_a_consistency_error_inside_a_stack_propagates():
    # X = diag(1/2, 1/2, 1/2, 1/8) against P = I/2: nu = 1 on vertices 0, 1
    # and 2, but nu = 1/2 on vertex 3, which no pure state allows.
    root_t = np.diag(np.sqrt([0.5, 0.5, 0.5, 0.125]))
    p4 = 4.0 * (np.eye(4) / 2.0)
    rows = np.array([[0, 1], [0, 2], [1, 2], [0, 3], [1, 2]], dtype=np.int16)
    assert census._entropies(root_t, p4, "2", rows[:3]).tolist() == [0.0] * 3
    with pytest.raises(ConsistencyError):
        census._entropies(root_t, p4, "2", rows)


def test_sampler_reaches_the_largest_hypercube():
    n = 1 << 12
    rows = _sampled(n, 10, 3)
    assert len(rows) == 10
    _assert_canonical_and_unique(rows, n)


def _sweep_classes(entropies, subsets, tolerance):
    """The census grouping as a sort and a sweep over Python lists: the
    reference the array grouping must reproduce bit for bit."""
    order = sorted(range(len(subsets)), key=lambda i: (-entropies[i], subsets[i]))
    groups = []
    for i in order:
        if groups and groups[-1][-1][0] - entropies[i] <= tolerance:
            groups[-1].append((entropies[i], subsets[i]))
        else:
            groups.append([(entropies[i], subsets[i])])
    classes = []
    warnings = []
    for gi, members in enumerate(groups):
        values = [e for e, _ in members]
        subsets_sorted = sorted(s for _, s in members)
        spread = values[0] - values[-1]
        if spread > tolerance / 10.0:
            warnings.append(
                "class %d members spread over %.3e, within 10x of the "
                "tolerance; consider tightening or loosening it" % (gi, spread)
            )
        classes.append(
            census.EntropyClass(
                entropy=float(np.mean(values)),
                multiplicity=len(members),
                representatives=tuple(subsets_sorted[:REPRESENTATIVE_CAP]),
                capped=len(subsets_sorted) > REPRESENTATIVE_CAP,
            )
        )
    for gi in range(len(groups) - 1):
        gap = groups[gi][-1][0] - groups[gi + 1][0][0]
        if gap <= 10.0 * tolerance:
            warnings.append(
                "boundary between classes %d and %d has gap %.3e, within "
                "10x of the tolerance" % (gi, gi + 1, gap)
            )
    return classes, warnings


# Values on a grid of 2**-20 with tolerances on the same grid: gaps equal to
# the tolerance, or to a tenth or ten times of it, are then exact.
GRID = 2.0**-20
TEN_ROWS = _enumerated(10)


@st.composite
def groupings(draw):
    """(entropies, side-A rows, tolerance) with clusters, ties and gaps at
    the tolerance."""
    k = draw(st.integers(1, len(TEN_ROWS)))
    picked = draw(st.permutations(range(len(TEN_ROWS))))[:k]
    if draw(st.booleans()):
        tolerance = draw(st.sampled_from([1, 2, 10, 100])) * GRID
        centers = draw(st.lists(st.integers(0, 4000), min_size=1, max_size=6))
        offsets = st.sampled_from([0, 1, 2, 9, 10, 11, 99, 100, 101])
        values = [
            draw(st.sampled_from(centers)) * 64 * GRID + draw(offsets) * GRID
            for _ in range(k)
        ]
    else:
        tolerance = draw(st.floats(1e-12, 1.0))
        pool = draw(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=8))
        values = [
            draw(st.sampled_from(pool)) + draw(st.sampled_from([0.0, tolerance]))
            for _ in range(k)
        ]
    return np.array(values), TEN_ROWS[sorted(picked)], tolerance


def _report(rows, grouped, tolerance):
    """The CensusReport that entropy_census builds from _classes' output."""
    means, sizes, reps, kept, warnings = grouped
    return CensusReport(
        n=10,
        g=0.5,
        log_base="2",
        tolerance=tolerance,
        total_partitions=len(rows),
        entropies=means,
        multiplicities=sizes,
        representatives=reps,
        representative_counts=kept,
        min_class=len(means) - 1,
        max_class=0,
        warnings=tuple(warnings),
    )


@settings(max_examples=300, deadline=None)
@given(groupings())
def test_array_grouping_matches_the_sweep_bit_for_bit(case):
    entropies, rows, tolerance = case
    grouped = _classes(entropies, rows, tolerance)
    means, sizes, reps, kept, warnings = grouped
    want, want_warnings = _sweep_classes(
        entropies.tolist(), list(map(tuple, rows.tolist())), tolerance
    )
    # The arrays: representatives are int16 rows, class after class.
    assert [e.hex() for e in means.tolist()] == [c.entropy.hex() for c in want]
    assert sizes.tolist() == [c.multiplicity for c in want]
    assert kept.tolist() == [len(c.representatives) for c in want]
    assert reps.dtype == np.int16
    assert list(map(tuple, reps.tolist())) == [
        r for c in want for r in c.representatives
    ]
    assert (sizes > kept).tolist() == [c.capped for c in want]
    assert not any(a.flags.writeable for a in (means, sizes, reps, kept))
    assert warnings == want_warnings
    # The EntropyClass objects the report builds from them on first read.
    classes = _report(rows, grouped, tolerance).classes
    assert [c.entropy.hex() for c in classes] == [c.entropy.hex() for c in want]
    assert [c.multiplicity for c in classes] == [c.multiplicity for c in want]
    assert [c.representatives for c in classes] == [c.representatives for c in want]
    assert [c.capped for c in classes] == [c.capped for c in want]
    assert all(type(v) is int for c in classes for r in c.representatives for v in r)
    assert all(
        type(c.entropy) is float and type(c.multiplicity) is int and type(c.capped) is bool
        for c in classes
    )


def test_report_classes_are_built_once_on_first_read(monkeypatch):
    built = []

    def entropy_class(**fields):
        built.append(fields)
        return EntropyClass(**fields)

    monkeypatch.setattr(census, "EntropyClass", entropy_class)
    report = entropy_census(hypercube_graph(3), 0.5)
    assert built == []
    first = report.classes
    assert len(built) == 6
    second = report.classes
    assert second is first
    assert all(a is b for a, b in zip(first, second))
    assert len(built) == 6


def test_report_arrays_are_read_only_and_equality_is_identity():
    report = entropy_census(hypercube_graph(3), 0.5)
    for array in (
        report.entropies,
        report.multiplicities,
        report.representatives,
        report.representative_counts,
    ):
        with pytest.raises(ValueError):
            array[0] = 1
    # A field-wise == would compare arrays and raise; reports with equal
    # content are distinct objects.
    again = entropy_census(hypercube_graph(3), 0.5)
    assert report == report
    assert report != again
    assert report.to_dict() == again.to_dict()

"""The translation-sector routes of the engine and the oracle on
coset-union cuts of H(d,2), from labels and from the quotient form."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import oscnet
from oscnet import (
    Bipartition,
    ConsistencyError,
    DefinitenessError,
    DomainError,
    GraphSizeError,
    PotentialMatrix,
    SingularityError,
    coset_cut_oracle,
    coset_cut_spectrum,
    entropy_oracle_symplectic,
    gamma_hyperplane_cut,
    gamma_spectrum,
    hypercube_graph,
    named_bipartition,
    potential_matrix,
)
from oscnet import cosets, gaussian
from oscnet.cosets import _translation_stabiliser
from oscnet.graph import _hyperplane_cut


def _indicator(n, side_a):
    in_a = np.zeros(n, dtype=bool)
    in_a[list(side_a)] = True
    return in_a


def _span(vectors):
    span = {0}
    for t in vectors:
        span |= {s ^ t for s in span}
    return span


def _coset_union(rng, d, k):
    """A random side A of H(d,2) that is a union of cosets of a random
    k-dimensional subspace, neither empty nor everything, and the subspace."""
    n = 1 << d
    while len(span := _span(int(t) for t in rng.integers(1, n, size=k))) < 1 << k:
        pass
    reps = sorted({min(x ^ t for t in span) for x in range(n)})
    while not 0 < (pick := rng.random(len(reps)) < 0.5).sum() < len(reps):
        pass
    side_a = sorted(r ^ t for r, p in zip(reps, pick) if p for t in span)
    return side_a, span


def test_stabiliser_matches_brute_force():
    rng = np.random.default_rng(26)
    coset_unions = 0
    for i in range(200):
        d = int(rng.integers(1, 9))
        n = 1 << d
        if i % 2 and d > 1:
            side_a, _ = _coset_union(rng, d, int(rng.integers(1, d)))
            coset_unions += 1
        else:
            size = int(rng.integers(1, n))
            side_a = sorted(int(x) for x in rng.choice(n, size=size, replace=False))
        a = set(side_a)
        brute = {t for t in range(n) if {x ^ t for x in a} == a}
        basis = _translation_stabiliser(d, _indicator(n, side_a))
        assert _span(t for _, t in basis) == brute
        assert len(basis) == len(brute).bit_length() - 1
        for pivot, t in basis:
            assert t >> pivot & 1
            assert all(not u >> pivot & 1 for p, u in basis if p != pivot)
    assert coset_unions >= 90


def _block_orders(monkeypatch):
    """The orders of the blocks the engine whitens, recorded as it runs."""
    orders = []
    whiten = gaussian._whitened_couplings

    def recording(block, a, b):
        orders.append(a.size + b.size)
        return whiten(block, a, b)

    monkeypatch.setattr(gaussian, "_whitened_couplings", recording)
    return orders


# Measured worst on these cuts: gammas 2.6e-15 apart, totals 3.0e-14
# relative, summed plainly or by fsum.
SECTOR_GAMMA_TOL = 5e-15
SECTOR_TOTAL_TOL = 4e-14


@pytest.mark.parametrize("d", [3, 4, 6, 8, 10])
def test_sector_route_matches_the_dense_engine(monkeypatch, d):
    rng = np.random.default_rng(d)
    for k in sorted({1, d // 2, d - 1}):
        side_a, span = _coset_union(rng, d, k)
        cut = Bipartition.from_side_a(1 << d, side_a)
        found = _translation_stabiliser(d, _indicator(1 << d, side_a))
        assert span <= _span(t for _, t in found)
        for g in (0.01, 0.5, 100):
            v = potential_matrix(hypercube_graph(d), g)
            dense = gamma_spectrum(PotentialMatrix(v.matrix), cut)
            orders = _block_orders(monkeypatch)
            sectors = gamma_spectrum(v, cut)
            monkeypatch.undo()
            assert set(orders) == {1 << (d - len(found))}
            assert sectors.mode_count() == dense.mode_count() == len(sectors.modes)
            gap = np.abs(sectors.expanded_gammas() - dense.expanded_gammas()).max()
            assert gap <= SECTOR_GAMMA_TOL, (k, g, gap)
            total = dense.total_entropy()
            assert abs(sectors.total_entropy() - total) <= SECTOR_TOTAL_TOL * total


def _oracle_sectors(monkeypatch):
    """The stacks of 4P blocks that the oracle's forms take, recorded as it
    runs, with its dense factor route refused."""
    stacks = []
    forms = gaussian._stacked_forms

    def recording(r, p4):
        stacks.append(p4.copy())
        return forms(r, p4)

    def refusing(*args):
        raise AssertionError("the oracle took its dense factor route")

    monkeypatch.setattr(gaussian, "_stacked_forms", recording)
    monkeypatch.setattr(gaussian, "_position_covariance", refusing)
    return stacks


# Measured worst relative difference on these cuts: 1.2e-12, 1.2e-14 and
# 2.9e-14 at g = 0.01, 0.5 and 100.  At g = 0.01 the nu sit near 1, where
# S(nu) magnifies their rounding: on the worst cut, at d = 3, 50-digit
# mpmath puts the sector oracle 4.5e-13 and the Cholesky oracle 7.3e-13
# off, on opposite sides.
SECTOR_ORACLE_TOL = {0.01: 2.5e-12, 0.5: 3e-14, 100: 6e-14}


@pytest.mark.parametrize("d", [3, 4, 6, 8, 10])
def test_sector_oracle_matches_the_cholesky_oracle(monkeypatch, d):
    # The same cuts as test_sector_route_matches_the_dense_engine.
    rng = np.random.default_rng(d)
    for k in sorted({1, d // 2, d - 1}):
        side_a, _ = _coset_union(rng, d, k)
        distinct = len(Bipartition.from_side_a(1 << d, side_a)._quotient.characters)
        for g in sorted(SECTOR_ORACLE_TOL):
            v = potential_matrix(hypercube_graph(d), g)
            dense = entropy_oracle_symplectic(PotentialMatrix(v.matrix), side_a)
            stacks = _oracle_sectors(monkeypatch)
            sectors = entropy_oracle_symplectic(v, side_a)
            monkeypatch.undo()
            # One stacked kernel call, one form per distinct sector.
            assert [len(p4) for p4 in stacks] == [distinct]
            assert abs(sectors - dense) <= SECTOR_ORACLE_TOL[g] * dense, (k, g)


# Measured worst over every weight at d = 1..12: gammas 2.2e-16 apart,
# totals 1.2e-14 relative.  Summed plainly, the totals of up to 2048 modes
# were 6.8e-14 apart; ModeSpectrum.total_entropy sums by fsum.
CLOSED_GAMMA_TOL = 5e-16
CLOSED_TOTAL_TOL = 3e-14
# The oracle's sectors against the same totals: worst 6.2e-13, 9.6e-15 and
# 2.3e-14 relative at g = 0.01, 0.5 and 100.
CLOSED_ORACLE_TOL = {0.01: 1.5e-12, 0.5: 2e-14, 100: 5e-14}


@pytest.mark.parametrize("g", [0.01, 0.5, 100])
def test_sector_route_matches_the_closed_forms(monkeypatch, g):
    for d in range(1, 13):
        v = potential_matrix(hypercube_graph(d), g)
        for w in range(1, d + 1):
            # The normal of the lowest w bits: the identity cut at w = 1, the
            # parity cut at w = d.
            cut = _hyperplane_cut(d, (1 << w) - 1)
            orders = _block_orders(monkeypatch)
            spectrum = gamma_spectrum(v, cut)
            stacks = _oracle_sectors(monkeypatch) if d > 1 else []
            oracle = entropy_oracle_symplectic(v, cut.side_a)
            monkeypatch.undo()
            # A hyperplane is its own translation group, of index 2: every
            # sector is 2 x 2, and the oracle's forms are 1 x 1.  At d = 1
            # that group is {0}, and the oracle stays dense.
            assert set(orders) == {2}
            assert [p4.shape[1:] for p4 in stacks] == [(1, 1)] * (d > 1)
            closed = gamma_hyperplane_cut(d, w, g)
            assert spectrum.mode_count() == closed.mode_count() == 1 << (d - 1)
            gap = np.abs(spectrum.expanded_gammas() - closed.expanded_gammas()).max()
            assert gap <= CLOSED_GAMMA_TOL, (d, w, gap)
            total = closed.total_entropy()
            assert abs(spectrum.total_entropy() - total) <= CLOSED_TOTAL_TOL * total
            assert abs(oracle - total) <= CLOSED_ORACLE_TOL[g] * total, (d, w)


def test_oracle_refuses_a_translation_that_moves_side_a(monkeypatch):
    v = potential_matrix(hypercube_graph(4), 0.5)
    side_a = named_bipartition(4, "parity").side_a
    basis = _translation_stabiliser(4, _indicator(16, side_a))
    # x -> x xor 1 swaps the parity cut's sides; so does any odd t.
    (f, t), rest = basis[-1], basis[:-1]
    for wrong in ([(0, 1)], rest + [(f, t ^ 1)]):
        monkeypatch.setattr(cosets, "_translation_stabiliser", lambda d, a: wrong)
        with pytest.raises(ConsistencyError):
            entropy_oracle_symplectic(v, side_a)
    monkeypatch.undo()
    assert entropy_oracle_symplectic(v, side_a) > 0


def test_oracle_sectors_hold_the_engine_sectors_v(monkeypatch):
    # The oracle sums its 4P_chi from V's distance profile over T; the
    # engine writes V_chi from its hops.  On A's cosets 4P_chi / 2 is V_chi.
    # Measured: bit for bit equal on all 405 sectors of these cuts.
    rng = np.random.default_rng(28)
    whiten = gaussian._whitened_couplings
    for d in (3, 4, 6, 8, 10):
        for k in sorted({1, d // 2, d - 1}):
            side_a, _ = _coset_union(rng, d, k)
            cut = Bipartition.from_side_a(1 << d, side_a)
            for g in (0.01, 0.5, 100):
                v = potential_matrix(hypercube_graph(d), g)
                blocks = []

                def recording(block, a, b):
                    blocks.extend(block(a, a))
                    return whiten(block, a, b)

                monkeypatch.setattr(gaussian, "_whitened_couplings", recording)
                gamma_spectrum(v, cut)
                stacks = _oracle_sectors(monkeypatch)
                entropy_oracle_symplectic(v, side_a)
                monkeypatch.undo()
                (p4,) = stacks
                assert len(p4) == len(blocks)
                for got, want in zip(p4 / 2, blocks):
                    ulp = np.spacing(np.abs(want).max())
                    assert np.abs(got - want).max() <= ulp, (d, k, g)
        assert _hyperplane_cut(d, 1) == named_bipartition(d, "identity_cut")
        assert _hyperplane_cut(d, (1 << d) - 1) == named_bipartition(d, "parity")


@pytest.mark.parametrize(
    "d, g, error", [(3, 1e12, SingularityError), (4, 1e15, SingularityError)]
)
def test_sector_route_refuses_as_the_dense_engine_does(d, g, error):
    # At g = 1e12 the largest parity ratio is within 1e-12 of 1; at
    # g = 1e15 it rounds to 1 itself.  V is positive definite either way:
    # the mode is non-normalizable in float64.
    v = potential_matrix(hypercube_graph(d), g)
    cut = named_bipartition(d, "parity")
    for w in (v, PotentialMatrix(v.matrix)):
        with pytest.raises(error):
            gamma_spectrum(w, cut)


def _digest(*spectra):
    rows = [(m.gamma, m.nu, float(m.degeneracy)) for s in spectra for m in s.modes]
    return hashlib.sha256(np.array(rows).tobytes()).hexdigest()


# sha256 of the (gamma, nu, degeneracy) rows of H(6,2) spectra, as the
# engine gave them before it had a sector route: a cut no translation maps
# onto itself on v, and the parity cut on a V without a table.
DENSE_DIGESTS = {
    (0.5, "trivial"): "242a6fc2dcfc84c3b63aa1ae3119d11eed8965c35487d6975832de0aa927cf19",
    (0.5, "untabled"): "007b08df1111960f4abb81a3ca9864cdeddca392e0225f81473011a0a64e43cb",
    (1e4, "trivial"): "1905b4e196053748272bf2ba734a50c904f26a1f0e323d30a85bad57841c67de",
    (1e4, "untabled"): "d534259d0972c62afb2e41458c145ec4d78f59b772595c9cc9d4c48c86164107",
}


def test_dense_route_keeps_its_bits():
    cut = named_bipartition(6, "parity")
    a, b = list(cut.side_a), list(cut.side_b)
    a[0], b[0] = b[0], a[0]
    trivial = Bipartition(a, b)
    assert _translation_stabiliser(6, _indicator(64, a)) == []
    for g in (0.5, 1e4):
        v = potential_matrix(hypercube_graph(6), g)
        assert _digest(gamma_spectrum(v, trivial)) == DENSE_DIGESTS[g, "trivial"]
        for w in (PotentialMatrix(v.matrix), np.array(v.matrix)):
            assert _digest(gamma_spectrum(w, cut)) == DENSE_DIGESTS[g, "untabled"]


# sha256 of the (gamma, nu, degeneracy) rows of sector-route spectra, as the
# engine gave them when it whitened each sector on its own: per (d, g), the
# spectra of _sector_cuts(d) one after another, with one BLAS thread.  The
# d = 10 entries were pinned at two threads first and pinned again at one;
# only the spectrum of the cut with one translation, two 512 x 512
# sectors, differs between the two.
SECTOR_DIGESTS = {
    (4, 0.01): "d616e5057faf2e898514b7a79861c79f85f8ea946ec92051f08f520c837afcb4",
    (4, 0.5): "aec469175019b33ba9c23e97bc4f6c05a2f603c5efcb3e91adc27b583adaffda",
    (4, 100): "3ac7c3966aa28dcbdba86450573323fd21e1f8e29a3ce05d634d4911fbd330d8",
    (4, 1e8): "7fd1193a72e483d20e82a11b6da5280483e8d6a190686308b1bd1b26c3907d71",
    (6, 0.01): "8c5c779c8b1086cff22c57b25bc2c48ab19feab318488cb43c063c51bb20f3ed",
    (6, 0.5): "077aadd3f202bca621b87dce37e576ce87ab74767ee1462686ef26e6a98356e0",
    (6, 100): "c58d7e0ccb0b6a9046c07daa6a1041d2836b1856e6ccd9cc2259ee1a908e794f",
    (6, 1e8): "1684ca2e4ae1935f8c1bd1b32d4219efdc256a91d5c8cd8168a0e1765ea062a4",
    (8, 0.01): "e6941cc6ab30e930cb17d2744d6c4e9ff02705d01b6799a2f4c069dd1509dc53",
    (8, 0.5): "aef0bbf378485b9ced3174fd01eb24d2a222f229219b8bb7d8411104aac4a7d0",
    (8, 100): "646e4de45be882829f5f54dab9f37b595362112bc6b54d2e4c3c805a1af9331a",
    (8, 1e8): "479d154a0f1a3456c87aecf9f14b13ecf74b0dee390008d3dc381565e8a09bc6",
    (10, 0.01): "9de66a7ef98fa72b4aa5eab08995c460efd1c2c25beecfd2818d0277522e1a6b",
    (10, 0.5): "145db1c2501dd7371341b5e8f0cc6ca2e2eaaced016e908d97faf3d3c2232cfa",
    (10, 100): "363fcb542aeeae88c0833a4364e254e614b0bd48eeab7de2e7b2c683ace39e16",
    (10, 1e8): "a17a421d5ea40649297524e3248907db18029afe4c7faa1a949e266bf057ea58",
}


def _sector_cuts(d):
    """Three random coset-union cuts of H(d,2), then the parity and the
    identity cut."""
    rng = np.random.default_rng(30 + d)
    cuts = [
        Bipartition.from_side_a(1 << d, _coset_union(rng, d, k)[0])
        for k in sorted({1, d // 2, d - 1})
    ]
    return cuts + [named_bipartition(d, "parity"), named_bipartition(d, "identity_cut")]


# Prints the digest of each coupling's spectra, one line per g, for the
# side A lists and couplings read as JSON from stdin.
_DIGEST_SCRIPT = (
    "import hashlib, json, sys\n"
    "import numpy as np\n"
    "from oscnet import Bipartition, gamma_spectrum, hypercube_graph, potential_matrix\n"
    "d, sides, couplings = json.load(sys.stdin)\n"
    "for g in couplings:\n"
    "    v = potential_matrix(hypercube_graph(d), g)\n"
    "    rows = [(m.gamma, m.nu, float(m.degeneracy)) for side in sides\n"
    "            for m in gamma_spectrum(v, Bipartition.from_side_a(1 << d, side)).modes]\n"
    "    print(hashlib.sha256(np.array(rows).tobytes()).hexdigest())\n"
)


def _one_thread_digests(d, cuts, couplings):
    """_DIGEST_SCRIPT's digests from a child process with one BLAS thread.

    From 128 rows up OpenBLAS's Cholesky rounds differently on one thread
    and on more, and the two 512 x 512 sectors of the H(10,2) cut with one
    translation reach it; output bits are defined at one BLAS thread, and
    a library cannot change the count once numpy has loaded.
    """
    src = os.path.dirname(os.path.dirname(oscnet.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT],
        input=json.dumps([d, [list(cut.side_a) for cut in cuts], list(couplings)]),
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.mark.parametrize("d", [4, 6, 8, 10])
def test_sector_route_keeps_its_bits_whatever_the_stack_size(monkeypatch, d):
    cuts = _sector_cuts(d)
    couplings = (0.01, 0.5, 100, 1e8)
    for g in couplings:
        v = potential_matrix(hypercube_graph(d), g)
        # The default budget, then one sector per stack, in this process
        # and at its BLAS thread count.
        digests = []
        for budget in (gaussian.STACK_BYTES, 1):
            monkeypatch.setattr(gaussian, "STACK_BYTES", budget)
            digests.append(_digest(*[gamma_spectrum(v, cut) for cut in cuts]))
        monkeypatch.undo()
        assert digests[0] == digests[1], g
    pinned = [SECTOR_DIGESTS[d, g] for g in couplings]
    assert _one_thread_digests(d, cuts, couplings) == pinned


def test_parity_sectors_take_one_stack_and_one_mode_per_ratio(monkeypatch):
    # The H(10,2) parity cut has ten distinct 2 x 2 sectors, all in one
    # stack: one Cholesky certifies it, two whiten it and one SVD takes its
    # values.  Each distinct ratio becomes one Mode, shared by its copies,
    # and each run of equal nu one entropy_from_nu call.
    v = potential_matrix(hypercube_graph(10), 0.5)
    cut = named_bipartition(10, "parity")
    calls = {}

    def counting(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((np.linalg, "svd"), (np.linalg, "cholesky"), (gaussian, "_mode")):
        counting(owner, name)
    spectrum = gamma_spectrum(v, cut)
    counting(gaussian, "entropy_from_nu")
    entropies = spectrum.entropies()
    monkeypatch.undo()
    distinct = len(set(spectrum.expanded_gammas().tolist()))
    assert calls["svd"] == 1
    assert calls["cholesky"] <= 3
    assert calls["_mode"] <= distinct <= 10
    assert calls["entropy_from_nu"] == len({m.nu for m in spectrum.modes})
    assert spectrum.mode_count() == len(spectrum.modes) == len(entropies) == 512
    assert len({id(m) for m in spectrum.modes}) == calls["_mode"]


def _quotient_form(rng, d, cut):
    """(M, S) of a coset-union cut of H(d,2): M's rows a random invertible
    mix of a basis of T^perp, S read off side A's labels."""
    rows = list(cut._quotient.normals)
    for _ in range(3 * len(rows)):
        i, j = rng.choice(len(rows), size=2, replace=len(rows) == 1)
        if i != j:
            rows[i] ^= rows[j]
    rng.shuffle(rows)
    image = [sum((bin(x & r).count("1") & 1) << j for j, r in enumerate(rows)) for x in range(1 << d)]
    subset = sorted({image[x] for x in cut.side_a})
    # A is every label whose image lies in S.
    assert sorted(x for x in range(1 << d) if image[x] in subset) == list(cut.side_a)
    normals = [[r >> a & 1 for a in range(d)] for r in rows]
    return normals, subset


def _expanded(spectrum):
    return [(m.gamma, m.nu) for m in spectrum.modes for _ in range(m.degeneracy)]


@pytest.mark.parametrize("d", [3, 4, 6, 8, 10])
def test_quotient_routes_match_the_label_routes(d):
    # From (M, S) both routes derive the sectors that the label routes
    # derive from side A, in the same order, so their bits agree; the
    # quotient engine lists each ratio once with its copies as degeneracy.
    rng = np.random.default_rng(40 + d)
    for cut in _sector_cuts(d):
        normals, subset = _quotient_form(rng, d, cut)
        for g in (0.01, 0.5, 100, 1e8):
            v = potential_matrix(hypercube_graph(d), g)
            labels = gamma_spectrum(v, cut)
            quotient = coset_cut_spectrum(d, normals, subset, g)
            assert len(quotient.modes) == len({m.gamma for m in quotient.modes})
            assert _expanded(quotient) == _expanded(labels)
            oracle = entropy_oracle_symplectic(v, cut)
            assert coset_cut_oracle(d, normals, subset, g) == oracle


# Measured worst differences from the closed forms over every weight at
# d = 13, 20, 40 and 60, relative: the engine's totals 3.7e-14 at g = 0.5
# and 5.2e-10 at g = 1e8 (the parity cut of H(13,2), whose top ratio is
# 1 - 1e-9), its sums of degeneracy * gamma 2.2e-16 and 3.2e-16, the
# oracle's totals 1.8e-13 and 2.8e-13; the top ratios 3.3e-16 apart.  The
# oracle's largest differences are on the low weights, whose weak modes
# lose digits in nu - 1 (ROADMAP item 11).
QUOTIENT_ENGINE_TOL = {0.5: 1e-13, 1e8: 1e-9}
QUOTIENT_GAMMA_TOL = 1e-15
QUOTIENT_ORACLE_TOL = {0.5: 4e-13, 1e8: 6e-13}


@pytest.mark.parametrize("g", [0.5, 1e8])
@pytest.mark.parametrize("d", [13, 20, 40, 60])
def test_quotient_routes_match_the_closed_forms_past_the_largest_graph(d, g):
    for w in range(1, d + 1):
        # The normal of the lowest w bits, S = {0}.
        normals = [[1] * w + [0] * (d - w)]
        closed = gamma_hyperplane_cut(d, w, g)
        spectrum = coset_cut_spectrum(d, normals, [0], g)
        assert spectrum.mode_count() == closed.mode_count() == 1 << (d - 1)
        total = closed.total_entropy()
        assert abs(spectrum.total_entropy() - total) <= QUOTIENT_ENGINE_TOL[g] * total
        weighted = [math.fsum(m.degeneracy * m.gamma for m in s.modes) for s in (closed, spectrum)]
        assert abs(weighted[1] - weighted[0]) <= QUOTIENT_GAMMA_TOL * weighted[0], w
        assert abs(spectrum.modes[0].gamma - closed.modes[0].gamma) <= QUOTIENT_GAMMA_TOL
        oracle = coset_cut_oracle(d, normals, [0], g)
        assert abs(oracle - total) <= QUOTIENT_ORACLE_TOL[g] * total, w


def test_quotient_routes_hold_no_label_sized_buffer():
    # H(40,2) has 2^40 labels, so one float per label would take 8 TiB;
    # both routes of its parity cut hold its 40 distinct 2 x 2 sectors and
    # arrays of O(d) values per sector.  Measured peaks, warm: 41 kB for
    # the engine, 327 kB for the oracle, mostly the list of 82 exact terms
    # per entry that its fsums read.
    normals = [[1] * 40]
    for call in (coset_cut_spectrum, coset_cut_oracle):
        call(40, normals, [0], 0.5)
        tracemalloc.start()
        try:
            call(40, normals, [0], 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20, (call, peak)


def test_quotient_routes_refuse_what_names_no_cut():
    parity = [[1] * 4]
    for call in (coset_cut_spectrum, coset_cut_oracle):
        # A rank-deficient M, out-of-range S, S empty or all of F_2^c.
        for normals, subset in (
            ([[1, 1, 0, 0], [1, 1, 0, 0]], [0]),
            ([[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]], [0]),
            ([[0, 0, 0, 0]], [0]),
            (parity, [2]),
            (parity, [-1]),
            (parity, []),
            (parity, [0, 1]),
            (parity, [0, 0]),
            (parity, [0.0]),
            (parity, [True]),
            ([[1, 2, 0, 1]], [0]),
            ([[1.0, 1.0, 1.0, 1.0]], [0]),
            ([[1, 1, 1]], [0]),
            ([1, 1, 1, 1], [0]),
            (np.zeros((0, 4), dtype=int), [0]),
        ):
            with pytest.raises(ValueError):
                call(4, normals, subset, 0.5)
        # d outside 1..62, and a coupling potential_matrix refuses.
        for d in (0, 63, 4.0, True):
            with pytest.raises(GraphSizeError):
                call(d, [[1] * 63], [0], 0.5)
        for g in (math.nan, math.inf, -math.inf, 1e300):
            with pytest.raises(DomainError):
                call(4, parity, [0], g)
        # lambda_min(V) = 1 + 16g: certified at g = -0.06, refused at -0.07,
        # by the engine on its V_chi and by the oracle on 1 + 4gw.
        assert call(4, parity, [0], -0.06) is not None
        with pytest.raises(DefinitenessError, match="g too negative"):
            call(4, parity, [0], -0.07)
    # More distinct sectors than MAX_SECTOR_ENTRIES values: 19 sectors of
    # 4096 cosets, refused before any is built.
    first = [[int(a == j) for a in range(30)] for j in range(12)]
    with pytest.raises(GraphSizeError, match="distinct sectors"):
        coset_cut_spectrum(30, first, [0], 0.5)


def test_quotient_routes_refuse_as_the_label_routes_do_at_strong_coupling():
    # The top parity ratio of H(4,2) rounds to 1 at g = 1e15, as on V.
    with pytest.raises(SingularityError):
        coset_cut_spectrum(4, [[1] * 4], [0], 1e15)

"""Ladder blocks, stratified adjacency, Krawtchouk polynomials."""

import math

import numpy as np
import pytest

from oscnet import (
    GraphSizeError,
    block_table,
    hypercube_graph,
    hypercube_spectrum,
    krawtchouk,
    spin_x_block,
    stratified_adjacency,
)
from oscnet.stratify import MAX_DIMENSION


def test_spin_x_block_entries():
    assert spin_x_block(1).tolist() == [[0.0]]
    assert np.allclose(spin_x_block(2), [[0, 1], [1, 0]])
    b4 = spin_x_block(4)
    off = np.diag(b4, 1)
    assert np.allclose(off, [math.sqrt(3), 2.0, math.sqrt(3)])
    assert np.allclose(b4, b4.T)
    assert np.allclose(np.diag(b4), 0.0)


def test_spin_x_block_spectrum_is_equispaced_ladder():
    for dim in range(1, 12):
        m = dim - 1
        eig = np.linalg.eigvalsh(spin_x_block(dim))
        assert np.allclose(eig, np.arange(-m, m + 1, 2), atol=1e-9)


def test_block_table_small_cases():
    assert block_table(1) == [(2, 1)]
    assert block_table(3) == [(4, 1), (2, 2)]
    assert block_table(4) == [(5, 1), (3, 3), (1, 2)]


def test_block_table_counts():
    for d in range(1, 11):
        table = block_table(d)
        assert sum(dim * deg for dim, deg in table) == 2 ** d
        for k, (dim, deg) in enumerate(table):
            assert dim == d + 1 - 2 * k
            expect = math.comb(d, k) - (math.comb(d, k - 1) if k else 0)
            assert deg == expect
            assert deg >= 1


def test_stratified_adjacency_d3_matrix():
    s3 = math.sqrt(3)
    top = np.array(
        [
            [0, s3, 0, 0],
            [s3, 0, 2, 0],
            [0, 2, 0, s3],
            [0, 0, s3, 0],
        ]
    )
    pair = np.array([[0, 1], [1, 0]])
    expect = np.zeros((8, 8))
    expect[:4, :4] = top
    expect[4:6, 4:6] = pair
    expect[6:8, 6:8] = pair
    assert np.allclose(stratified_adjacency(3), expect)


def test_stratified_adjacency_d1():
    assert np.allclose(stratified_adjacency(1), spin_x_block(2))


def test_stratified_spectra_match_vertex_basis():
    for d in range(1, 11):
        dense = np.linalg.eigvalsh(hypercube_graph(d).adjacency_matrix())
        strat = np.linalg.eigvalsh(stratified_adjacency(d))
        assert np.abs(np.sort(dense) - np.sort(strat)).max() < 1e-9


def test_krawtchouk_values():
    # l = 0 is constant 1; l = 1 is the eigenvalue line d - 2x
    for d in range(1, 7):
        for x in range(d + 1):
            assert krawtchouk(0, x, d) == 1
            assert krawtchouk(1, x, d) == d - 2 * x
    assert [krawtchouk(1, x, 3) for x in range(4)] == [3, 1, -1, -3]
    assert [krawtchouk(2, x, 4) for x in range(5)] == [6, 0, -2, 0, 6]


def test_krawtchouk_against_direct_sum():
    for d in range(7):
        for l in range(d + 1):
            for x in range(d + 1):
                direct = sum(
                    (-1) ** i * math.comb(x, i) * math.comb(d - x, l - i)
                    for i in range(l + 1)
                )
                assert krawtchouk(l, x, d) == direct


def test_krawtchouk_orthogonality():
    # sum_x C(d,x) K_l(x) K_m(x) = 2^d C(d,l) delta_lm, exactly in integers
    for d in range(1, 9):
        for l in range(d + 1):
            for m in range(l, d + 1):
                acc = sum(
                    math.comb(d, x) * krawtchouk(l, x, d) * krawtchouk(m, x, d)
                    for x in range(d + 1)
                )
                expect = 2 ** d * math.comb(d, l) if l == m else 0
                assert acc == expect


def test_krawtchouk_domain():
    with pytest.raises(ValueError):
        krawtchouk(4, 0, 3)
    with pytest.raises(ValueError):
        krawtchouk(0, 4, 3)
    with pytest.raises(ValueError):
        krawtchouk(-1, 0, 3)


def test_hypercube_spectrum_tables():
    assert hypercube_spectrum(1) == [(1, 1), (-1, 1)]
    assert hypercube_spectrum(3) == [(3, 1), (1, 3), (-1, 3), (-3, 1)]
    for d in range(1, 9):
        spec = hypercube_spectrum(d)
        assert sum(mult for _, mult in spec) == 2 ** d
        assert sum(val * mult for val, mult in spec) == 0
        expanded = np.sort(np.repeat([v for v, _ in spec], [m for _, m in spec]))
        dense = np.sort(np.linalg.eigvalsh(hypercube_graph(d).adjacency_matrix()))
        assert np.abs(expanded - dense).max() < 1e-9
    # both ladder tables stop at the closed forms' dimension limit
    for table in (block_table, hypercube_spectrum):
        assert table(MAX_DIMENSION)
        for d in (0, MAX_DIMENSION + 1):
            with pytest.raises(GraphSizeError, match="1..%d" % MAX_DIMENSION):
                table(d)

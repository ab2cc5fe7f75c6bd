"""Closed-form spectra against the numerical engines and exact values."""

import math

import numpy as np
import pytest

from oscnet import (
    DomainError,
    SchemeError,
    analytic_entropy,
    entropy_from_nu,
    entropy_oracle_symplectic,
    gamma_half_strata,
    gamma_identity_cut,
    gamma_parity_cut,
    gamma_spectrum,
    hypercube_graph,
    named_bipartition,
    nu_from_gamma,
    potential_matrix,
    q_polynomial,
    spin_x_block,
)


def _poly_mul_x(coeffs):
    return (0,) + tuple(coeffs)


def _poly_sub(a, b):
    width = max(len(a), len(b))
    a = tuple(a) + (0,) * (width - len(a))
    b = tuple(b) + (0,) * (width - len(b))
    return tuple(x - y for x, y in zip(a, b))


def test_q_polynomial_base_cases():
    for x in (0.0, 1.0, 4.0, -2.5):
        assert q_polynomial(0, x, 3) == 1.0
        assert q_polynomial(1, x, 3) == x


def test_q_polynomial_low_orders():
    # Q_2 = x^2 - omega_1 with omega_1 = d_block
    assert q_polynomial(2, 4.0, 3) == 13.0
    assert q_polynomial(2, 4.0, 5) == 11.0
    # Q_3 = x^3 - (omega_1 + omega_2) x for d_block = 5: omega = 5, 8
    assert q_polynomial(3, 2.0, 5) == 2.0 ** 3 - 13.0 * 2.0
    assert q_polynomial(3, 4.0, 5) == 4.0 ** 3 - 13.0 * 4.0


def _q_coefficients(n, d_block):
    """Integer coefficients of Q_0..Q_n, ascending powers of x."""
    rows = [(1,), (0, 1)]
    for j in range(2, n + 1):
        omega = (j - 1) * (d_block - (j - 1) + 1)
        rows.append(
            _poly_sub(_poly_mul_x(rows[j - 1]), tuple(omega * c for c in rows[j - 2]))
        )
    return rows[: n + 1]


def test_q_polynomial_sequence_coefficients():
    # Q_0..Q_3 for d_block = 5, where omega_1, omega_2 = 5, 8
    coefficients = ((1,), (0, 1), (-5, 0, 1), (0, -13, 0, 1))
    assert tuple(_q_coefficients(3, 5)) == coefficients
    for k, coeffs in enumerate(coefficients):
        for x in (0.5, 1.0, 3.0, 7.0):
            want = sum(c * x ** p for p, c in enumerate(coeffs))
            assert abs(q_polynomial(k, x, 5) - want) < 1e-9


def test_q_polynomial_sequence_against_symbolic_recursion():
    # independent integer polynomial arithmetic, same recursion; at small
    # integer x every value is an exactly representable integer
    for d_block in range(1, 10):
        for k, coeffs in enumerate(_q_coefficients(6, d_block)):
            for x in range(-3, 8):
                exact = sum(c * x ** p for p, c in enumerate(coeffs))
                assert q_polynomial(k, float(x), d_block) == exact


def test_q_polynomial_matches_continued_fraction():
    # Q_n = prod D_j with D_1 = x, D_j = x - omega_{j-1}/D_{j-1}
    rng = np.random.default_rng(2)
    for d_block in (1, 3, 5, 7, 9):
        for _ in range(5):
            x = float(rng.uniform(d_block + 0.5, d_block + 12.0))
            n_max = (d_block + 1) // 2
            d_val = x
            product = x
            for n in range(2, n_max + 1):
                omega = (n - 1) * (d_block - (n - 1) + 1)
                d_val = x - omega / d_val
                product *= d_val
            assert abs(q_polynomial(n_max, x, d_block) - product) < 1e-9 * abs(product)


def test_q_polynomial_validation():
    with pytest.raises(ValueError):
        q_polynomial(-1, 1.0, 3)
    with pytest.raises(ValueError):
        q_polynomial(2, 1.0, 0)


def test_identity_cut_small_cases():
    spec = gamma_identity_cut(1, 0.5)
    assert len(spec.modes) == 1
    assert abs(spec.modes[0].gamma - 0.5) < 1e-15

    spec = gamma_identity_cut(3, 0.5)
    table = sorted((m.gamma, m.degeneracy) for m in spec.modes)
    expect = sorted([(0.5, 1), (0.25, 2), (1.0 / 6.0, 1)])
    assert len(table) == len(expect)
    for (g_got, d_got), (g_want, d_want) in zip(table, expect):
        assert abs(g_got - g_want) < 1e-14
        assert d_got == d_want


def test_identity_cut_entropy_closed_form():
    # entropy assembled mode by mode from the ratio formula
    g = 0.5
    total = analytic_entropy("identity_cut", 3, g)
    by_hand = (
        entropy_from_nu(nu_from_gamma(0.5))
        + 2 * entropy_from_nu(nu_from_gamma(0.25))
        + entropy_from_nu(nu_from_gamma(1.0 / 6.0))
    )
    assert abs(total - by_hand) < 1e-12


def test_parity_cut_small_cases():
    spec = gamma_parity_cut(2, 0.25)
    gammas = spec.expanded_gammas()
    assert len(gammas) == 2
    assert abs(gammas[0] - 0.5) < 1e-12
    assert gammas[1] == 0.0

    g = 0.7
    spec = gamma_parity_cut(3, g)
    gammas = np.sort(spec.expanded_gammas())[::-1]
    pref = 2 * g / (1 + 6 * g)
    expect = np.array([3 * pref, pref, pref, pref])
    assert np.abs(gammas - expect).max() < 1e-12


def test_parity_top_block_couples_with_integer_strengths():
    # singular values of the even-to-odd coupling of the largest block are
    # 1, 3, ..., d for odd d and 2, 4, ..., d for even d
    for d in range(1, 9):
        blk = spin_x_block(d + 1)
        even = [j for j in range(d + 1) if j % 2 == 0]
        odd = [j for j in range(d + 1) if j % 2 == 1]
        sv = np.sort(np.linalg.svd(blk[np.ix_(even, odd)], compute_uv=False))
        expect = np.arange(2 - d % 2, d + 1, 2)
        assert sv.size == expect.size
        assert np.abs(sv - expect).max() < 1e-10
        # and they appear in the parity spectrum scaled by 2g/(1+2gd)
        g = 0.4
        pref = 2 * g / (1 + 2 * g * d)
        gammas = gamma_parity_cut(d, g).expanded_gammas()
        for s in expect:
            assert np.abs(gammas - pref * s).min() < 1e-12


def test_mode_counts():
    for d in range(1, 10):
        assert gamma_identity_cut(d, 0.3).mode_count() == 2 ** (d - 1)
        assert gamma_parity_cut(d, 0.3).mode_count() == 2 ** (d - 1)
        if d % 2 == 1:
            count = gamma_half_strata(d, 0.3).mode_count()
            assert count == math.comb(d, (d - 1) // 2)


def test_half_strata_small_cases():
    spec = gamma_half_strata(1, 0.5)
    assert len(spec.modes) == 1
    assert abs(spec.modes[0].gamma - 0.5) < 1e-14

    g = 0.5
    x = 3 + 1 / (2 * g)  # = 4
    spec = gamma_half_strata(3, g)
    table = sorted((m.gamma, m.degeneracy) for m in spec.modes)
    expect = sorted([(2 * x / (x * x - 3), 1), (1 / x, 2)])
    for (g_got, d_got), (g_want, d_want) in zip(table, expect):
        assert abs(g_got - g_want) < 1e-13
        assert d_got == d_want


def test_half_strata_d5_top_ratio():
    for g in (0.2, 0.5, 1.0):
        x = 5 + 1 / (2 * g)
        spec = gamma_half_strata(5, g)
        top = max(m.gamma for m in spec.modes)
        expect = 3 * (x * x - 5) / (x ** 3 - 13 * x)
        assert abs(top - expect) < 1e-12


def test_half_strata_even_dimension_rejected():
    with pytest.raises(SchemeError):
        gamma_half_strata(4, 0.5)
    with pytest.raises(SchemeError):
        analytic_entropy("half_strata", 2, 0.5)


def test_half_strata_modes_match_engine():
    for d in (3, 5, 7):
        for g in (0.5, 1.0):
            v = potential_matrix(hypercube_graph(d), g)
            cut = named_bipartition(d, "half_strata")
            engine = gamma_spectrum(v, cut).expanded_gammas()
            engine = np.sort(engine[engine > 1e-10])[::-1]
            closed = np.sort(gamma_half_strata(d, g).expanded_gammas())[::-1]
            assert engine.size == closed.size
            assert np.abs(engine - closed).max() < 1e-10


def test_zero_coupling_spectra_are_trivial():
    for builder in (gamma_identity_cut, gamma_parity_cut):
        spec = builder(4, 0.0)
        assert spec.total_entropy() == 0.0
        assert np.all(spec.expanded_gammas() == 0.0)
    spec = gamma_half_strata(5, 0.0)
    assert spec.total_entropy() == 0.0
    assert np.all(spec.expanded_gammas() == 0.0)


# Every accepted spelling of each named cut.
CUT_SPELLINGS = (
    ("identity_cut", "identity-cut", "coordinate"),
    ("parity_cut", "parity"),
    ("half_strata", "half-strata"),
)


def test_every_spelling_of_a_cut_names_the_same_cut():
    for spellings in CUT_SPELLINGS:
        for d in (3, 5):
            sides = {named_bipartition(d, name).side_a for name in spellings}
            values = {analytic_entropy(name, d, 0.5) for name in spellings}
            assert len(sides) == 1
            assert len(values) == 1


def test_unknown_cut_name_rejected_everywhere():
    for name in ("parity-cut", "Parity", "half strata", ""):
        with pytest.raises(SchemeError):
            named_bipartition(3, name)
        with pytest.raises(SchemeError):
            analytic_entropy(name, 3, 0.5)


def test_analytic_domain_checks():
    with pytest.raises(DomainError):
        gamma_identity_cut(3, -0.1)
    with pytest.raises(DomainError):
        gamma_identity_cut(0, 0.5)
    for closed_form in (gamma_identity_cut, gamma_parity_cut, gamma_half_strata):
        for g in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                closed_form(3, g)
        # -0.0 is the coupling 0: every mode is an exact zero with gamma +0.0
        spectrum = closed_form(3, -0.0)
        assert all(math.copysign(1.0, m.gamma) == 1.0 for m in spectrum.modes)
        assert spectrum.total_entropy() == 0.0
    with pytest.raises(SchemeError):
        analytic_entropy("diagonal", 3, 0.5)


def test_gammas_stay_in_unit_interval():
    for d in range(1, 10):
        for g in (0.1, 0.5, 1.0, 5.0):
            for builder in (gamma_identity_cut, gamma_parity_cut):
                gammas = builder(d, g).expanded_gammas()
                assert gammas.min() >= 0.0 and gammas.max() < 1.0
            if d % 2 == 1:
                gammas = gamma_half_strata(d, g).expanded_gammas()
                assert gammas.min() >= 0.0 and gammas.max() < 1.0


def test_closed_forms_agree_with_oracle():
    pairs = [("identity_cut", "coordinate"), ("parity_cut", "parity")]
    for d in range(1, 7):
        for scheme, cut_name in pairs:
            for g in (0.1, 1.0):
                cut = named_bipartition(d, cut_name)
                v = potential_matrix(hypercube_graph(d), g)
                oracle = entropy_oracle_symplectic(v, cut.side_a)
                closed = analytic_entropy(scheme, d, g)
                assert abs(closed - oracle) < 1e-9
    for d in (1, 3, 5):
        for g in (0.1, 1.0):
            cut = named_bipartition(d, "half_strata")
            v = potential_matrix(hypercube_graph(d), g)
            oracle = entropy_oracle_symplectic(v, cut.side_a)
            closed = analytic_entropy("half_strata", d, g)
            assert abs(closed - oracle) < 1e-9


def test_parity_dominates_identity_cut():
    # the parity cut severs d 2^(d-1) edges, the coordinate cut 2^(d-1)
    for d in (2, 3, 4):
        for g in (0.1, 0.5, 1.0):
            assert analytic_entropy("parity_cut", d, g) > analytic_entropy(
                "identity_cut", d, g
            )

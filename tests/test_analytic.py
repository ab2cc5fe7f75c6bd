"""Closed-form spectra against the numerical engines and exact values."""

import math
import sys
from fractions import Fraction

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
    spin_x_block,
)
from oscnet.analytic import CLOSED_FORMS, MAX_DIMENSION, _q_ratio
from oscnet.stratify import block_table


def _poly_mul_x(coeffs):
    return (0,) + tuple(coeffs)


def _poly_sub(a, b):
    width = max(len(a), len(b))
    a = tuple(a) + (0,) * (width - len(a))
    b = tuple(b) + (0,) * (width - len(b))
    return tuple(x - y for x, y in zip(a, b))


# Q_n enters the library only through _q_ratio = Q_{n-1}/Q_n; these tests
# check that ratio against Q_n built independently, at the same orders.


def _q_values(n, x, d_block):
    """Q_0(x)..Q_n(x) by the forward three-term recursion, exact when x is a
    Fraction."""
    q = [1, x]
    for j in range(2, n + 1):
        omega = (j - 1) * (d_block - (j - 1) + 1)
        q.append(x * q[-1] - omega * q[-2])
    return q[: n + 1]


def test_q_polynomial_base_cases():
    # Q_0 = 1 and Q_1 = x, whatever the block
    for x in (1.0, 4.0, -2.5, 1e300):
        for d_block in (1, 3, 9):
            assert _q_ratio(1, x, d_block) == 1.0 / x


def test_q_polynomial_low_orders():
    # Q_2 = x^2 - omega_1 with omega_1 = d_block
    assert _q_ratio(2, 4.0, 3) == 4.0 / 13.0
    assert _q_ratio(2, 4.0, 5) == 4.0 / 11.0
    # Q_3 = x^3 - (omega_1 + omega_2) x for d_block = 5: omega = 5, 8
    assert _q_ratio(3, 2.0, 5) == 1.0 / 18.0
    assert abs(_q_ratio(3, 4.0, 5) - 11.0 / 12.0) <= math.ulp(11.0 / 12.0)


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
    for k in range(1, len(coefficients)):
        for x in (0.5, 1.0, 3.0, 7.0):
            below, top = (
                sum(c * x**p for p, c in enumerate(coefficients[i]))
                for i in (k - 1, k)
            )
            assert abs(_q_ratio(k, x, 5) - below / top) < 1e-15 * abs(below / top)


def test_q_polynomial_sequence_against_symbolic_recursion():
    # independent integer polynomial arithmetic; above the block's spectral
    # radius every Q_j is positive and the float ratio is within 2k eps/2
    for d_block in range(1, 10):
        rows = _q_coefficients(6, d_block)
        for x in range(d_block + 1, d_block + 8):
            q = [sum(c * x**p for p, c in enumerate(coeffs)) for coeffs in rows]
            assert q == _q_values(6, x, d_block)
            for k in range(1, 7):
                exact = Fraction(q[k - 1], q[k])
                got = Fraction(_q_ratio(k, float(x), d_block))
                assert abs(got - exact) <= k * Fraction(2, 2**53) * exact


def test_q_polynomial_matches_continued_fraction():
    # Q_n / Q_{n-1} = D_n with D_1 = x, D_j = x - omega_{j-1}/D_{j-1}
    rng = np.random.default_rng(2)
    for d_block in (1, 3, 5, 7, 9):
        for _ in range(5):
            x = float(rng.uniform(d_block + 0.5, d_block + 12.0))
            n_max = (d_block + 1) // 2
            d_val = x
            for n in range(2, n_max + 1):
                omega = (n - 1) * (d_block - (n - 1) + 1)
                d_val = x - omega / d_val
            assert abs(_q_ratio(n_max, x, d_block) * d_val - 1.0) < 1e-15


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


def _parity_by_ladder_blocks(d, g):
    """Parity-cut (gamma, degeneracy) rows the long way round: one SVD of
    the even-to-odd coupling inside each ladder block, scaled by
    2g/(1+2gd), and one zero row per even stratum a block leaves
    unpaired."""
    pref = 2.0 * g / (1.0 + 2.0 * g * d)
    rows = []
    for dim, deg in block_table(d):
        k = (d + 1 - dim) // 2
        even = [j for j in range(dim) if (k + j) % 2 == 0]
        odd = [j for j in range(dim) if (k + j) % 2 == 1]
        rows += [(0.0, deg)] * (len(even) - min(len(even), len(odd)))
        if even and odd:
            coupling = spin_x_block(dim)[np.ix_(even, odd)]
            for sv in np.linalg.svd(coupling, compute_uv=False):
                rows.append((pref * float(sv), deg))
    return rows


@pytest.mark.parametrize("g", [1e-8, 1e-4, 0.5, 7.3, 1e4, 1e8])
def test_parity_cut_reads_the_hypercube_spectrum(g):
    for d in range(1, 15):
        spectrum = gamma_parity_cut(d, g)
        reference = _parity_by_ladder_blocks(d, g)
        expanded = np.sort([gam for gam, deg in reference for _ in range(deg)])
        got = spectrum.expanded_gammas()
        assert got.size == expanded.size
        assert np.abs(got - expanded[::-1]).max() <= 1e-12 * expanded[-1]
        assert spectrum.mode_count() == 2 ** (d - 1)
        # one row per positive eigenvalue d - 2i, with gamma exactly
        # pref * (d - 2i), then the zero modes of even d
        pref = 2.0 * g / (1.0 + 2.0 * g * d)
        want = [(pref * (d - 2 * i), math.comb(d, i)) for i in range((d + 1) // 2)]
        if d % 2 == 0:
            want.append((0.0, math.comb(d, d // 2) // 2))
        assert [(m.gamma, m.degeneracy) for m in spectrum.modes] == want


# Worst measured relative errors of the parity totals against 50-digit
# mpmath over d = 1..15 in both log bases: 3.3e-9 at 1e-4, 5.8e-15 at 0.1,
# 2.3e-15 at 0.5, 1.7e-15 at 7.3, 8.8e-15 at 1e4, 2.0e-12 at 1e8.  Weak
# coupling loses digits in the entropy of a nu near 1, strong coupling in
# the entropy of a large nu; a nu near its pole comes from the exact
# 1 - gamma.
PARITY_TOTAL_BOUND = {1e-4: 7e-9, 0.1: 1.2e-14, 0.5: 5e-15, 7.3: 4e-15,
                      1e4: 2e-14, 1e8: 4e-12}


@pytest.mark.parametrize("g", sorted(PARITY_TOTAL_BOUND))
def test_parity_cut_totals_match_mpmath(g):
    mpmath = pytest.importorskip("mpmath")
    for d in range(1, 16):
        for log_base in ("2", "e"):
            with mpmath.workdps(50):
                q = mpmath.mpf(g)
                want = mpmath.mpf(0)
                for i in range((d + 1) // 2):
                    gamma = 2 * q * (d - 2 * i) / (1 + 2 * q * d)
                    nu = 1 / mpmath.sqrt(1 - gamma**2)
                    up, dn = (nu + 1) / 2, (nu - 1) / 2
                    entropy = up * mpmath.log(up) - dn * mpmath.log(dn)
                    want += math.comb(d, i) * entropy
                if log_base == "2":
                    want /= mpmath.log(2)
                got = gamma_parity_cut(d, g).total_entropy(log_base)
                assert abs(got - want) <= PARITY_TOTAL_BOUND[g] * want


# Worst measured relative error of a nu against 50-digit mpmath over
# d = 1..15 at g = 1e8: 1.8e-16 for both cuts (1.7e-7 parity and 5.4e-10
# identity when nu was taken from 1.0 - gamma).
NU_STRONG_BOUND = 4e-16


def _parity_gammas(d, q):
    return [2 * q * (d - 2 * i) / (1 + 2 * q * d) for i in range((d + 1) // 2)]


def _identity_gammas(d, q):
    return [2 * q / (1 + 2 * q * (1 + 2 * i)) for i in range(d)]


@pytest.mark.parametrize(
    "closed_form, gammas",
    [(gamma_parity_cut, _parity_gammas), (gamma_identity_cut, _identity_gammas)],
    ids=["parity", "identity"],
)
def test_strong_coupling_nu_matches_mpmath(closed_form, gammas):
    mpmath = pytest.importorskip("mpmath")
    g = 1e8
    for d in range(1, 16):
        got = [m.nu for m in closed_form(d, g).modes if m.gamma > 0.0]
        with mpmath.workdps(50):
            want = [1 / mpmath.sqrt(1 - x**2) for x in gammas(d, mpmath.mpf(g))]
            assert len(got) == len(want)
            for nu, ref in zip(got, want):
                assert abs(nu - ref) <= NU_STRONG_BOUND * ref


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


def test_engine_matches_closed_forms_on_dense_blocks():
    # Unlike the parity cut's, these cuts' blocks V_AA and V_BB are not
    # diagonal, and at 128 and 256 vertices a side the blocked triangular
    # solve of the engine recurses through its off-diagonal updates.
    for scheme, d in (("half_strata", 9), ("identity_cut", 8)):
        cut = named_bipartition(d, scheme)
        for g in (1e-4, 0.5, 1e4):
            v = potential_matrix(hypercube_graph(d), g)
            spectrum = gamma_spectrum(v, cut)
            closed = CLOSED_FORMS[scheme](d, g)
            assert abs(spectrum.total_entropy() - closed.total_entropy()) < 1e-9
            engine = spectrum.expanded_gammas()
            want = closed.expanded_gammas()
            assert np.abs(engine[: want.size] - want).max() < 1e-13
            assert np.all(engine[want.size :] < 1e-12)


def test_zero_coupling_spectra_are_trivial():
    for builder in (gamma_identity_cut, gamma_parity_cut):
        spec = builder(4, 0.0)
        assert spec.total_entropy() == 0.0
        assert np.all(spec.expanded_gammas() == 0.0)
    spec = gamma_half_strata(5, 0.0)
    assert spec.total_entropy() == 0.0
    assert np.all(spec.expanded_gammas() == 0.0)


def test_closed_forms_take_no_log_base_and_list_modes_descending():
    for builder in (gamma_identity_cut, gamma_parity_cut, gamma_half_strata):
        with pytest.raises(TypeError):
            builder(3, 0.5, log_base=2)
        with pytest.raises(TypeError):
            builder(3, 0.5, "e")
        gammas = [m.gamma for m in builder(5, 0.5).modes]
        assert gammas == sorted(gammas, reverse=True)
    nats = analytic_entropy("parity", 5, 0.5, "e")
    assert nats == gamma_parity_cut(5, 0.5).total_entropy("e")


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
        # finite, but 2g*d overflows
        for d, g in ((3, 1e308), (9, 1e308), (3, 5e307)):
            with pytest.raises(DomainError, match="1 \\+ 2g\\*d"):
                closed_form(d, g)
        # -0.0 is the coupling 0: every mode is an exact zero with gamma +0.0
        spectrum = closed_form(3, -0.0)
        assert all(math.copysign(1.0, m.gamma) == 1.0 for m in spectrum.modes)
        assert spectrum.total_entropy() == 0.0
    with pytest.raises(SchemeError):
        analytic_entropy("diagonal", 3, 0.5)


def test_closed_forms_take_numpy_integers_and_refuse_bool():
    for closed_form in (gamma_identity_cut, gamma_parity_cut, gamma_half_strata):
        for d in (np.int64(3), np.uint8(3)):
            assert closed_form(d, 0.5) == closed_form(3, 0.5)
        for bad in (True, np.True_):
            with pytest.raises(DomainError, match="positive integer"):
                closed_form(bad, 0.5)


def test_dimension_cap_keeps_degeneracies_in_float_range():
    # C(d, d // 2) bounds every closed form's degeneracies
    assert math.comb(MAX_DIMENSION, MAX_DIMENSION // 2) <= sys.float_info.max
    assert math.comb(MAX_DIMENSION + 1, (MAX_DIMENSION + 1) // 2) > sys.float_info.max
    for closed_form in (gamma_identity_cut, gamma_parity_cut, gamma_half_strata):
        with pytest.raises(DomainError, match="d <= %d" % MAX_DIMENSION):
            closed_form(MAX_DIMENSION + 2, 0.5)


# Worst measured relative errors of the half-strata gammas against 50-digit
# mpmath where Q_n overflows a float: 2.2e-16 at (267, 0.5), 2.4e-16 at
# (269, 0.5), 1.5e-16 at (81, 1e-8), 2.4e-15 at (1029, 1e8).
HALF_STRATA_BOUND = {(267, 0.5): 5e-16, (269, 0.5): 5e-16, (81, 1e-8): 4e-16,
                     (1029, 1e8): 5e-15}


def test_half_strata_past_the_overflow_of_q_n_matches_mpmath():
    # The forward recursion for Q_n overflows a float at these points, but
    # the ratio recursion never forms Q_n.
    mpmath = pytest.importorskip("mpmath")
    for (d, g), bound in HALF_STRATA_BOUND.items():
        top = _q_values((d + 1) // 2, d + 1.0 / (2.0 * g), d)[-1]
        assert not math.isfinite(top)
        spectrum = gamma_half_strata(d, g)
        assert math.isfinite(spectrum.total_entropy())
        want = []
        with mpmath.workdps(50):
            x = d + 1 / (2 * mpmath.mpf(g))
            for dim, deg in block_table(d):
                prev, cur = mpmath.mpf(1), x
                for j in range(2, dim // 2 + 1):
                    prev, cur = cur, x * cur - (j - 1) * (dim - j + 1) * prev
                want.append((dim * prev / (2 * cur), deg))
        want.sort(reverse=True)
        assert [m.degeneracy for m in spectrum.modes] == [deg for _, deg in want]
        for m, (gamma, _) in zip(spectrum.modes, want):
            assert abs(m.gamma - gamma) <= bound * gamma


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

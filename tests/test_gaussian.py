"""Entropy engines: mode parameters, Schmidt spectra, oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from oscnet import (
    Bipartition,
    ConsistencyError,
    DefinitenessError,
    DomainError,
    Graph,
    Mode,
    ModeSpectrum,
    PotentialMatrix,
    SingularityError,
    entropy_from_nu,
    entropy_of_bipartition,
    entropy_oracle_symplectic,
    gamma_spectrum,
    hypercube_graph,
    named_bipartition,
    nu_from_gamma,
    potential_matrix,
    schmidt_spectrum,
)
from oscnet.gaussian import (
    NU_SLACK,
    SOLVE_LEAF,
    _entropy_from_cov,
    _norm_log_base,
    _position_covariance,
    _solve_lower,
    _stacked_forms,
    _stacked_triangles,
    _symplectic_nus,
)

# Two coupled oscillators (V = [[2,-1],[-1,2]], g = 0.5) in high precision.
NU_TWO_NODE = 1.1547005383792515  # 2/sqrt(3)
S_TWO_NODE_BITS = 0.4014135460857287
S_TWO_NODE_NATS = 0.2782386677078925


def _random_instance(rng, n_max=12):
    """Random graph potential and a random proper subset of its vertices."""
    n = int(rng.integers(4, n_max + 1))
    pairs = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
    ]
    if not pairs:
        pairs = [(0, n - 1)]
    graph = Graph(n, np.array(sorted(pairs), dtype=np.int64))
    g = float(rng.uniform(0.05, 1.5))
    v = potential_matrix(graph, g)
    k = int(rng.integers(1, n))
    side_a = sorted(int(i) for i in rng.choice(n, size=k, replace=False))
    return v, side_a


def test_nu_from_gamma_values():
    assert nu_from_gamma(0.0) == 1.0
    assert abs(nu_from_gamma(0.6) - 1.25) < 1e-15
    assert nu_from_gamma(0.3) == nu_from_gamma(-0.3)
    assert abs(nu_from_gamma(0.5) - NU_TWO_NODE) < 1e-15


def test_nu_from_gamma_singular():
    for bad in (1.0, -1.0, 1.5, 1.0 - 1e-13):
        with pytest.raises(SingularityError):
            nu_from_gamma(bad)


def test_non_finite_mode_parameters_are_refused():
    # every comparison with NaN is false, so no range check alone refuses it
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            nu_from_gamma(bad)
        with pytest.raises(DomainError):
            Mode(gamma=bad, nu=1.5)
        with pytest.raises(DomainError, match="not finite"):
            entropy_from_nu(bad)
        with pytest.raises(DomainError, match="not finite"):
            schmidt_spectrum(bad, 3)
        with pytest.raises(DomainError):
            Mode(gamma=0.5, nu=bad)


def test_two_node_mode_parameter_matches_oracle():
    # gamma = 2g/(1+2g) = 0.5 at g = 0.5; the oracle never sees gamma
    v = potential_matrix(hypercube_graph(1), 0.5)
    oracle = entropy_oracle_symplectic(v, [0])
    direct = entropy_from_nu(nu_from_gamma(0.5))
    assert abs(oracle - direct) < 1e-12
    assert abs(oracle - S_TWO_NODE_BITS) < 1e-12


def test_entropy_from_nu_values():
    assert entropy_from_nu(1.0) == 0.0
    assert abs(entropy_from_nu(3.0) - 2.0) < 1e-14
    assert abs(entropy_from_nu(NU_TWO_NODE) - S_TWO_NODE_BITS) < 1e-12
    assert abs(entropy_from_nu(NU_TWO_NODE, "e") - S_TWO_NODE_NATS) < 1e-12
    assert abs(entropy_from_nu(3.0, "e") - 2.0 * math.log(2.0)) < 1e-14


# Every log-base spelling accepted, with the name it normalizes to, and
# spellings refused; an unhashable one is refused as a ValueError too.
LOG_BASE_SPELLINGS = (
    (2, "2"), (2.0, "2"), ("2", "2"), (np.int64(2), "2"), (np.int16(2), "2"),
    (np.float64(2.0), "2"), ("e", "e"), (math.e, "e"), (np.float64(math.e), "e"),
)
REFUSED_LOG_BASES = (
    "E", 10, None, True, 1, "10", math.nan, np.float32(math.e), [2], {"e": 1},
)


def test_entropy_from_nu_log_base_spellings():
    for spelling, name in LOG_BASE_SPELLINGS:
        assert _norm_log_base(spelling) == name
        want = entropy_from_nu(1.5, name)
        assert entropy_from_nu(1.5, spelling).hex() == want.hex()
    for spelling in REFUSED_LOG_BASES:
        with pytest.raises(ValueError, match="log base must be 2 or 'e'"):
            _norm_log_base(spelling)
        with pytest.raises(ValueError, match="log base must be 2 or 'e'"):
            entropy_from_nu(1.5, spelling)


def _entropy_by_formula(nu, log):
    """S(nu) written out, with dips to 1 - NU_SLACK clamped to zero."""
    if nu <= 1.0:
        return 0.0
    up = (nu + 1.0) / 2.0
    dn = (nu - 1.0) / 2.0
    return up * log(up) - dn * log(dn)


def test_entropy_from_nu_is_the_formula_bit_for_bit():
    grid = [
        1.0 - 5e-11, 1.0 - 1e-16, 1.0, math.nextafter(1.0, 2.0), 1.0 + 1e-9,
        1.5, NU_TWO_NODE, 3.0, 1e3, 1e8,
    ]
    for nu in grid:
        for base, log in (("2", math.log2), ("e", math.log)):
            want = _entropy_by_formula(nu, log).hex()
            assert entropy_from_nu(nu, base).hex() == want
            assert entropy_from_nu(np.float64(nu), base).hex() == want
    assert entropy_from_nu(1.0 - 5e-11) == 0.0
    assert entropy_from_nu(math.nextafter(1.0, 2.0)) > 0.0


def _form_with_eigenvalues(w):
    """A symmetric form with eigenvalues w, rotated off the diagonal."""
    q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((len(w), len(w))))
    return (q * np.asarray(w)) @ q.T


def _nus_by_formula(form):
    """The symplectic eigenvalues as max(sqrt(max(eig, 0)), 1)."""
    return np.maximum(np.sqrt(np.maximum(np.linalg.eigvalsh(form), 0.0)), 1.0)


def test_symplectic_nus_clamp_dips_and_name_the_smallest_in_refusals():
    # Dips of nu^2 within the slack clamp to exactly 1, others pass as they are.
    form = _form_with_eigenvalues([4.0, 1.0 - 1e-11, 2.5, 1.0 - 1e-13, 9.0])
    nus = np.asarray(_symplectic_nus(form))
    assert nus.tobytes() == _nus_by_formula(form).tobytes()
    assert np.count_nonzero(nus == 1.0) == 2 and nus.min() == 1.0
    # The refusal names the smallest nu, here listed between larger ones;
    # a negative eigenvalue counts as nu = 0.
    for w in ([4.0, 0.81, 2.0, 1.0], [4.0, 1.0 - 1e-9, 9.0], [2.0, -0.5, 3.0]):
        form = _form_with_eigenvalues(w)
        smallest = np.sqrt(np.maximum(np.linalg.eigvalsh(form), 0.0)).min()
        assert smallest < 1.0 - NU_SLACK
        with pytest.raises(ConsistencyError) as refused:
            _symplectic_nus(form)
        assert "eigenvalue %.17g fell" % smallest in str(refused.value)


def test_entropy_from_nu_domain():
    with pytest.raises(DomainError):
        entropy_from_nu(0.9)
    # dips within the clamp window collapse to zero entropy
    assert entropy_from_nu(1.0 - 1e-11) == 0.0
    grid = np.linspace(1.0, 5.0, 40)
    values = [entropy_from_nu(nu) for nu in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_schmidt_spectrum_values():
    s = schmidt_spectrum(1.0, 5)
    assert s.probabilities[0] == 1.0
    assert np.all(s.probabilities[1:] == 0.0)
    assert s.tail_mass == 0.0

    s = schmidt_spectrum(3.0, 30)
    expect = 0.5 ** (np.arange(31) + 1)
    assert np.allclose(s.probabilities, expect, rtol=0, atol=1e-15)
    assert np.allclose(s.lambdas ** 2, s.probabilities, rtol=0, atol=1e-15)
    assert abs(s.probabilities.sum() + s.tail_mass - 1.0) < 1e-14


def test_schmidt_spectrum_mean_occupation():
    for nu in (1.0, 1.1, 1.25, 1.5, 2.0, 3.0):
        s = schmidt_spectrum(nu, 200)
        assert abs(s.probabilities.sum() - 1.0) < 1e-12
        assert abs(s.mean_occupation() - (nu - 1.0) / 2.0) < 1e-10


def test_schmidt_spectrum_domain():
    with pytest.raises(DomainError):
        schmidt_spectrum(0.5, 10)
    with pytest.raises(ValueError):
        schmidt_spectrum(1.5, 0)


def test_integer_arguments_take_numpy_integers_and_refuse_bool():
    for n_max in (np.int64(4), np.uint8(4)):
        s = schmidt_spectrum(1.5, n_max)
        assert type(s.n_max) is int
        want = schmidt_spectrum(1.5, 4).probabilities
        assert s.probabilities.tobytes() == want.tobytes()
        mode = Mode(gamma=0.5, nu=nu_from_gamma(0.5), degeneracy=n_max)
        assert type(mode.degeneracy) is int and mode.degeneracy == 4
    for bad in (True, np.True_):
        with pytest.raises(ValueError, match="n_max"):
            schmidt_spectrum(1.5, bad)
        with pytest.raises(ValueError, match="degeneracy"):
            Mode(gamma=0.5, nu=nu_from_gamma(0.5), degeneracy=bad)


def test_gamma_spectrum_block_diagonal_is_product_state():
    v = np.diag([1.0, 2.0, 3.0, 4.0])
    cut = Bipartition.from_side_a(4, [0, 2])
    spec = gamma_spectrum(v, cut)
    assert spec.mode_count() == 2
    assert all(m.gamma < 1e-12 and m.nu == 1.0 for m in spec.modes)
    assert spec.total_entropy() == 0.0


def test_gamma_spectrum_two_node():
    v = potential_matrix(hypercube_graph(1), 0.5)
    spec = gamma_spectrum(v, Bipartition.from_side_a(2, [0]))
    assert len(spec.modes) == 1
    assert abs(spec.modes[0].gamma - 0.5) < 1e-14
    assert abs(spec.modes[0].nu - NU_TWO_NODE) < 1e-14


def test_gamma_spectrum_square_parity():
    v = potential_matrix(hypercube_graph(2), 0.25)
    spec = gamma_spectrum(v, named_bipartition(2, "parity"))
    gammas = spec.expanded_gammas()
    assert len(gammas) == 2
    assert abs(gammas[0] - 0.5) < 1e-12
    assert gammas[1] < 1e-12


def test_gamma_spectrum_mode_count_and_nu_consistency():
    rng = np.random.default_rng(11)
    for _ in range(20):
        v, side_a = _random_instance(rng)
        cut = Bipartition.from_side_a(v.n, side_a)
        spec = gamma_spectrum(v, cut)
        assert spec.mode_count() == min(len(cut.side_a), len(cut.side_b))
        for m in spec.modes:
            assert 0.0 <= m.gamma < 1.0
            if m.gamma >= 1e-12:
                assert abs(m.nu - nu_from_gamma(m.gamma)) < 1e-12


def test_gamma_spectrum_rejects_indefinite_matrix():
    v = np.array([[1.0, 1.2], [1.2, 1.0]])
    with pytest.raises(DefinitenessError):
        gamma_spectrum(v, Bipartition.from_side_a(2, [0]))


def test_gamma_spectrum_refuses_a_cut_of_another_size():
    v = potential_matrix(hypercube_graph(2), 0.5)
    with pytest.raises(ValueError, match="bipartition size does not match"):
        gamma_spectrum(v, Bipartition.from_side_a(2, [0]))


def test_definiteness_floor_holds_on_every_route():
    # lambda_min = delta = 5e-13 is positive but below EIG_FLOOR = 1e-12
    delta = 5e-13
    v = np.array([[1.0, 1.0 - delta], [1.0 - delta, 1.0]])
    assert 0 < np.linalg.eigvalsh(v).min() < 1e-12
    with pytest.raises(DefinitenessError):
        PotentialMatrix(v)
    with pytest.raises(DefinitenessError):
        entropy_oracle_symplectic(v, [0])
    with pytest.raises(DefinitenessError):
        gamma_spectrum(v, Bipartition.from_side_a(2, [0]))
    with pytest.raises(DefinitenessError):
        entropy_of_bipartition(v, Bipartition.from_side_a(2, [0]))


def test_one_symmetry_tolerance_on_every_route():
    asymmetric = np.array([[2.0, -1.0], [-1.0 + 5e-11, 2.0]])
    with pytest.raises(ValueError, match="symmetric"):
        PotentialMatrix(asymmetric)
    with pytest.raises(ValueError, match="symmetric"):
        entropy_oracle_symplectic(asymmetric, [0])
    with pytest.raises(ValueError, match="symmetric"):
        gamma_spectrum(asymmetric, Bipartition.from_side_a(2, [0]))
    # within the tolerance every route accepts it
    nearly = np.array([[2.0, -1.0], [-1.0 + 5e-13, 2.0]])
    assert abs(entropy_oracle_symplectic(nearly, [0]) - S_TWO_NODE_BITS) < 1e-11
    assert abs(
        entropy_of_bipartition(nearly, Bipartition.from_side_a(2, [0]))
        - S_TWO_NODE_BITS
    ) < 1e-11
    assert PotentialMatrix(nearly).n == 2


def test_strong_coupling_matches_high_precision_reference():
    # Entropy in bits of side A = {0, 3, 5, 6} of H(4,2) at g = 1e8, computed
    # in mpmath with 60 significant digits by the oracle's route: the exact
    # inverse of V = I + 2gL, then the eigenvalues of sqrt(X_A) 4 P_A sqrt(X_A).
    reference = 14.9650809764214
    v = potential_matrix(hypercube_graph(4), 1e8)
    side_a = [0, 3, 5, 6]
    engine = entropy_of_bipartition(v, Bipartition.from_side_a(16, side_a))
    assert abs(engine - reference) < 1e-8
    assert abs(entropy_oracle_symplectic(v, side_a) - reference) < 2e-7


def test_entropy_zero_coupling():
    g = hypercube_graph(3)
    v = potential_matrix(g, 0.0)
    for side_a in ([0], [0, 3, 5, 6], [1, 2, 3]):
        cut = Bipartition.from_side_a(8, side_a)
        assert entropy_of_bipartition(v, cut) == 0.0
        assert entropy_oracle_symplectic(v, side_a) == 0.0


def test_entropy_frozen_two_node_value():
    v = potential_matrix(hypercube_graph(1), 0.5)
    cut = Bipartition.from_side_a(2, [0])
    assert abs(entropy_of_bipartition(v, cut) - S_TWO_NODE_BITS) < 1e-12
    assert abs(entropy_oracle_symplectic(v, [0]) - S_TWO_NODE_BITS) < 1e-12
    assert abs(entropy_of_bipartition(v, cut, "e") - S_TWO_NODE_NATS) < 1e-12


def test_cube_parity_entropy_from_per_block_ratios():
    # parity cut of the cube: one ratio 6g/(1+6g), three ratios 2g/(1+6g)
    for g in (0.1, 0.5, 1.0):
        v = potential_matrix(hypercube_graph(3), g)
        engine = entropy_of_bipartition(v, named_bipartition(3, "parity"))
        top = entropy_from_nu(nu_from_gamma(6 * g / (1 + 6 * g)))
        small = entropy_from_nu(nu_from_gamma(2 * g / (1 + 6 * g)))
        assert abs(engine - (top + 3 * small)) < 1e-12


def test_both_sides_have_equal_entropy():
    rng = np.random.default_rng(23)
    for _ in range(15):
        v, side_a = _random_instance(rng)
        cut = Bipartition.from_side_a(v.n, side_a)
        swapped = Bipartition(cut.side_b, cut.side_a)
        assert abs(
            entropy_of_bipartition(v, cut) - entropy_of_bipartition(v, swapped)
        ) < 1e-10
        assert abs(
            entropy_oracle_symplectic(v, cut.side_a)
            - entropy_oracle_symplectic(v, cut.side_b)
        ) < 1e-10


def test_coupling_sign_is_irrelevant():
    rng = np.random.default_rng(31)
    for _ in range(10):
        v, side_a = _random_instance(rng)
        cut = Bipartition.from_side_a(v.n, side_a)
        flipped = v.matrix.copy()
        a, b = list(cut.side_a), list(cut.side_b)
        flipped[np.ix_(a, b)] *= -1.0
        flipped[np.ix_(b, a)] *= -1.0
        assert abs(
            entropy_of_bipartition(v, cut) - entropy_of_bipartition(flipped, cut)
        ) < 1e-10


def test_engine_agrees_with_oracle_on_random_instances():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(60):
        v, side_a = _random_instance(rng)
        cut = Bipartition.from_side_a(v.n, side_a)
        e = entropy_of_bipartition(v, cut)
        o = entropy_oracle_symplectic(v, side_a)
        worst = max(worst, abs(e - o))
    assert worst < 1e-9


def test_log_base_ratio():
    v = potential_matrix(hypercube_graph(3), 0.8)
    cut = named_bipartition(3, "parity")
    bits = entropy_of_bipartition(v, cut, 2)
    nats = entropy_of_bipartition(v, cut, "e")
    assert abs(nats - bits * math.log(2.0)) < 1e-12


def test_oracle_subset_validation():
    v = potential_matrix(hypercube_graph(2), 0.5)
    with pytest.raises(ValueError):
        entropy_oracle_symplectic(v, [])
    with pytest.raises(ValueError):
        entropy_oracle_symplectic(v, [0, 1, 2, 3])
    with pytest.raises(ValueError):
        entropy_oracle_symplectic(v, [4])
    with pytest.raises(ValueError):
        entropy_oracle_symplectic(v, [0, 0, 3])
    # non-integer labels are refused, not truncated to {0, 3}
    with pytest.raises(ValueError):
        entropy_oracle_symplectic(v, [0.7, 3.9])
    with pytest.raises(ValueError):
        entropy_oracle_symplectic(v, ["0", 3])
    assert entropy_oracle_symplectic(
        v, np.array([0, 3], dtype=np.int32)
    ) == entropy_oracle_symplectic(v, [0, 3])


def _form(root, p_cov, subset):
    """One cut's form R 4P_A R^T from the stacked step with k = 1."""
    rows = np.asarray(subset)
    p4 = 4.0 * p_cov[np.ix_(rows, rows)]
    return _stacked_forms(_stacked_triangles(root[:, rows][None]), p4[None])[0]


def test_oracle_column_solve_matches_full_inverse_route():
    # The oracle solves V for side A's unit columns; the census takes the
    # root of the full inverse.  The two covariance routes must give the
    # same entropy.
    rng = np.random.default_rng(41)
    for _ in range(8):
        v, _ = _random_instance(rng)
        m = v.matrix
        root = _position_covariance(v)
        for k in range(1, v.n):
            side_a = sorted(int(i) for i in rng.choice(v.n, size=k, replace=False))
            full = _entropy_from_cov(_form(root, m / 2.0, side_a), "2")
            assert abs(entropy_oracle_symplectic(v, side_a) - full) < 1e-12


def test_symplectic_nus_take_any_root():
    # Only root^T root = X matters: an orthogonal factor on the left, or
    # extra rows, leave the symplectic eigenvalues unchanged.
    rng = np.random.default_rng(5)
    v = potential_matrix(hypercube_graph(3), 0.7)
    root = _position_covariance(v)
    p = v.matrix / 2.0
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    tall = np.vstack([q @ root, np.zeros((3, 8))])
    side_a = [0, 3, 5, 6]
    want = np.asarray(_symplectic_nus(_form(root, p, side_a)))
    assert np.abs(np.asarray(_symplectic_nus(_form(tall, p, side_a))) - want).max() < 1e-14
    # The same cut stacked among others keeps its bits.
    sides = np.array([[0, 1, 2, 3], side_a, [0, 1, 6, 7]])
    forms = _stacked_forms(
        _stacked_triangles(root.T[sides].swapaxes(1, 2)),
        4.0 * p[sides[:, :, None], sides[:, None, :]],
    )
    assert np.asarray(_symplectic_nus(forms[1])).tobytes() == want.tobytes()


def _nus_by_mode_r(root, p_cov):
    """The kernel's eigenvalues from one 2-D np.linalg.qr(mode="r")."""
    r = np.linalg.qr(root, mode="r")
    return _nus_by_formula(r @ (4.0 * p_cov) @ r.T)


def test_stacked_step_matches_2d_mode_r_bit_for_bit():
    rng = np.random.default_rng(23)
    for _ in range(20):
        v, side_a = _random_instance(rng)
        plain = PotentialMatrix(v.matrix)
        rows = np.asarray(side_a)
        p_aa = v.matrix[np.ix_(rows, rows)] / 2.0
        # Any orthogonal Q keeps (Q F)^T (Q F) = X, so each Q F is a valid
        # root; three of them make a stack.
        roots = []
        for _ in range(3):
            q, _ = np.linalg.qr(rng.standard_normal((v.n, v.n)))
            roots.append(q @ _position_covariance(plain, rows))
        forms = _stacked_forms(
            _stacked_triangles(np.stack(roots)), np.stack([4.0 * p_aa] * 3)
        )
        for root, form in zip(roots, forms):
            want = _nus_by_mode_r(root, p_aa)
            assert np.asarray(_symplectic_nus(form)).tobytes() == want.tobytes()
    # Both sides of the d = 10 parity cut, stacked.
    v = potential_matrix(hypercube_graph(10), 0.5)
    cut = named_bipartition(10, "parity")
    sides = np.array([cut.side_a, cut.side_b])
    roots = [_position_covariance(v, rows) for rows in sides]
    p_blocks = [v.matrix[np.ix_(rows, rows)] / 2.0 for rows in sides]
    forms = _stacked_forms(
        _stacked_triangles(np.stack(roots)), 4.0 * np.stack(p_blocks)
    )
    for root, p_aa, form in zip(roots, p_blocks, forms):
        want = _nus_by_mode_r(root, p_aa)
        assert np.asarray(_symplectic_nus(form)).tobytes() == want.tobytes()


def test_symplectic_nus_consistency_guard():
    # covariances that don't belong to one pure state violate nu >= 1;
    # the kernel takes a root of X = I/4
    root = np.eye(2) * 0.5
    p = np.eye(2) * 0.25
    with pytest.raises(ConsistencyError):
        _symplectic_nus(_form(root, p, [0, 1]))


def test_mode_and_spectrum_validation():
    with pytest.raises(ValueError):
        Mode(gamma=-0.1, nu=1.0)
    with pytest.raises(ValueError):
        Mode(gamma=0.1, nu=0.9)
    with pytest.raises(ValueError):
        Mode(gamma=0.1, nu=1.1, degeneracy=0)
    spec = ModeSpectrum((Mode(0.5, nu_from_gamma(0.5), 3),))
    assert spec.mode_count() == 3
    assert abs(spec.total_entropy() - 3 * entropy_from_nu(nu_from_gamma(0.5))) < 1e-14
    assert np.allclose(spec.expanded_gammas(), [0.5, 0.5, 0.5])


def test_mode_spectrum_sorts_its_modes_and_takes_the_log_base_per_entropy():
    nus = {gamma: nu_from_gamma(gamma) for gamma in (0.25, 0.5)}
    low, high, tie = (Mode(0.25, nus[0.25], 1), Mode(0.5, nus[0.5], 2),
                      Mode(0.25, nus[0.25], 3))
    spec = ModeSpectrum([low, high, tie])
    # Descending gamma, equal gammas in the order given.
    assert spec.modes == (high, low, tie)
    assert spec.expanded_gammas().tolist() == [0.5] * 2 + [0.25] * 4
    for base in (2, "2", "e", math.e):
        s = spec.entropies(base)
        assert s == [entropy_from_nu(m.nu, base) for m in spec.modes]
        assert spec.total_entropy(base) == 2 * s[0] + 1 * s[1] + 3 * s[2]
    assert spec.total_entropy() == spec.total_entropy(2)
    with pytest.raises(ValueError, match="log base"):
        spec.entropies(10)
    with pytest.raises(TypeError):
        ModeSpectrum([high], log_base=2)
    v = potential_matrix(hypercube_graph(2), 0.5)
    with pytest.raises(TypeError):
        gamma_spectrum(v, named_bipartition(2, "parity"), log_base=2)


def _solve_lower_cases(rng):
    """Triangles and their right-hand sides for the _solve_lower test below."""
    for n in (1, SOLVE_LEAF - 1, SOLVE_LEAF, SOLVE_LEAF + 1, 2 * SOLVE_LEAF + 1, 300):
        # a Cholesky factor of I + M M^T / n is well conditioned; random
        # triangles are not
        m = rng.standard_normal((n, n))
        lower = np.linalg.cholesky(np.eye(n) + m @ m.T / n)
        rhs = [rng.standard_normal((n, w)) for w in (1, 7, n)]
        rhs.append(rng.standard_normal((7, n)).T)
        assert n == 1 or not rhs[-1].flags.c_contiguous
        yield lower, rhs
    # A block of V of H(7,2) at g = 1e8 spanning more than two leaves, against
    # its own leading columns: the solutions are the columns of L^T, exact
    # zeros below the diagonal.  Applying a leaf's inverse alone leaves
    # rounding noise there, a componentwise backward error of ~1e14 n eps.
    n = 2 * SOLVE_LEAF + 1
    assert n <= 1 << 7
    block = potential_matrix(hypercube_graph(7), 1e8).matrix[:n, :n]
    yield np.linalg.cholesky(block), [block[:, :w] for w in (1, 7, n)]


def test_solve_lower_matches_lu_and_is_backward_stable():
    rng = np.random.default_rng(17)
    eps = np.finfo(float).eps
    for lower, rhs in _solve_lower_cases(rng):
        n = lower.shape[0]
        for b in rhs:
            x = _solve_lower(lower, b.copy())
            want = np.linalg.solve(lower, b)
            assert np.linalg.norm(x - want) <= 1e-14 * np.linalg.norm(want)
            residual = np.linalg.norm(lower @ x - b)
            assert residual <= 4 * n * eps * np.linalg.norm(lower) * np.linalg.norm(x)
            # Componentwise: max |b - Lx| / (|L||x|), with 0/0 read as 0.
            # Measured at most 0.62 n eps on these cases (at n = 1), and 0.82
            # n eps on other blocks of H(6..8,2) at leaves of 16 to 64.
            r = np.abs(b - lower @ x)
            scale = np.abs(lower) @ np.abs(x)
            ratio = np.divide(r, scale, out=np.zeros_like(r), where=r > 0)
            assert ratio.max() <= 2 * n * eps, ratio.max() / (n * eps)


def test_solve_lower_overwrites_its_right_hand_side():
    # The solve writes L^{-1} B into B and returns it, with the bits of a
    # solve of a copy, whatever B's layout.
    rng = np.random.default_rng(17)
    for lower, rhs in _solve_lower_cases(rng):
        for b in rhs:
            want = _solve_lower(lower, b.copy())
            work = np.array(b, order="K")
            assert _solve_lower(lower, work) is work
            assert work.tobytes() == want.tobytes()


def _traced_peak_in_blocks(call, n):
    """The tracemalloc peak of call(), in (n/2) x (n/2) float64 blocks."""
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / ((n // 2) ** 2 * 8)


def test_single_cut_holds_few_blocks_at_once():
    # On the H(10,2) parity cut every block is dropped after its last read.
    # The engine solves V_AB in place and holds at most three blocks (3.00
    # measured; a copied right-hand side takes it to 3.5).  The oracle's
    # peak is its QR of the two-block F[:, A] (5.16 measured; gathering
    # 4P_A before the QR takes it to 6.16).  numpy's LAPACK work buffers
    # are not traced.
    v = potential_matrix(hypercube_graph(10), 0.5)
    cut = named_bipartition(10, "parity")
    engine = lambda: gamma_spectrum(v, cut)  # noqa: E731
    oracle = lambda: entropy_oracle_symplectic(v, cut.side_a)  # noqa: E731
    # Warm-up calls, so first-use allocations stay out of the peaks.
    engine()
    oracle()
    assert _traced_peak_in_blocks(engine, v.n) <= 3.25
    assert _traced_peak_in_blocks(oracle, v.n) <= 5.5


def test_no_dense_solve_on_the_cut_path(monkeypatch):
    # np.linalg.solve LU-factors whatever it is given; only leaf triangles of
    # at most SOLVE_LEAF rows may reach it, each against an identity, to
    # take the leaf's inverse
    orders = []
    solve = np.linalg.solve

    def recording(a, b):
        orders.append(np.shape(a)[0])
        return solve(a, b)

    v = potential_matrix(hypercube_graph(8), 0.5)
    cut = named_bipartition(8, "identity_cut")
    plain = PotentialMatrix(v.matrix)
    monkeypatch.setattr(np.linalg, "solve", recording)
    gamma_spectrum(v, cut)
    engine_calls = len(orders)
    entropy_oracle_symplectic(plain, cut.side_a)
    assert 0 < engine_calls < len(orders)
    assert max(orders) <= SOLVE_LEAF


def test_engine_agrees_with_cholesky_oracle_on_an_odd_unequal_cut():
    # ~300 vertices and sides of 137 and 163: every level of the blocked
    # solve runs on dense, unequal halves
    rng = np.random.default_rng(29)
    n = 300
    upper = np.triu(rng.random((n, n)) < 0.03, 1)
    graph = Graph(n, np.argwhere(upper).astype(np.int64))
    side_a = sorted(int(i) for i in rng.choice(n, size=137, replace=False))
    cut = Bipartition.from_side_a(n, side_a)
    for g in (0.05, 0.5, 3.0):
        v = potential_matrix(graph, g)
        engine = entropy_of_bipartition(v, cut)
        oracle = entropy_oracle_symplectic(PotentialMatrix(v.matrix), side_a)
        assert engine > 1.0
        assert abs(engine - oracle) < 1e-9


def _column_major(a) -> bool:
    """Every matrix of the (stack of) matrices a is Fortran-contiguous."""
    return all(a[i].flags.f_contiguous for i in np.ndindex(a.shape[:-2]))


def test_dense_factorizations_get_column_major_operands(monkeypatch):
    # numpy copies each LAPACK operand into a column-major buffer; a
    # row-major operand makes that copy a strided transpose
    cholesky, qr = np.linalg.cholesky, np.linalg.qr
    seen = []

    def spy(real):
        def recording(a, *args, **kwargs):
            seen.append((real.__name__, a.shape, _column_major(a)))
            return real(a, *args, **kwargs)

        return recording

    # Built before the spies, so its constructor's Cholesky goes unrecorded;
    # v's certification below is recorded.
    plain = PotentialMatrix(potential_matrix(hypercube_graph(6), 0.5).matrix)
    monkeypatch.setattr(np.linalg, "cholesky", spy(cholesky))
    monkeypatch.setattr(np.linalg, "qr", spy(qr))
    v = potential_matrix(hypercube_graph(6), 0.5)
    cut = named_bipartition(6, "parity")
    gamma_spectrum(v, cut)
    entropy_oracle_symplectic(v, cut.side_a)
    entropy_oracle_symplectic(plain, cut.side_a)
    names = [name for name, _, _ in seen]
    assert sorted(names) == ["cholesky"] * 4 + ["qr"] * 2
    assert all(layout for _, shape, layout in seen if shape[-2] > 1)

    # Each transposed operand holds the values the row-major one did: V is
    # exactly symmetric, so LAPACK gets the same buffer and returns the same
    # bits.
    m = v.matrix
    side_a = list(cut.side_a)
    for x in (m, m[np.ix_(side_a, side_a)]):
        assert cholesky(x.T).tobytes() == cholesky(x).tobytes()
    cols = _position_covariance(v, np.asarray(side_a))
    assert cols.flags.f_contiguous
    c_order = np.ascontiguousarray(cols)
    assert qr(cols[None], mode="r").tobytes() == qr(c_order[None], mode="r").tobytes()

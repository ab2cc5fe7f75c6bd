"""Entropy engines: mode parameters, Schmidt spectra, oracles."""

import math

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
    _entropy_from_cov,
    _position_covariance,
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


def test_entropy_from_nu_log_base_spellings():
    for base in (2, 2.0, "2"):
        assert entropy_from_nu(1.5, base) == entropy_from_nu(1.5, 2)
    assert entropy_from_nu(1.5, "e") == entropy_from_nu(1.5, math.e)
    with pytest.raises(ValueError):
        entropy_from_nu(1.5, 10)


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


def test_oracle_column_solve_matches_full_inverse_route():
    # The oracle solves V for side A's unit columns; the census slices the
    # full inverse.  The two covariance routes must give the same entropy.
    rng = np.random.default_rng(41)
    for _ in range(8):
        v, _ = _random_instance(rng)
        m = v.matrix
        x_cov = _position_covariance(m)
        for k in range(1, v.n):
            side_a = sorted(int(i) for i in rng.choice(v.n, size=k, replace=False))
            full = _entropy_from_cov(x_cov, m / 2.0, side_a, "2")
            assert abs(entropy_oracle_symplectic(v, side_a) - full) < 1e-12


def test_symplectic_nus_consistency_guard():
    # covariances that don't belong to one pure state violate nu >= 1
    x = np.eye(2) * 0.25
    p = np.eye(2) * 0.25
    with pytest.raises(ConsistencyError):
        _symplectic_nus(x, p, [0, 1])


def test_mode_and_spectrum_validation():
    with pytest.raises(ValueError):
        Mode(gamma=-0.1, nu=1.0)
    with pytest.raises(ValueError):
        Mode(gamma=0.1, nu=0.9)
    with pytest.raises(ValueError):
        Mode(gamma=0.1, nu=1.1, degeneracy=0)
    spec = ModeSpectrum((Mode(0.5, nu_from_gamma(0.5), 3),), log_base=2)
    assert spec.mode_count() == 3
    assert abs(spec.total_entropy() - 3 * entropy_from_nu(nu_from_gamma(0.5))) < 1e-14
    assert np.allclose(spec.expanded_gammas(), [0.5, 0.5, 0.5])

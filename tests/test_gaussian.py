"""Entropy engines: mode parameters, Schmidt spectra, elimination, oracles."""

import math

import numpy as np
import pytest

from oscnet import (
    Bipartition,
    ConsistencyError,
    DefinitenessError,
    DomainError,
    EliminationError,
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
    schur_eliminate,
    spin_x_block,
)
from oscnet.gaussian import _symplectic_nus

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


def test_schur_eliminate_scalar_complement():
    a, c = 3.0, 1.0
    v = np.array([[a, c, 0.0], [c, a, c], [0.0, c, a]])
    out = schur_eliminate(v, [0])
    assert abs(out[1, 1] - (a - c * c / a)) < 1e-14
    assert out[1, 2] == c and out[2, 1] == c
    assert out[2, 2] == a
    assert out[0, 0] == a
    assert out[0, 1] == 0.0 and out[1, 0] == 0.0 and out[0, 2] == 0.0


def test_schur_eliminate_end_vertex():
    # pruning a leaf only renormalizes the diagonal it was attached to
    a, b, c = 3.0, 0.8, 1.1
    v = np.array([[a, b, 0.0], [b, a, c], [0.0, c, a]])
    out = schur_eliminate(v, [2])
    assert abs(out[1, 1] - (a - c * c / a)) < 1e-14
    assert out[0, 0] == a
    assert out[0, 1] == b and out[1, 0] == b
    assert out[1, 2] == 0.0 and out[2, 1] == 0.0


def test_schur_eliminate_ladder_endpoint():
    # end mode of the 4-site ladder chain that a 3-cube cut reduces to
    g = 0.7
    v = (1.0 + 6.0 * g) * np.eye(4) - 2.0 * g * spin_x_block(4)
    out = schur_eliminate(v, [0])
    expected = (1.0 + 6.0 * g) - 12.0 * g * g / (1.0 + 6.0 * g)
    assert abs(out[1, 1] - expected) < 1e-12
    assert out[0, 1] == 0.0 and out[1, 0] == 0.0


def test_schur_eliminate_matches_direct_formula():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v, _ = _random_instance(rng, n_max=9)
        m = v.matrix
        n = m.shape[0]
        e = sorted(int(i) for i in rng.choice(n, size=2, replace=False))
        r = [i for i in range(n) if i not in e]
        out = schur_eliminate(m, e)
        direct = m[np.ix_(r, r)] - m[np.ix_(r, e)] @ np.linalg.solve(
            m[np.ix_(e, e)], m[np.ix_(e, r)]
        )
        assert np.abs(out[np.ix_(r, r)] - direct).max() < 1e-10
        assert np.abs(out[np.ix_(e, r)]).max() == 0.0
        assert np.allclose(np.diag(out)[e], np.diag(m)[e])


def test_schur_eliminate_decoupled_block_is_inert():
    v = np.zeros((4, 4))
    v[:2, :2] = [[2.0, -1.0], [-1.0, 2.0]]
    v[2:, 2:] = [[3.0, 0.5], [0.5, 3.0]]
    out = schur_eliminate(v, [2, 3])
    assert np.allclose(out[:2, :2], v[:2, :2])
    assert np.allclose(np.diag(out)[2:], [3.0, 3.0])
    assert np.abs(out[2:, :2]).max() == 0.0
    assert out[2, 3] == 0.0


def test_schur_eliminate_preserves_cut_entropy():
    # eliminating a block with no direct coupling across the cut is a
    # transformation local to one side, so the entropy cannot move
    g = hypercube_graph(3)
    v = potential_matrix(g, 0.7)
    cut = named_bipartition(3, "half_strata")  # side A = strata 0 and 1
    before = entropy_of_bipartition(v, cut)
    reduced = schur_eliminate(v, [0])  # stratum 0 touches only stratum 1
    after = entropy_of_bipartition(reduced, cut)
    assert abs(before - after) < 1e-9

    # same invariance on a chain, eliminating deep inside side A
    chain = Graph(10, np.array([[i, i + 1] for i in range(9)], dtype=np.int64))
    vc = potential_matrix(chain, 0.9)
    cut = Bipartition.from_side_a(10, range(5))
    before = entropy_of_bipartition(vc, cut)
    after = entropy_of_bipartition(schur_eliminate(vc, [0, 1, 2]), cut)
    assert abs(before - after) < 1e-9


def test_schur_eliminate_errors():
    with pytest.raises(EliminationError):
        schur_eliminate(np.array([[0.0, 0.0], [0.0, 1.0]]), [0])
    v = np.eye(3)
    with pytest.raises(ValueError):
        schur_eliminate(v, [])
    with pytest.raises(ValueError):
        schur_eliminate(v, [3])
    with pytest.raises(ValueError):
        schur_eliminate(v, [0, 1, 2])
    with pytest.raises(ValueError):
        schur_eliminate(v, [0, 0])


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
        PotentialMatrix(v, 0.0)
    with pytest.raises(DefinitenessError):
        entropy_oracle_symplectic(v, [0])
    with pytest.raises(DefinitenessError):
        gamma_spectrum(v, Bipartition.from_side_a(2, [0]))
    with pytest.raises(DefinitenessError):
        entropy_of_bipartition(v, Bipartition.from_side_a(2, [0]))


def test_one_symmetry_tolerance_on_every_route():
    asymmetric = np.array([[2.0, -1.0], [-1.0 + 5e-11, 2.0]])
    with pytest.raises(ValueError, match="symmetric"):
        PotentialMatrix(asymmetric, 0.5)
    with pytest.raises(ValueError, match="symmetric"):
        entropy_oracle_symplectic(asymmetric, [0])
    with pytest.raises(ValueError, match="symmetric"):
        gamma_spectrum(asymmetric, Bipartition.from_side_a(2, [0]))
    with pytest.raises(ValueError, match="symmetric"):
        schur_eliminate(asymmetric, [0])
    # within the tolerance every route accepts it
    nearly = np.array([[2.0, -1.0], [-1.0 + 5e-13, 2.0]])
    assert abs(entropy_oracle_symplectic(nearly, [0]) - S_TWO_NODE_BITS) < 1e-11
    assert abs(
        entropy_of_bipartition(nearly, Bipartition.from_side_a(2, [0]))
        - S_TWO_NODE_BITS
    ) < 1e-11
    assert PotentialMatrix(nearly, 0.5).n == 2
    assert schur_eliminate(nearly, [0]).shape == (2, 2)


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

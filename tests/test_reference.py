"""Census classes, oracle and engine entropies against 50-digit mpmath values.

The absolute 1e-9 agreement checks elsewhere say nothing about small or
large entropies; these bound the relative error on H(3,2), H(4,2) and
H(5,2) cuts over the coupling range, and on the closed forms of the
hyperplane cuts up to H(20,2).  Each bound is about twice the worst case
measured on x86-64 with OpenBLAS.
"""

import math

import mpmath
import pytest

from oscnet import (
    Bipartition,
    PotentialMatrix,
    coset_cut_oracle,
    entropy_census,
    entropy_of_bipartition,
    entropy_oracle_symplectic,
    gamma_hyperplane_cut,
    hypercube_graph,
    named_bipartition,
    potential_matrix,
)
from oscnet.graph import _hyperplane_cut

# Worst measured relative errors at g = 0.5, 1e4, 1e8: census classes
# 5.1e-15, 2.1e-14, 1.4e-12; the oracle on the root table 1.2e-14,
# 6.2e-14, 1.4e-12; the oracle's Cholesky route 1.1e-14, 8.5e-13, 3.7e-10.
# On the parity and identity cuts the table oracle takes translation
# sectors: worst 6.0e-15, 2.3e-14, 3.8e-13 (the dense table route 4.5e-15,
# 1.0e-14, 8.0e-13 there).
CENSUS_BOUND = {0.5: 1e-14, 1e4: 5e-14, 1e8: 3e-12}
ORACLE_BOUND = {0.5: 3e-14, 1e4: 1.5e-13, 1e8: 3e-12}
CHOLESKY_ORACLE_BOUND = {0.5: 3e-14, 1e4: 2e-12, 1e8: 1e-9}
# The dense engine's worst at the same g: 2.5e-15, 1.0e-12 (1.7e-12 with
# LU-solved leaves), 1.2e-8.  At g = 1e8 its largest singular values sit
# ~1e-9 below 1, where a few ulps of sigma move the entropy by ~1e-8 relative.
# On the parity and identity cuts the table-carrying V takes translation
# sectors instead: worst 2.9e-15, 1.0e-12, 3.9e-9 over all named cuts.
ENGINE_BOUND = {0.5: 5e-15, 1e4: 3.5e-12, 1e8: 2.5e-8}


def _mp_covariances(d, g):
    """X = V^{-1}/2 and P = V/2 of H(d,2) as 50-digit matrices."""
    n = 1 << d
    with mpmath.workdps(50):
        q = mpmath.mpf(g)
        v = mpmath.matrix(n, n)
        for i in range(n):
            v[i, i] = 1 + 2 * q * d
            for a in range(d):
                v[i, i ^ (1 << a)] = -2 * q
        return v**-1 / 2, v / 2


def _mp_entropy(cov, side_a):
    """Entropy in bits of side A: nu^2 = eig(L^T 4 P_A L) with X_A = L L^T."""
    x, p = cov
    side_a = list(side_a)
    m = len(side_a)
    with mpmath.workdps(50):
        xa = mpmath.matrix(m, m)
        pa = mpmath.matrix(m, m)
        for i, a in enumerate(side_a):
            for j, b in enumerate(side_a):
                xa[i, j] = x[a, b]
                pa[i, j] = p[a, b]
        low = mpmath.cholesky(xa)
        total = mpmath.mpf(0)
        for nu_sq in mpmath.eigsy(low.T * 4 * pa * low, eigvals_only=True):
            nu = mpmath.sqrt(nu_sq)
            up, dn = (nu + 1) / 2, (nu - 1) / 2
            total += up * mpmath.log(up, 2)
            if dn > 0:
                total -= dn * mpmath.log(dn, 2)
        return total


def _relative(value, exact):
    return float(abs(mpmath.mpf(value) - exact) / exact)


@pytest.mark.parametrize("g", sorted(CENSUS_BOUND))
@pytest.mark.parametrize("d", [3, 4])
def test_census_classes_against_mpmath(d, g):
    report = entropy_census(hypercube_graph(d), g)
    assert len(report.classes) == {3: 6, 4: 55}[d]
    total = math.comb(2**d - 1, 2 ** (d - 1) - 1)
    assert sum(c.multiplicity for c in report.classes) == total
    cov = _mp_covariances(d, g)
    worst = max(
        _relative(c.entropy, _mp_entropy(cov, c.representatives[0]))
        for c in report.classes
    )
    assert worst <= CENSUS_BOUND[g], worst


@pytest.mark.parametrize("g", sorted(ORACLE_BOUND))
@pytest.mark.parametrize("d", [3, 4, 5])
def test_oracle_on_named_cuts_against_mpmath(d, g):
    v = potential_matrix(hypercube_graph(d), g)
    plain = PotentialMatrix(v.matrix)
    cov = _mp_covariances(d, g)
    schemes = ["parity", "identity-cut"] + (["half-strata"] if d % 2 else [])
    for scheme in schemes:
        cut = named_bipartition(d, scheme)
        side_a = cut.side_a
        exact = _mp_entropy(cov, side_a)
        table = entropy_oracle_symplectic(v, side_a)
        assert _relative(table, exact) <= ORACLE_BOUND[g], (scheme, table)
        solved = entropy_oracle_symplectic(plain, side_a)
        assert _relative(solved, exact) <= CHOLESKY_ORACLE_BOUND[g], (scheme, solved)
        engine = entropy_of_bipartition(v, cut)
        assert _relative(engine, exact) <= ENGINE_BOUND[g], (scheme, engine)
        dense = entropy_of_bipartition(plain, cut)
        assert _relative(dense, exact) <= ENGINE_BOUND[g], (scheme, dense)


def _mp_hyperplane_entropy(d, w, g):
    """Entropy in bits of the hyperplane cut of H(d,2) with a normal c of
    weight w, from V's eigenvalues alone: the Walsh characters s and
    s xor c, with eigenvalues e = 1 + 4g|s| and f = 1 + 4g|s xor c|, span
    one sector of the cut, whose nu is (e + f) / (2 sqrt(e f)).  Summed
    over every s, so each sector twice."""
    with mpmath.workdps(50):
        four_g = 4 * mpmath.mpf(g)
        total = mpmath.mpf(0)
        for p in range(d - w + 1):
            for q in range(w + 1):
                e, f = 1 + four_g * (p + q), 1 + four_g * (p + w - q)
                nu = (e + f) / (2 * mpmath.sqrt(e * f))
                up, dn = (nu + 1) / 2, (nu - 1) / 2
                entropy = up * mpmath.log(up, 2)
                if dn > 0:
                    entropy -= dn * mpmath.log(dn, 2)
                total += math.comb(d - w, p) * math.comb(w, q) * entropy / 2
        return total


# Worst measured relative errors of the middle weights 1 < w < d over
# d = 3..20: 1.3e-14 at g = 0.5 (d = 20, w = 3) and 1.4e-12 at g = 1e8
# (d = 5, w = 4).  Weak coupling is left out: at g = 1e-8 the closed form
# is 0.11 off at d = 9, w = 3, and the float nu - 1 of a nu near 1 is
# what loses those digits.
HYPERPLANE_BOUND = {0.5: 3e-14, 1e8: 3e-12}


@pytest.mark.parametrize("g", sorted(HYPERPLANE_BOUND))
def test_middle_weight_hyperplanes_against_mpmath(g):
    # The eigenvalue reference is the whole-V one on the cuts it can reach.
    cov = _mp_covariances(4, g)
    for w in (2, 3):
        exact = _mp_entropy(cov, _hyperplane_cut(4, (1 << w) - 1).side_a)
        with mpmath.workdps(50):
            assert abs(_mp_hyperplane_entropy(4, w, g) - exact) <= 1e-40 * exact
    worst = 0.0
    for d in range(3, 21):
        for w in range(2, d):
            exact = _mp_hyperplane_entropy(d, w, g)
            got = gamma_hyperplane_cut(d, w, g).total_entropy()
            worst = max(worst, _relative(got, exact))
    assert worst <= HYPERPLANE_BOUND[g], worst


# The codimension-3 cut A = {x : Mx in {000, 001, 010, 100}} of H(6,2),
# row j of M giving bit j of Mx: eight cosets of a 3-dimensional T.
CODIM3_NORMALS = [[1, 1, 0, 0, 1, 0], [0, 1, 1, 0, 0, 1], [1, 0, 0, 1, 1, 1]]
CODIM3_SUBSET = [0, 1, 2, 4]
# Measured relative errors of the oracle's Walsh-form sectors on the
# H(4,2) parity, H(6,2) parity and codimension-3 cuts: 6.7e-16, 8.2e-16 and
# 2.6e-15 at g = 0.5; 2.0e-12, 6.0e-13 and 2.0e-13 at g = 1e8.  The TwoSum
# fold over T it replaced: the same at g = 0.5; 2.8e-13, 1.8e-13 and 3.1e-13
# at g = 1e8.  At g = 1e8 every nu^2 of the Walsh form's hyperplane
# sectors is within 4e-16 of exact, the fold's within 2.4e-13; what is
# left is entropy_from_nu at nu ~ 2e4, where up log up - dn log dn cancels
# four digits (ROADMAP item 11), and the fold's errors happened to offset
# it there.
QUOTIENT_ORACLE_BOUND = {0.5: 6e-15, 1e8: 4e-12}


@pytest.mark.parametrize("g", sorted(QUOTIENT_ORACLE_BOUND))
def test_quotient_oracle_against_mpmath(g):
    cuts = [(4, [[1] * 4], [0]), (6, [[1] * 6], [0]), (6, CODIM3_NORMALS, CODIM3_SUBSET)]
    for d, normals, subset in cuts:
        rows = [sum(b << a for a, b in enumerate(row)) for row in normals]
        side_a = [
            x for x in range(1 << d)
            if sum((bin(x & r).count("1") & 1) << j for j, r in enumerate(rows)) in subset
        ]
        exact = _mp_entropy(_mp_covariances(d, g), side_a)
        quotient = coset_cut_oracle(d, normals, subset, g)
        assert _relative(quotient, exact) <= QUOTIENT_ORACLE_BOUND[g], (d, subset)
        v = potential_matrix(hypercube_graph(d), g)
        cut = Bipartition.from_side_a(1 << d, side_a)
        assert entropy_oracle_symplectic(v, cut) == quotient

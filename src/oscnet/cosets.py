"""Coset-union cuts of H(d,2) in quotient form, past the size of a Graph.

A cut of H(d,2) whose side A is mapped onto itself by the translations
x -> x xor t, t in a subspace T of dimension k >= 1, is a union of cosets of
T.  It is named here by (d, M, S): M is a full-rank c x d matrix over F_2
whose rows span T^perp, the labels orthogonal to every t in T (so T is the
kernel of M and c = d - k), and S is a subset of F_2^c; then
A = {x : Mx in S}.  Column a of M multiplies bit a of a label, and bit j of
an element of S is (Mx)_j, row j's.  A hyperplane {x : n.x = 0} is c = 1,
M = [n] and S = {0}: the parity cut has n all ones, the coordinate cut on
axis a has n = e_a.

_Quotient holds what both sector routes of gaussian need: T's basis,
T^perp's, the cut's side on the m = 2^c cosets ("slots") and the distinct
sectors of T's characters.  All of it follows from M in O(c d) plus
O(m c) for the slots, so no array holds 2^d values and d runs to 62, the
most bits an int64 label carries.  A Bipartition of H(d,2) with d <= 12
reaches the same form through _of_cut, which finds T from side A's Walsh
transform; the oracle checks on the labels that A = {x : Mx in S}.

gaussian.coset_cut_spectrum and gaussian.coset_cut_oracle take
(d, M, S, g) without a V (_of_normals checks the cut): the engine's sectors
V_chi and the oracle's Walsh form are written from d and g alone.  Their
cost is set by the number of distinct sectors and by m, capped by
MAX_SECTOR_ENTRIES.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import graph
from .errors import ConsistencyError, GraphSizeError

# Labels are int64 bit strings, so a coset cut has at most 62 coordinates
# (2^62 labels, all positive).
MAX_COSET_DIMENSION = 62
# Most values the distinct sectors of one cut may hold, sectors times m^2:
# the oracle keeps all of its F_chi[:, A] at once.  Every cut of a Graph,
# d <= 12 and c <= d - 1, is within it.
MAX_SECTOR_ENTRIES = 1 << 24


@functools.lru_cache
def _hadamard(k: int) -> np.ndarray:
    """The Sylvester-Hadamard matrix of order 2^k, entry (-1)^popcount(i & j)
    at (i, j), read-only."""
    h = np.ones((1, 1))
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


def _echelon(rows: np.ndarray, d: int) -> dict:
    """The span of rows, d-bit labels in an int64 array, in reduced echelon
    form {pivot: row}: each row's highest set bit is its pivot, and no other
    row has that bit set.  Bits are eliminated highest first."""
    echelon = {}
    for bit in reversed(range(d)):
        if not rows.size:
            break
        hit = (rows >> bit) & 1 == 1
        if not hit.any():
            continue
        pivot = int(rows[hit.argmax()])
        # Rows eliminated to 0 add nothing to the span and are dropped.
        rows = np.where(hit, rows ^ pivot, rows)
        rows = rows[rows != 0]
        for p, row in echelon.items():
            if row >> bit & 1:
                echelon[p] = row ^ pivot
        echelon[bit] = pivot
    return echelon


def _complement(d: int, reduced: dict) -> dict:
    """The orthogonal complement of a reduced basis {key: vector}, in which
    each vector has its key bit set and no other vector has it: one vector
    per bit f that is no key, e_f plus the keys of the vectors with bit f
    set.  Each is orthogonal to every given vector, and the map is its own
    inverse, so it takes T's basis to T^perp's and back."""
    return {
        f: (1 << f) | sum(1 << p for p, row in reduced.items() if row >> f & 1)
        for f in range(d)
        if f not in reduced
    }


def _translation_stabiliser(d: int, in_a: np.ndarray) -> list:
    """The translations T = {t : A xor t = A} of a side A of H(d,2), given
    by its indicator over the 2^d labels, as a basis of (pivot, t) pairs:
    each t has its pivot bit set and no other basis vector has it.  Empty
    when T = {0}.

    1_A(x xor t) = 1_A(x) for every x exactly when W(s) (-1)^{s.t} = W(s)
    for every s, W the Walsh transform of 1_A.  So T is the F_2-orthogonal
    complement of the support of W, 0 excluded.  The transform of H(d,2) is
    H_h (x) H_l for Sylvester-Hadamard matrices of orders 2^h and 2^l,
    h + l = d, so with the indicator read as a 2^h x 2^l matrix X, W is
    H_h X H_l: two matmuls of at most 64 rows, whose sums of at most 2^d
    terms +-1 are exact in float64.  On H(10,2) they took 9 us where ten
    butterfly passes took 105.  The support's span in reduced echelon form
    (_echelon) has T's basis as its complement.
    """
    low = d // 2
    w = _hadamard(d - low) @ in_a.reshape(-1, 1 << low) @ _hadamard(low)
    rows = np.flatnonzero(w.ravel()[1:]) + 1
    return list(_complement(d, _echelon(rows, d)).items())


@dataclass(frozen=True, eq=False)
class _Quotient:
    """The sectors of a coset-union cut of H(d,2), from T's basis.

    basis maps each pivot f of T to its vector t, and normals lists T^perp's
    reduced basis, the rows of M, in slot order: slot bit j is the j-th
    highest free bit, a bit that is no pivot, and normals[j] is the one row
    with that bit set.  A slot e stands for the coset of the representative
    r_e that vanishes on T's pivots and has e's bits on the free bits, so
    M r_e = e.  a and b are the slots of side A and side B.

    offsets holds, per basis vector (f, t), the slot of t xor e_f: the pivot
    f moves r_e to the coset of r_e xor e_f, whose representative is
    r_e xor e_f xor t, in slot e xor offset.  characters lists (signs,
    count): signs holds chi(t) = +-1 per basis vector and count the number
    of characters whose sector equals that of chi.

    V holds 1 + 2gd on its diagonal and -2g between neighbours, so V_chi is
    fixed by the free bits' moves, the same in every sector, and by the
    signs of the pivots' moves.  Where n basis vectors share an offset, only
    the number s of their signs that are -1 matters, and comb(n, s) sign
    choices give it: each choice of s per offset is one distinct sector,
    shared by the product of those counts of characters.  Its character
    sets the first s of those basis vectors to -1.  X^{1/2} is a function of
    V, so its sectors are equal where V's are.
    """

    d: int
    basis: dict
    normals: tuple
    offsets: tuple
    characters: tuple
    a: np.ndarray
    b: np.ndarray

    def slots(self, labels: np.ndarray) -> np.ndarray:
        """The slot Mx of each label x, an int64 array of them."""
        return _image(labels, self.normals)


def _image(labels: np.ndarray, rows) -> np.ndarray:
    """Mx for each label x of an int64 array, bit j of it from row j of M,
    a d-bit label."""
    return sum(
        (np.bitwise_count(labels & row) & 1).astype(np.int64) << j
        for j, row in enumerate(rows)
    )


def _sectors(d: int, basis: dict, normals: dict, side) -> _Quotient:
    """The _Quotient of T's reduced basis and T^perp's, its complement;
    side(reps) tells which of the slots' representatives, an int64 array,
    lie on side A."""
    free = sorted(normals, reverse=True)
    offsets = [
        sum(1 << j for j, bit in enumerate(free) if (t ^ 1 << f) >> bit & 1)
        for f, t in basis.items()
    ]
    shared = {}
    for i, offset in enumerate(offsets):
        shared.setdefault(offset, []).append(i)
    m = 1 << len(free)
    sectors = math.prod(len(group) + 1 for group in shared.values())
    if sectors * m * m > MAX_SECTOR_ENTRIES:
        raise GraphSizeError(
            "coset cut has %d distinct sectors of %d cosets, more than %d "
            "values" % (sectors, m, MAX_SECTOR_ENTRIES)
        )
    characters = []
    for flips in itertools.product(*(range(len(g) + 1) for g in shared.values())):
        signs = [1] * len(offsets)
        for group, minus in zip(shared.values(), flips):
            for i in group[:minus]:
                signs[i] = -1
        count = math.prod(map(math.comb, map(len, shared.values()), flips))
        characters.append((signs, count))
    slots = np.arange(m)
    reps = np.zeros(m, dtype=np.int64)
    for j, bit in enumerate(free):
        reps |= ((slots >> j) & 1) << bit
    in_a = side(reps)
    return _Quotient(
        d,
        basis,
        tuple(normals[bit] for bit in free),
        tuple(offsets),
        tuple(characters),
        np.flatnonzero(in_a),
        np.flatnonzero(~in_a),
    )


def _of_cut(d: int, in_a: np.ndarray) -> _Quotient | None:
    """The quotient form of a side A of H(d,2), given by its indicator, or
    None when no translation but 0 maps A onto itself.

    M is T^perp's reduced basis, and a slot is on side A when its
    representative is.  That A holds every label of those cosets is for the
    oracle to check on the labels (entropy_oracle_symplectic); here only
    T's basis is checked to be reduced, which makes it independent and
    orthogonal to M's rows.
    """
    basis = dict(_translation_stabiliser(d, in_a))
    if not basis:
        return None
    keys = sum(1 << f for f in basis)
    if any(t & keys != 1 << f for f, t in basis.items()):
        raise ConsistencyError("the translations of side A are no reduced basis")
    return _sectors(d, basis, _complement(d, basis), lambda reps: in_a[reps])


def _of_normals(d, normals, subset) -> _Quotient:
    """The _Quotient of a cut named by (d, M, S), each checked: d in
    1..MAX_COSET_DIMENSION, M a full-rank c x d array of 0s and 1s, S a
    proper, non-empty set of distinct integers in 0..2^c - 1."""
    if (d := graph._integer(d)) is None or not 1 <= d <= MAX_COSET_DIMENSION:
        raise GraphSizeError(
            "hypercube dimension must be an integer in 1..%d" % MAX_COSET_DIMENSION
        )
    matrix = np.asarray(normals)
    if matrix.ndim != 2 or matrix.shape[1] != d or not matrix.shape[0]:
        raise ValueError("M must be a c x %d matrix with c >= 1" % d)
    if matrix.dtype.kind not in "biu" or not np.isin(matrix, (0, 1)).all():
        raise ValueError("M must hold integers 0 and 1")
    c = matrix.shape[0]
    rows = matrix.astype(np.int64) @ np.left_shift(1, np.arange(d, dtype=np.int64))
    echelon = _echelon(rows, d)
    if len(echelon) != c:
        raise ValueError("M has rank %d over F_2, not its %d rows" % (len(echelon), c))
    try:
        s = graph._vertex_labels(subset)
    except ValueError:
        raise ValueError("S must hold integers") from None
    if s and (min(s) < 0 or max(s) >= 1 << c):
        raise ValueError("S must hold integers in 0..%d" % ((1 << c) - 1))
    if len(set(s)) != len(s):
        raise ValueError("S contains duplicate elements")
    if not s or len(s) == 1 << c:
        raise ValueError("S must be neither empty nor all of F_2^%d" % c)

    return _sectors(
        d,
        _complement(d, echelon),
        echelon,
        lambda reps: np.isin(_image(reps, rows.tolist()), s),
    )

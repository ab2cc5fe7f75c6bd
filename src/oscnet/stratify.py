"""Distance-shell (stratum) structure of the hypercube adjacency.

Grouping the 2^d vertices by Hamming weight turns the adjacency matrix into
a direct sum of small tridiagonal blocks: one block per irreducible ladder,
with entries matching the spin-x matrix of an appropriate spin.  This module
builds those blocks, the bookkeeping table of their dimensions and
multiplicities, and the Krawtchouk polynomials whose values at the stratum
index give the hypercube eigenvalues.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GraphSizeError
from .graph import _check_hypercube_dim


def spin_x_block(block_dim: int) -> np.ndarray:
    """Symmetric tridiagonal ladder block of the given dimension.

    For block_dim = m + 1 the off-diagonal entries are sqrt(k (m - k + 1)),
    k = 1..m, which is 2 S_x in the spin-m/2 representation.  Its spectrum is
    {-m, -m + 2, ..., m}, each eigenvalue simple.
    """
    if not isinstance(block_dim, int) or block_dim < 1:
        raise ValueError("block dimension must be a positive integer")
    m = block_dim - 1
    block = np.zeros((block_dim, block_dim))
    for k in range(1, block_dim):
        c = math.sqrt(k * (m - k + 1))
        block[k - 1, k] = c
        block[k, k - 1] = c
    return block


# Largest dimension whose mode degeneracies fit a float.  Every closed form's
# degeneracies are binomials of row d or d - 1 of Pascal's triangle, so
# C(d, d // 2) bounds them, and it passes the float range at d = 1030.
MAX_DIMENSION = 1029


def _check_dimension(d) -> None:
    if not isinstance(d, int) or not 1 <= d <= MAX_DIMENSION:
        raise GraphSizeError("dimension must be an integer in 1..%d" % MAX_DIMENSION)


def block_table(d: int) -> list:
    """Dimensions and multiplicities of the ladder blocks for H(d,2).

    Returns [(block_dim, degeneracy)] with block_dim = d + 1 - 2k and
    degeneracy binomial(d,k) - binomial(d,k-1), k = 0..floor(d/2).  Block k
    spans strata k..d-k.  Dimensions times degeneracies sum to 2^d.
    """
    _check_dimension(d)
    table = []
    for k in range(d // 2 + 1):
        deg = math.comb(d, k) - (math.comb(d, k - 1) if k >= 1 else 0)
        table.append((d + 1 - 2 * k, deg))
    return table


def stratified_adjacency(d: int) -> np.ndarray:
    """The hypercube adjacency rotated to the ladder basis.

    A 2^d x 2^d block-diagonal matrix: each block from block_table(d)
    appears degeneracy times along the diagonal, largest block first.  It is
    orthogonally similar to the vertex-basis adjacency of H(d,2), so both
    have identical spectra.
    """
    _check_hypercube_dim(d)
    n = 1 << d
    out = np.zeros((n, n))
    pos = 0
    for dim, deg in block_table(d):
        blk = spin_x_block(dim)
        for _ in range(deg):
            out[pos : pos + dim, pos : pos + dim] = blk
            pos += dim
    assert pos == n
    return out


def krawtchouk(l: int, x: int, d: int) -> int:
    """Binary Krawtchouk polynomial K_l(x) on 0..d, as an exact integer.

    K_l(x) = sum_i C(x,i) C(d-x, l-i) (-1)^i.  K_1(x) = d - 2x gives the
    hypercube eigenvalues; evaluating at stratum index x gives the
    eigenvector profile across strata.
    """
    if not isinstance(d, int) or d < 0:
        raise ValueError("d must be a non-negative integer")
    if not isinstance(l, int) or not 0 <= l <= d:
        raise ValueError("polynomial index l must satisfy 0 <= l <= d")
    if not isinstance(x, int) or not 0 <= x <= d:
        raise ValueError("argument x must satisfy 0 <= x <= d")
    total = 0
    for i in range(l + 1):
        total += (-1) ** i * math.comb(x, i) * math.comb(d - x, l - i)
    return total


def hypercube_spectrum(d: int) -> list:
    """Eigenvalues of the H(d,2) adjacency with multiplicities.

    Returns [(d - 2i, binomial(d,i))] for i = 0..d, largest eigenvalue
    first.  Multiplicities sum to 2^d and the spectrum is symmetric about 0.
    """
    _check_dimension(d)
    return [(d - 2 * i, math.comb(d, i)) for i in range(d + 1)]

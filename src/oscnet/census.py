"""Exhaustive entropy census over equal bipartitions of a graph.

For an n-vertex graph (n even) there are binomial(n-1, n/2-1) distinct
equal bipartitions once (A, B) and (B, A) are identified; fixing vertex 0
on side A enumerates each exactly once.  The census computes the
entanglement entropy of every one of them with the symplectic reference
engine, groups values that agree within a tolerance into classes, and
reports class values, multiplicities, and representative partitions.

The partitions are one (k, n/2) int16 array of side-A rows, enumerated in
lexicographic order or sampled: uniform draws seeded by random.Random,
deduplicated and sorted, so the rows strictly increase either way.  Graph
caps n at 4096, so int16 holds every label.  The kernel takes consecutive
rows in chunks: one np.take of their factor columns and one flat take of
their 4P blocks on the linear indices a_i * n + a_j, at most STACK_BYTES
together, feed one stacked QR (gaussian._stacked_triangles) and one
stacked congruence (gaussian._stacked_forms), the kernel of the single
cut; then each partition makes one gaussian._entropy_from_cov call, which
is one eigvalsh and one entropy_from_nu per nu.
Grouping is array work too: since a row's index orders it like the row,
a stable argsort of -entropy orders the rows, a class breaks where
consecutive values differ by more than the tolerance, and a 2-key lexsort
on (class, row index) picks representatives.  The report keeps the result
as read-only arrays: class entropies, multiplicities, and the kept
representative rows, int16, class after class, with a count per class.
Its text, CSV and JSON renderings read the arrays and format every
representative row in one pass; the EntropyClass objects of
CensusReport.classes are built only when that attribute is first read.

Results are deterministic: the same seed draws the same rows, the
grouping equals a single descending sweep, and worker parallelism only
splits the rows into contiguous blocks that are merged back in order, so
thread count never changes a single output byte.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import random
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    _entropy_from_cov,
    _norm_log_base,
    _position_covariance,
    _stacked_forms,
    _stacked_triangles,
)
from .graph import Graph, _integer, potential_matrix

REPRESENTATIVE_CAP = 16
# Most partitions one census enumerates or samples: n = 26 (5,200,300) fits
# a few GB, n = 28 (20,058,300) does not.
MAX_CENSUS_PARTITIONS = 10**7
# Most random keys the sampler holds at once.
SAMPLE_CHUNK_KEYS = 1 << 16
# Most bytes of factor columns and 4P blocks one stacked kernel step
# gathers; a row larger than this goes alone.
STACK_BYTES = 1 << 18


@dataclass(frozen=True)
class EntropyClass:
    """One entropy value and every partition that attains it."""

    entropy: float
    multiplicity: int
    representatives: tuple
    capped: bool


@dataclass(frozen=True, eq=False)
class CensusReport:
    """Full census output plus the configuration that produced it.

    The classes are held as arrays, in descending entropy order: entropies
    (each class's mean), multiplicities, and the representatives, one
    read-only int16 array of side-A rows, class after class, the first
    representative_counts[i] of them class i's.  classes builds the same
    content as EntropyClass objects on first read.  A report compares
    equal only to itself.
    """

    n: int
    g: float
    log_base: str
    tolerance: float
    total_partitions: int
    entropies: np.ndarray
    multiplicities: np.ndarray
    representatives: np.ndarray
    representative_counts: np.ndarray
    min_class: int
    max_class: int
    warnings: tuple

    def _columns(self):
        """(entropy, multiplicity, representative count) of each class, as
        Python numbers."""
        return zip(
            self.entropies.tolist(),
            self.multiplicities.tolist(),
            self.representative_counts.tolist(),
        )

    @functools.cached_property
    def classes(self) -> tuple:
        """One EntropyClass per class, built once, on first read."""
        rows = iter(map(tuple, self.representatives.tolist()))
        return tuple(
            EntropyClass(
                entropy=entropy,
                multiplicity=size,
                representatives=tuple(itertools.islice(rows, count)),
                capped=size > count,
            )
            for entropy, size, count in self._columns()
        )

    def joined_representatives(self, sep: str) -> list:
        """Each class's representatives as one string: a row's labels
        joined by sep, its rows by "|".  All rows are formatted in one
        gather from a table of label strings."""
        labels = np.array([str(i) for i in range(self.n)], dtype=object)
        rows = iter([sep.join(r) for r in labels[self.representatives].tolist()])
        return [
            "|".join(itertools.islice(rows, count))
            for count in self.representative_counts.tolist()
        ]

    def to_dict(self) -> dict:
        rows = iter(self.representatives.tolist())
        return {
            "n": self.n,
            "g": self.g,
            "logBase": self.log_base,
            "tolerance": self.tolerance,
            "totalPartitions": self.total_partitions,
            "minClass": self.min_class,
            "maxClass": self.max_class,
            "classes": [
                {
                    "entropy": float("%.12g" % entropy),
                    "multiplicity": size,
                    "representatives": list(itertools.islice(rows, count)),
                    "capped": size > count,
                }
                for entropy, size, count in self._columns()
            ],
            "warnings": list(self.warnings),
        }

    def to_csv(self) -> str:
        lines = ["class,entropy,multiplicity,capped,representatives"]
        reps = self.joined_representatives(" ")
        for i, (entropy, size, count) in enumerate(self._columns()):
            capped = "true" if size > count else "false"
            lines.append("%d,%.12g,%d,%s,%s" % (i, entropy, size, capped, reps[i]))
        return "\n".join(lines) + "\n"


def _side_a_subsets(n: int):
    """Side-A vertex tuples of all equal bipartitions, vertex 0 pinned."""
    half = n // 2
    for rest in itertools.combinations(range(1, n), half - 1):
        yield (0,) + rest


def _enumerated(n: int) -> np.ndarray:
    """Every side A, one row each, in strictly increasing lexicographic
    order, which _classes relies on."""
    half = n // 2
    count = math.comb(n - 1, half - 1)
    flat = itertools.chain.from_iterable(_side_a_subsets(n))
    return np.fromiter(flat, np.int16, count * half).reshape(count, half)


def _sampled(n: int, sample: int, seed: int) -> np.ndarray:
    """The distinct side-A rows among sample uniform draws, in strictly
    increasing lexicographic order, which _classes relies on.

    Each draw ranks n - 1 uniform 64-bit keys from random.Random(seed) and
    takes the vertices of the n/2 - 1 smallest, so it is a uniform subset of
    1..n-1; vertex 0 joins it.  numpy.random is never imported: it would
    add its size to every pool worker forked from this process.
    """
    half = n // 2
    side_a = np.zeros((sample, half), dtype=np.int16)
    rng = random.Random(seed)
    rows = SAMPLE_CHUNK_KEYS // (n - 1)
    for lo in range(0, sample, rows):
        hi = min(lo + rows, sample)
        keys = np.frombuffer(rng.randbytes(8 * (hi - lo) * (n - 1)), dtype="<u8")
        picked = keys.reshape(hi - lo, n - 1).argsort(axis=1)[:, : half - 1]
        picked.sort(axis=1)
        side_a[lo:hi, 1:] = picked + 1
    side_a = side_a[np.lexsort(side_a.T[::-1])]
    fresh = np.ones(sample, dtype=bool)
    fresh[1:] = (side_a[1:] != side_a[:-1]).any(axis=1)
    return side_a[fresh]


def _entropies(
    root_t: np.ndarray, p4: np.ndarray, base: str, side_a: np.ndarray
) -> np.ndarray:
    """Entropy of the cut of every row of side_a, in order.

    root_t is the transpose of the position-covariance factor F, C-ordered
    so that its rows are F's columns, and p4 is the n x n matrix 4P, whose
    blocks are gathered by one flat take on the linear indices
    a_i * n + a_j.  Consecutive rows go to _stacked_triangles and
    _stacked_forms in chunks whose gathered columns and blocks take at most
    STACK_BYTES together (one row if a single row is larger); each form is
    then summed on its own.
    """
    k, m = side_a.shape
    n = root_t.shape[1]
    row_bytes = root_t.itemsize * m * (n + m)
    step = max(1, STACK_BYTES // row_bytes)
    out = np.empty(k)
    for lo in range(0, k, step):
        # As int16, a_i * n would overflow.
        a = side_a[lo : lo + step].astype(np.intp)
        # Both gathers precede the QR.  Freeing the columns right after it
        # let glibc trim the heap top and fault it back in every chunk.
        cols = np.take(root_t, a, axis=0).swapaxes(1, 2)
        blocks = np.take(p4, a[:, :, None] * n + a[:, None, :])
        forms = _stacked_forms(_stacked_triangles(cols), blocks)
        out[lo : lo + len(a)] = [_entropy_from_cov(form, base) for form in forms]
    return out


def _classes(entropies: np.ndarray, side_a: np.ndarray, tolerance: float):
    """(means, sizes, reps, kept, warnings) of the descending sweep over
    (-entropy, side A).

    side_a's rows strictly increase in lexicographic order, so a stable
    sort of -entropy breaks ties on side A, and a row's index stands for
    the row itself.  A class breaks where consecutive sorted values differ
    by more than the tolerance.  Its entropy is the mean over its members,
    the same pairwise sum as np.mean of the list of them.  reps holds the
    first kept[i] = min(sizes[i], REPRESENTATIVE_CAP) members of every
    class i, in side_a's order, class after class.  The four arrays are
    read-only.
    """
    order = np.argsort(-entropies, kind="stable")
    e = entropies[order]
    breaks = np.flatnonzero(e[:-1] - e[1:] > tolerance) + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [e.size]))
    sizes = ends - starts
    class_id = np.repeat(np.arange(starts.size), sizes)
    # Each class's members in side_a's order, class after class.
    members = order[np.lexsort((order, class_id))]

    means = e[starts]
    for ci in np.flatnonzero(sizes > 1).tolist():
        means[ci] = e[starts[ci] : ends[ci]].mean()
    kept = np.minimum(sizes, REPRESENTATIVE_CAP)
    offsets = np.cumsum(kept) - kept
    picked = np.repeat(starts - offsets, kept) + np.arange(kept.sum())
    reps = side_a[members[picked]]
    for array in (means, sizes, reps, kept):
        array.flags.writeable = False

    warnings = []
    spreads = e[starts] - e[ends - 1]
    for ci in np.flatnonzero(spreads > tolerance / 10.0).tolist():
        warnings.append(
            "class %d members spread over %.3e, within 10x of the "
            "tolerance; consider tightening or loosening it" % (ci, spreads[ci])
        )
    gaps = e[breaks - 1] - e[breaks]
    for ci in np.flatnonzero(gaps <= 10.0 * tolerance).tolist():
        warnings.append(
            "boundary between classes %d and %d has gap %.3e, within "
            "10x of the tolerance" % (ci, ci + 1, gaps[ci])
        )
    return means, sizes, reps, kept, warnings


def entropy_census(
    graph: Graph,
    g: float,
    tolerance: float = 1e-9,
    log_base=2,
    threads: int = 1,
    sample: int | None = None,
    seed: int = 0,
) -> CensusReport:
    """Entropy of every equal bipartition, grouped into tolerance classes.

    Classes are reported in descending entropy order; a new class starts
    whenever the gap between consecutive sorted values exceeds the
    tolerance.  The class entropy is the mean over its members and the
    representatives are the lexicographically first members (capped at
    REPRESENTATIVE_CAP, with a flag when the cap bites).

    sample draws that many side-A subsets at random (deduplicated, seeded)
    instead of enumerating; use it to probe graphs too large for the full
    census.  The report is then an estimate of the class structure, not a
    census.  Either way at most MAX_CENSUS_PARTITIONS partitions are taken;
    a larger census or sample is refused before any work is done.

    threads asks for that many worker processes, at most os.cpu_count();
    with one worker, or fewer than two rows per worker, the census runs in
    this process.  The report is the same either way.
    """
    if not isinstance(graph, Graph):
        raise TypeError("expected a Graph")
    n = graph.n
    if n < 2 or n % 2:
        raise ValueError("census requires an even vertex count >= 2")
    tolerance = float(tolerance)
    if not (tolerance > 0.0 and math.isfinite(tolerance)):
        raise ValueError("tolerance must be positive and finite")
    if (threads := _integer(threads)) is None or threads < 1:
        raise ValueError("threads must be a positive integer")
    base = _norm_log_base(log_base)
    if sample is not None and ((sample := _integer(sample)) is None or sample < 1):
        raise ValueError("sample must be a positive integer")
    if (seed := _integer(seed)) is None:
        raise ValueError("seed must be an integer")
    count = math.comb(n - 1, n // 2 - 1) if sample is None else sample
    if count > MAX_CENSUS_PARTITIONS:
        raise ValueError(
            "%d partitions exceed the census limit of %d; take a smaller "
            "random sample with --sample" % (count, MAX_CENSUS_PARTITIONS)
        )

    side_a = _enumerated(n) if sample is None else _sampled(n, sample, seed)

    v = potential_matrix(graph, g)
    root_t = np.ascontiguousarray(_position_covariance(v).T)
    p4 = 4.0 * (v.matrix / 2.0)

    kernel = functools.partial(_entropies, root_t, p4, base)
    # The pool starts every worker at once, so more workers than cores would
    # only add processes.
    workers = min(threads, os.cpu_count() or 1)
    if workers == 1 or len(side_a) < 2 * workers:
        entropies = kernel(side_a)
    else:
        # Imported here so that serial runs never pay for multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        # Each worker gets one contiguous block of rows, pickled as one array.
        chunksize = math.ceil(len(side_a) / workers)
        blocks = [side_a[i : i + chunksize] for i in range(0, len(side_a), chunksize)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(kernel, blocks)
            entropies = np.concatenate(list(parts))

    means, sizes, reps, kept, warnings = _classes(entropies, side_a, tolerance)
    # The sweep is descending: class 0 holds the largest entropy, the last
    # class the smallest.
    return CensusReport(
        n=n,
        g=float(g),
        log_base=base,
        tolerance=tolerance,
        total_partitions=len(side_a),
        entropies=means,
        multiplicities=sizes,
        representatives=reps,
        representative_counts=kept,
        min_class=len(means) - 1,
        max_class=0,
        warnings=tuple(warnings),
    )

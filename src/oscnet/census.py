"""Exhaustive entropy census over equal bipartitions of a graph.

For an n-vertex graph (n even) there are binomial(n-1, n/2-1) distinct
equal bipartitions once (A, B) and (B, A) are identified; fixing vertex 0
on side A enumerates each exactly once.  The census computes the
entanglement entropy of every one of them with the symplectic reference
engine, groups values that agree within a tolerance into classes, and
reports class values, multiplicities, and representative partitions.

Results are deterministic: the enumeration order is lexicographic, the
grouping is a single descending sweep, and worker parallelism only splits
the enumeration into contiguous chunks that are merged back in order, so
thread count never changes a single output byte.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .gaussian import _entropy_from_cov, _norm_log_base, _position_covariance
from .graph import Graph, potential_matrix

REPRESENTATIVE_CAP = 16
# Most partitions one census enumerates or samples: n = 26 (5,200,300) fits
# a few GB, n = 28 (20,058,300) does not.
MAX_CENSUS_PARTITIONS = 10**7


@dataclass(frozen=True)
class EntropyClass:
    """One entropy value and every partition that attains it."""

    entropy: float
    multiplicity: int
    representatives: tuple
    capped: bool


@dataclass(frozen=True)
class CensusReport:
    """Full census output plus the configuration that produced it."""

    n: int
    g: float
    log_base: str
    tolerance: float
    total_partitions: int
    classes: tuple
    min_class: int
    max_class: int
    warnings: tuple

    def to_dict(self) -> dict:
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
                    "entropy": float("%.12g" % c.entropy),
                    "multiplicity": c.multiplicity,
                    "representatives": [list(r) for r in c.representatives],
                    "capped": c.capped,
                }
                for c in self.classes
            ],
            "warnings": list(self.warnings),
        }

    def to_csv(self) -> str:
        lines = ["class,entropy,multiplicity,capped,representatives"]
        for i, c in enumerate(self.classes):
            reps = "|".join(" ".join(str(v) for v in r) for r in c.representatives)
            lines.append(
                "%d,%.12g,%d,%s,%s"
                % (i, c.entropy, c.multiplicity, str(c.capped).lower(), reps)
            )
        return "\n".join(lines) + "\n"


def _side_a_subsets(n: int):
    """Side-A vertex tuples of all equal bipartitions, vertex 0 pinned."""
    half = n // 2
    for rest in itertools.combinations(range(1, n), half - 1):
        yield (0,) + rest


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
    """
    if not isinstance(graph, Graph):
        raise TypeError("expected a Graph")
    n = graph.n
    if n < 2 or n % 2:
        raise ValueError("census requires an even vertex count >= 2")
    tolerance = float(tolerance)
    if not tolerance > 0.0:
        raise ValueError("tolerance must be positive")
    if not math.isfinite(tolerance):
        raise ValueError("tolerance must be finite")
    if not isinstance(threads, int) or threads < 1:
        raise ValueError("threads must be a positive integer")
    base = _norm_log_base(log_base)
    if sample is not None and (not isinstance(sample, int) or sample < 1):
        raise ValueError("sample must be a positive integer")
    count = math.comb(n - 1, n // 2 - 1) if sample is None else sample
    if count > MAX_CENSUS_PARTITIONS:
        raise ValueError(
            "%d partitions exceed the census limit of %d; take a smaller "
            "random sample with --sample" % (count, MAX_CENSUS_PARTITIONS)
        )

    if sample is None:
        subsets = list(_side_a_subsets(n))
    else:
        rng = random.Random(seed)
        drawn = (
            tuple(sorted([0] + rng.sample(range(1, n), n // 2 - 1)))
            for _ in range(sample)
        )
        subsets = list(dict.fromkeys(drawn))

    v = potential_matrix(graph, g)
    root = _position_covariance(v)
    p_cov = v.matrix / 2.0

    kernel = functools.partial(_entropy_from_cov, root, p_cov, base=base)
    if threads == 1 or len(subsets) < 2 * threads:
        entropies = list(map(kernel, subsets))
    else:
        # Imported here so that serial runs never pay for multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        chunksize = math.ceil(len(subsets) / threads)
        with ProcessPoolExecutor(max_workers=threads) as pool:
            entropies = list(pool.map(kernel, subsets, chunksize=chunksize))

    order = sorted(range(len(subsets)), key=lambda i: (-entropies[i], subsets[i]))
    groups = []
    for i in order:
        if groups and groups[-1][-1][0] - entropies[i] <= tolerance:
            groups[-1].append((entropies[i], subsets[i]))
        else:
            groups.append([(entropies[i], subsets[i])])

    classes = []
    warnings = []
    for gi, members in enumerate(groups):
        values = [e for e, _ in members]
        subsets_sorted = sorted(s for _, s in members)
        spread = values[0] - values[-1]
        if spread > tolerance / 10.0:
            warnings.append(
                "class %d members spread over %.3e, within 10x of the "
                "tolerance; consider tightening or loosening it" % (gi, spread)
            )
        classes.append(
            EntropyClass(
                entropy=float(np.mean(values)),
                multiplicity=len(members),
                representatives=tuple(subsets_sorted[:REPRESENTATIVE_CAP]),
                capped=len(subsets_sorted) > REPRESENTATIVE_CAP,
            )
        )
    for gi in range(len(groups) - 1):
        gap = groups[gi][-1][0] - groups[gi + 1][0][0]
        if gap <= 10.0 * tolerance:
            warnings.append(
                "boundary between classes %d and %d has gap %.3e, within "
                "10x of the tolerance" % (gi, gi + 1, gap)
            )

    # The sweep is descending: class 0 holds the largest entropy, the last
    # class the smallest.
    return CensusReport(
        n=n,
        g=float(g),
        log_base=base,
        tolerance=tolerance,
        total_partitions=len(subsets),
        classes=tuple(classes),
        min_class=len(classes) - 1,
        max_class=0,
        warnings=tuple(warnings),
    )

"""A fixed reference computation that measures how fast the host is right now.

On a shared host the same op can take 1.7x longer for minutes at a time
while other tenants load the machine (README.md, Steadiness).  The
yardstick runs next to every timed op and does the same kind of work as the
op: a Python loop over eigen-solves of symmetric ``size`` x ``size``
matrices, the shape of the workload's blocks.  It uses numpy alone, never
oscnet, so a change to the program does not change it.  Dividing an op's
time by the yardstick's time next to it cancels most of the host's
slowdown; see ``normalized``.
"""

from __future__ import annotations

import time

import numpy as np

# The duration the yardstick is scaled to: a normalized op time is the op's
# wall time on a host where one yardstick run takes exactly this long.  Each
# workload's yardstick does a fixed number of solves (``WORKLOADS`` in
# workloads.py), chosen so that it takes about this long on a quiet 2-core
# x86-64 VM; there, normalized and wall seconds are of the same size.
NOMINAL_S = 0.02


class Yardstick:
    """``run()`` returns the seconds that ``solves`` fixed eigen-solves of
    ``size`` x ``size`` symmetric matrices took."""

    def __init__(self, size: int, solves: int):
        rng = np.random.default_rng(12345)
        self.matrices = []
        for _ in range(8):
            a = rng.standard_normal((size, size))
            self.matrices.append(a + a.T)
        self.solves = solves

    def run(self) -> float:
        start = time.perf_counter()
        for i in range(self.solves):
            np.linalg.eigvalsh(self.matrices[i % len(self.matrices)])
        return time.perf_counter() - start


def normalized(op_s: float, before_s: float, after_s: float) -> float:
    """The op's seconds scaled to a host where the yardstick takes NOMINAL_S,
    using the mean of the yardstick runs just before and just after it."""
    return op_s * NOMINAL_S / ((before_s + after_s) / 2.0)

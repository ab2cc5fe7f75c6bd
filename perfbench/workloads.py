"""The benchmark's workloads: the CLI arguments of one op and its output check.

A workload spec is a plain dict, so it can travel to a worker process as
JSON.  ``WORKLOADS`` holds the full-size specs the benchmark runs; the
benchmark's own tests build tiny specs of the same kinds.

Checks return a list of problems; an empty list means the op's output is
correct.  They use the library only through routes that the op did not
take: the census is checked against the whitened-coupling engine and pinned
class profiles, the single cut against the hypercube closed form.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter

G = 0.5
ENGINE_TOL = 1e-9
# Classes of a sampled census re-evaluated with the engine after each op.
SAMPLED_CLASS_CHECKS = 16

# Multiplicity profiles {class multiplicity: number of classes} of the full
# census at g = 0.5, as pinned by the repository's acceptance tests.
CUBE_PROFILE = {1: 1, 3: 2, 4: 1, 12: 2}
TESSERACT_PROFILE = {
    1: 1, 4: 2, 6: 1, 12: 1, 16: 1, 24: 2, 32: 4, 48: 8,
    72: 1, 96: 12, 192: 20, 384: 2,
}

# "blas" is the BLAS thread count of every process of the workload, set
# before numpy is imported; one thread keeps runs steady on a shared machine
# and leaves one core per pool worker.  "yardstick" is (matrix size, solves)
# of the reference work timed next to every op (yardstick.py): the census
# blocks are n/2 x n/2, and the single cut is dense linear algebra at large n.
WORKLOADS = {
    "census-h4": {
        "kind": "census", "d": 4, "threads": 1, "sample": None, "blas": 1,
        "classes": 55, "profile": TESSERACT_PROFILE, "yardstick": [8, 2000],
    },
    "census-h6-sample-par": {
        "kind": "census", "d": 6, "threads": 2, "sample": 8000, "blas": 1,
        "yardstick": [32, 400],
    },
    "cut-h10-parity": {
        "kind": "cut", "d": 10, "threads": 1, "blas": 1, "yardstick": [256, 7],
    },
}


def op_argv(spec: dict, seed: int, output: str) -> list:
    """Arguments of one ``oscnet.cli.main`` call for this workload."""
    graph = "hypercube:%d" % spec["d"]
    if spec["kind"] == "cut":
        side_a = parity_side_a(spec["d"])
        random.Random(seed).shuffle(side_a)
        subset = ",".join(str(v) for v in side_a)
        return ["entropy", "--graph", graph, "--g", str(G), "--subset", subset,
                "--output", output]
    argv = ["census", "--graph", graph, "--g", str(G)]
    if spec["sample"] is not None:
        argv += ["--sample", str(spec["sample"]), "--seed", str(seed)]
    if spec["threads"] != 1:
        argv += ["--threads", str(spec["threads"])]
    return argv + ["--output", output]


def serial_argv(argv: list) -> list | None:
    """The same op run with one thread, the reference for byte equality."""
    if "--threads" not in argv:
        return None
    out = list(argv)
    out[out.index("--threads") + 1] = "1"
    return out


def parity_side_a(d: int) -> list:
    """Vertices of H(d,2) with even Hamming weight."""
    return [v for v in range(1 << d) if bin(v).count("1") % 2 == 0]


def _without_threads_line(text: str) -> str:
    return "".join(
        line for line in text.splitlines(True) if not line.startswith("# threads =")
    )


def parse_census(text: str):
    """(total partitions, [(entropy, multiplicity, first representative)])."""
    lines = text.splitlines()
    body = [line for line in lines if not line.startswith("#")]
    head = re.fullmatch(r"(\d+) classes / (\d+) partitions", body[0])
    if not head or body[1] != "class entropy multiplicity representatives":
        raise ValueError("unexpected census header %r" % body[:2])
    n_classes, total = int(head[1]), int(head[2])
    rows = []
    for line in body[2 : 2 + n_classes]:
        index, entropy, mult, reps = line.split(" ")
        if int(index) != len(rows):
            raise ValueError("class rows out of order at %r" % line)
        first = tuple(int(v) for v in reps.split("|")[0].split(","))
        rows.append((float(entropy), int(mult), first))
    if len(rows) != n_classes or not body[2 + n_classes].startswith("min class"):
        raise ValueError("census lists %d class rows, header says %d"
                         % (len(rows), n_classes))
    return total, rows


class Checker:
    """Checks the outputs of one workload; holds what every check reuses.

    oscnet is imported only here, inside the workload process: run.py
    imports this module too and must not load numpy before the BLAS thread
    count is set.
    """

    def __init__(self, spec: dict, seed: int, reference: str | None = None):
        from oscnet import hypercube_graph, potential_matrix

        self.spec = spec
        self.seed = seed
        self.reference = reference
        self.n = 1 << spec["d"]
        self.potential = potential_matrix(hypercube_graph(spec["d"]), G)
        if spec["kind"] == "cut":
            from oscnet import analytic_entropy

            self.expected = analytic_entropy("parity_cut", spec["d"], G)

    def __call__(self, rc, text: str):
        """(problems, partitions, classes) for one op's exit code and output."""
        if rc != 0:
            return ["exit code %r" % (rc,)], 0, 0
        try:
            if self.spec["kind"] == "cut":
                return self._check_cut(text), 1, 0
            return self._check_census(text)
        except (ValueError, IndexError) as exc:
            return ["unparsable output: %s" % exc], 0, 0

    def _engine(self, side_a) -> float:
        from oscnet import Bipartition, entropy_of_bipartition

        cut = Bipartition.from_side_a(self.n, side_a)
        return entropy_of_bipartition(self.potential, cut)

    def _check_census(self, text: str):
        spec = self.spec
        total, rows = parse_census(text)
        problems = []
        mults = [m for _, m, _ in rows]
        if sum(mults) != total:
            problems.append("multiplicities sum to %d, not %d" % (sum(mults), total))
        if spec["sample"] is None:
            expected = math.comb(self.n - 1, self.n // 2 - 1)
            if total != expected:
                problems.append("%d partitions, expected %d" % (total, expected))
            if len(rows) != spec["classes"]:
                problems.append("%d classes, expected %d" % (len(rows), spec["classes"]))
            # JSON turns the profile's integer keys into strings.
            profile = {int(k): v for k, v in spec["profile"].items()}
            if dict(Counter(mults)) != profile:
                problems.append("multiplicity profile %s" % dict(Counter(mults)))
            picked = range(len(rows))
        else:
            if not 1 <= total <= spec["sample"]:
                problems.append("%d partitions from a sample of %d"
                                % (total, spec["sample"]))
            k = min(SAMPLED_CLASS_CHECKS, len(rows))
            picked = sorted(random.Random(self.seed).sample(range(len(rows)), k))
        for i in picked:
            entropy, _, side_a = rows[i]
            if len(side_a) != self.n // 2 or side_a[0] != 0:
                problems.append("class %d representative %r is not canonical"
                                % (i, side_a))
                continue
            engine = self._engine(side_a)
            if abs(engine - entropy) > ENGINE_TOL:
                problems.append("class %d entropy %.12g, engine %.12g"
                                % (i, entropy, engine))
        if self.reference is not None and (
            _without_threads_line(text) != _without_threads_line(self.reference)
        ):
            problems.append("output differs from the --threads 1 run")
        return problems, total, len(rows)

    def _check_cut(self, text: str):
        values = {}
        modes = 0
        header = "gamma nu degeneracy entropy"
        lines = text.splitlines()
        for line in lines[lines.index(header) + 1 :]:
            key, sep, value = line.partition(" entropy = ")
            if sep:
                values[key] = float(value)
            elif not line.startswith("difference"):
                modes += int(line.split(" ")[2])
        problems = []
        if modes != self.n // 2:
            problems.append("%d modes, expected %d" % (modes, self.n // 2))
        for route in ("engine", "oracle"):
            if route not in values:
                problems.append("no %s entropy line" % route)
            elif abs(values[route] - self.expected) > ENGINE_TOL:
                problems.append("%s entropy %.12g, closed form %.12g"
                                % (route, values[route], self.expected))
        return problems

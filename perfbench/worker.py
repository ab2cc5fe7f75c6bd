"""One workload process: set up, run ops for a while, check every output.

Started by run.py with the BLAS thread count already in its environment and
``src`` on its path, so the first numpy import sees both.  One op is one
in-process ``oscnet.cli.main(argv)`` call that writes its report to a file;
the op's time covers that call only, and the check of its output runs
after the clock stops.

Prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import workloads
import yardstick


def run_op(main, argv, output, sink):
    """Run one op; return (seconds, exit code or exception text, output text)."""
    if os.path.exists(output):
        os.remove(output)
    with contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = traceback.format_exc(limit=-1).strip()
        elapsed = time.perf_counter() - start
    try:
        with open(output, encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        text = ""
    return elapsed, rc, text


class Tally:
    """Ops attempted and failed, with the first few problems for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append("; ".join(problems)[:500])


def measure(main, argv, output, check, seconds, tally, sink, tracer=None,
            ruler=None):
    """Run ops until ``seconds`` have passed; return per-op
    (seconds, cuts, classes, layer metrics or None, normalized seconds or None).

    With a tracer, its totals are reset before each op and read right after
    it, so the check's own calls never reach them.  With a yardstick
    (``ruler``), it runs before the first op and after every op, and each
    op's time is also given normalized by the runs on either side of it.
    """
    ops = []
    deadline = time.perf_counter() + seconds
    before = ruler.run() if ruler else None
    while True:
        if tracer:
            tracer.reset()
        elapsed, rc, text = run_op(main, argv, output, sink)
        layers = tracer.layer_metrics() if tracer else None
        norm = None
        if ruler:
            after = ruler.run()
            norm = yardstick.normalized(elapsed, before, after)
            before = after
        problems, cuts, classes = check(rc, text)
        tally.record(problems)
        ops.append((elapsed, cuts, classes, layers, norm))
        if time.perf_counter() >= deadline:
            return ops


def machine_facts():
    import numpy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (info.get("name"), info.get("version"))
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
    }


def peak_rss_mb():
    """Peak RSS of this process plus that of its largest reaped child.

    Pool workers are reaped when ``cli.main`` returns, so after an op the
    child figure covers them.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def layer_report(traced, untraced_p50, is_census):
    """Median per-op layer metrics of the traced ops.

    Counts repeat exactly from op to op; median_low keeps them integers.
    """
    out = {}
    for key in traced[0][3]:
        median = statistics.median if key.endswith("_s") else statistics.median_low
        out[key] = median(op[3][key] for op in traced)
    partitions = statistics.median_low(op[1] for op in traced) if is_census else 0
    out["census.partitions"] = partitions
    out["census.classes"] = statistics.median_low(op[2] for op in traced)
    out["census.solves_per_partition"] = (
        out["gaussian.kernel.calls"] / partitions if partitions else 0.0
    )
    out["trace.overhead_s"] = statistics.median(op[0] for op in traced) - untraced_p50
    return out


def main(args=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--spec", required=True, help="workload spec as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process started")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    opts = parser.parse_args(args)
    spec = json.loads(opts.spec)

    from oscnet import cli

    output = os.path.join(opts.workdir, "report-%d.txt" % os.getpid())
    argv = workloads.op_argv(spec, opts.seed, output)
    tally = Tally()
    result = {}
    with open(os.devnull, "w", encoding="utf-8") as sink:
        first = run_op(cli.main, argv, output, sink)
        result["setup_s"] = time.monotonic() - opts.t0
        # Read before the checker and the timed loop allocate anything: this
        # is the memory a fresh process needs for one op.
        result["peak_rss_mb"] = peak_rss_mb()
        # Set-up normalized by the host's speed right after it.
        ruler = yardstick.Yardstick(*spec["yardstick"])
        after_setup = ruler.run()
        result["setup_norm_s"] = yardstick.normalized(
            result["setup_s"], after_setup, after_setup)
        reference = None
        serial = workloads.serial_argv(argv)
        if serial is not None and not opts.setup_only:
            reference = run_op(cli.main, serial, output, sink)[2]
        check = workloads.Checker(spec, opts.seed, reference)
        tally.record(check(first[1], first[2])[0])
        if not opts.setup_only:
            span = opts.seconds / 2.0 if opts.trace else opts.seconds
            plain = measure(cli.main, argv, output, check, span, tally, sink,
                            ruler=ruler)
            result["op_s"] = [op[0] for op in plain]
            result["op_norm_s"] = [op[4] for op in plain]
            result["cuts"] = sum(op[1] for op in plain)
            if opts.trace:
                import tracer

                with tracer.Tracer() as tr:
                    traced = measure(cli.main, argv, output, check, span, tally,
                                     sink, tracer=tr)
                result["layers"] = layer_report(
                    traced, statistics.median(result["op_s"]),
                    spec["kind"] == "census")
                result["absent"] = tr.absent
        if os.path.exists(output):
            os.remove(output)
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        problems=tally.problems,
        facts=machine_facts(),
        oscnet=os.path.dirname(cli.__file__),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""oscnet benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload census-h4 --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program is the checkout's own ``src``
tree; nothing is installed.  Each run starts fresh workload processes (see
worker.py) with the workload's BLAS thread count set before numpy is
imported.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Machine facts and any
failed checks go to earlier lines; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  README.md explains
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
# Fresh processes whose set-up time is measured; setup_s is their median.
SETUP_RUNS = 7
# Wall-clock limit for a whole run, all of its processes together.
RUN_TIMEOUT_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def check_pinning(spec: dict, nproc: int):
    """Refuse oversubscription: pool workers times BLAS threads above nproc."""
    demand = spec["threads"] * spec["blas"]
    if demand > nproc:
        raise BenchError(
            "%d pool workers x %d BLAS threads need %d cores, only %d available"
            % (spec["threads"], spec["blas"], demand, nproc)
        )


def run_worker(spec, seed, seconds, trace, workdir, setup_only, deadline):
    """Start one workload process, wait for it, return its result dict."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    for key in BLAS_ENV:
        env[key] = str(spec["blas"])
    # numpy asks for transparent huge pages on large arrays by default; whether
    # the kernel grants them depends on how fragmented memory is, so peak RSS
    # would depend on the host's state rather than on the program.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--spec", json.dumps(spec), "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--workdir", workdir,
    ]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--t0", repr(time.monotonic())]
    # Its own process group, so that ending it also ends its pool workers.
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except BaseException as exc:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError("run took longer than %g s" % RUN_TIMEOUT_S) from None
        raise
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("workload process exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise BenchError("workload process printed no result") from None
    if os.path.realpath(result["oscnet"]) != os.path.realpath(
        os.path.join(SRC, "oscnet")
    ):
        raise BenchError("imported oscnet from %s, not %s" % (result["oscnet"], SRC))
    return result


def run(spec, seed, seconds, trace):
    """Run a workload; return (summary line dict, machine facts)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    nproc = cpu_count()
    check_pinning(spec, nproc)
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=SCRATCH)
    try:
        probes = []
        if not trace:
            probes = [
                run_worker(spec, seed, seconds, 0, workdir, True, deadline)
                for _ in range(SETUP_RUNS - 1)
            ]
        main = run_worker(spec, seed, seconds, trace, workdir, False, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass
    everything = probes + [main]
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    for r in everything:
        for problem in r["problems"]:
            print("# failed check: %s" % problem)
    print("# ops attempted = %d, failed = %d, error_rate = %.6g"
          % (attempted, failed, failed / attempted))
    facts = dict(main["facts"], nproc=nproc, commit=git_commit(ROOT),
                 blas_threads=spec["blas"], pool_workers=spec["threads"])
    if trace:
        metrics = {k: (v, unit_of(k)) for k, v in main["layers"].items()}
        for name in main["absent"]:
            print("# absent boundary: %s" % name)
    else:
        op_s, norm = main["op_s"], main["op_norm_s"]
        metrics = {
            "op_s.p50": (statistics.median(norm), "s"),
            "cuts_per_s": (main["cuts"] / sum(norm), "1/s"),
            "setup_s": (statistics.median(r["setup_norm_s"] for r in everything), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in everything), "MB"),
        }
        print("# ops timed = %d; wall seconds per op: median %.4f, min %.4f, max %.4f"
              % (len(op_s), statistics.median(op_s), min(op_s), max(op_s)))
        print("# wall set-up seconds: median %.4f of %d processes"
              % (statistics.median(r["setup_s"] for r in everything), len(everything)))
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return line, facts


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric == "linalg.flops_computed":
        return "flop"
    if metric == "census.solves_per_partition":
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "oscnet", "__init__.py")):
        print("error: no oscnet source tree at %s" % SRC, file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[opts.workload]
    try:
        line, facts = run(spec, opts.seed, opts.seconds, opts.trace)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print("# machine %s" % json.dumps(dict(facts, workload=opts.workload), sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

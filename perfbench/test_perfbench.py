"""Tests of the benchmark itself: its checks reject broken outputs, its
tracer counts exactly, and every workload runs end to end at a tiny size."""

import io
import json
import os
import sys

import pytest

import run
import tracer
import worker
import workloads
import yardstick

sys.path.insert(0, run.SRC)

from oscnet import cli  # noqa: E402

TINY = {
    "census-h4": {
        "kind": "census", "d": 3, "threads": 1, "sample": None, "blas": 1,
        "classes": 6, "profile": workloads.CUBE_PROFILE, "yardstick": [4, 20],
    },
    "census-h6-sample-par": {
        "kind": "census", "d": 4, "threads": 2, "sample": 200, "blas": 1,
        "yardstick": [8, 20],
    },
    "cut-h10-parity": {
        "kind": "cut", "d": 4, "threads": 1, "blas": 1, "yardstick": [8, 20],
    },
}
SEED = 7


def _op(spec, tmp_path, argv=None):
    output = str(tmp_path / "report.txt")
    argv = argv or workloads.op_argv(spec, SEED, output)
    _, rc, text = worker.run_op(cli.main, argv, output, io.StringIO())
    return argv, rc, text


def _replace_line(text, start, new):
    lines = text.splitlines(True)
    i = next(i for i, line in enumerate(lines) if line.startswith(start))
    lines[i] = new
    return "".join(lines)


def test_census_check_accepts_good_output_and_rejects_a_perturbed_entropy(tmp_path):
    spec = TINY["census-h4"]
    _, rc, text = _op(spec, tmp_path)
    check = workloads.Checker(spec, SEED)
    assert check(rc, text) == ([], 35, 6)
    row = next(line for line in text.splitlines() if line.startswith("2 "))
    index, entropy, rest = row.split(" ", 2)
    bad = text.replace(row, "%s %.12g %s" % (index, float(entropy) + 1e-6, rest))
    problems, _, _ = check(rc, bad)
    assert any("class 2 entropy" in p for p in problems)


def test_census_check_rejects_a_missing_class(tmp_path):
    spec = TINY["census-h4"]
    _, rc, text = _op(spec, tmp_path)
    lines = text.splitlines(True)
    last = max(i for i, line in enumerate(lines) if line.startswith("5 "))
    del lines[last]
    bad = "".join(lines).replace("6 classes / 35 partitions", "5 classes / 35 partitions")
    problems, _, classes = workloads.Checker(spec, SEED)(rc, bad)
    assert classes == 5
    assert any("classes, expected 6" in p for p in problems)
    assert any("multiplicities sum" in p for p in problems)


def test_checks_reject_a_nonzero_exit(tmp_path):
    for spec in TINY.values():
        _, _, text = _op(spec, tmp_path)
        problems, _, _ = workloads.Checker(spec, SEED)(2, text)
        assert problems == ["exit code 2"]


def test_sampled_census_must_match_the_serial_run_byte_for_byte(tmp_path):
    spec = TINY["census-h6-sample-par"]
    argv, rc, text = _op(spec, tmp_path)
    _, _, serial = _op(spec, tmp_path, workloads.serial_argv(argv))
    assert "# threads = 2" in text and "# threads = 1" in serial
    assert workloads.Checker(spec, SEED, serial)(rc, text)[0] == []
    row = next(line for line in serial.splitlines() if line.startswith("3 "))
    index, entropy, rest = row.split(" ", 2)
    drifted = serial.replace(row, "%s %.12g %s" % (index, float(entropy) * 1.01, rest))
    problems, _, _ = workloads.Checker(spec, SEED, drifted)(rc, text)
    assert problems == ["output differs from the --threads 1 run"]


def test_cut_check_rejects_a_perturbed_entropy_and_a_lost_mode(tmp_path):
    spec = TINY["cut-h10-parity"]
    _, rc, text = _op(spec, tmp_path)
    check = workloads.Checker(spec, SEED)
    assert check(rc, text) == ([], 1, 0)
    oracle = next(line for line in text.splitlines() if line.startswith("oracle"))
    value = float(oracle.split(" = ")[1])
    bad = _replace_line(text, "oracle", "oracle entropy = %.12g\n" % (value + 1e-7))
    assert any(p.startswith("oracle entropy") for p in check(rc, bad)[0])
    header = "gamma nu degeneracy entropy\n"
    lines = text.splitlines(True)
    del lines[lines.index(header) + 1]
    assert "7 modes, expected 8" in check(rc, "".join(lines))[0]


def test_broken_outputs_make_the_error_rate_nonzero(tmp_path):
    spec = TINY["cut-h10-parity"]
    output = str(tmp_path / "report.txt")
    argv = workloads.op_argv(spec, SEED, output)

    def perturbed_main(args):
        rc = cli.main(args)
        with open(output, encoding="utf-8") as handle:
            text = handle.read()
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text.replace("engine entropy = ", "engine entropy = 1"))
        return rc

    tally = worker.Tally()
    check = workloads.Checker(spec, SEED)
    ops = worker.measure(perturbed_main, argv, output, check, 0.0, tally, io.StringIO())
    assert len(ops) == tally.attempted == tally.failed == 1
    worker.measure(lambda args: 3, argv, output, check, 0.0, tally, io.StringIO())
    assert tally.failed == tally.attempted == 2
    assert "exit code 3" in tally.problems[1]


def test_tracer_counts_repeat_exactly_and_unwraps(tmp_path):
    spec = TINY["census-h4"]
    output = str(tmp_path / "report.txt")
    argv = workloads.op_argv(spec, SEED, output)
    original = cli.main
    counts = []
    with tracer.Tracer() as tr:
        assert cli.main is not original
        assert tr.absent == []
        for _ in range(2):
            tr.reset()
            assert cli.main(argv) == 0
            counts.append({k: v for k, v in tr.layer_metrics().items()
                           if not k.endswith("_s")})
    assert cli.main is original
    assert counts[0] == counts[1]
    assert counts[0]["gaussian.kernel.calls"] == 35
    assert counts[0]["gaussian.entropy_sum.calls"] == 35 * 4
    assert counts[0]["linalg.eigvalsh.calls"] == 35
    assert counts[0]["linalg.cholesky.calls"] == 1


def test_tracer_reports_a_missing_boundary_as_absent(monkeypatch):
    spans = dict(tracer.LAYER_SPANS, **{"graph.build_s": ("graph.no_such_function",)})
    monkeypatch.setattr(tracer, "LAYER_SPANS", spans)
    with tracer.Tracer() as tr:
        assert tr.absent == ["graph.no_such_function"]
        assert tr.layer_metrics()["graph.build_s"] == 0


def test_yardstick_normalizes_each_op_by_the_runs_around_it(tmp_path):
    assert yardstick.normalized(0.5, 0.03, 0.05) == pytest.approx(
        0.5 * yardstick.NOMINAL_S / 0.04)
    spec = TINY["census-h4"]
    output = str(tmp_path / "report.txt")
    argv = workloads.op_argv(spec, SEED, output)
    runs = iter([0.01, 0.03, 0.05])

    class Ruler:
        def run(self):
            return next(runs)

    check = workloads.Checker(spec, SEED)
    ops = worker.measure(cli.main, argv, output, check, 0.0, worker.Tally(),
                         io.StringIO(), ruler=Ruler())
    elapsed, norm = ops[0][0], ops[0][4]
    assert norm == pytest.approx(yardstick.normalized(elapsed, 0.01, 0.03))
    assert yardstick.Yardstick(8, 3).run() > 0


def test_pinning_refuses_oversubscription():
    run.check_pinning({"threads": 2, "blas": 1}, 2)
    with pytest.raises(run.BenchError):
        run.check_pinning({"threads": 2, "blas": 2}, 2)


def test_linalg_flops_are_computed_from_shapes():
    import numpy as np

    a = np.eye(4)
    assert tracer.linalg_flops("cholesky", (a,), {}) == pytest.approx(64 / 3)
    assert tracer.linalg_flops("eigh", (np.zeros((3, 4, 4)),), {}) == 3 * 9 * 64
    assert tracer.linalg_flops("svd", (np.zeros((4, 2)),), {"compute_uv": False}) == (
        pytest.approx(4 * 4 * 4 - 4 / 3 * 8)
    )


@pytest.mark.skipif(run.cpu_count() < 2, reason="the pool workload needs two cores")
@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_every_workload_at_a_tiny_size(name):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert name in {w["name"] for w in bench["workloads"]}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        line, facts = run.run(TINY[name], SEED, 0.2, trace)
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
        declared = {m["name"]: m["unit"] for m in bench[section]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
        assert facts["blas_threads_env"] == "1"
    if name == "census-h4":
        metrics = line["metrics"]
        assert metrics["gaussian.kernel.calls"]["value"] == 35
        assert metrics["census.solves_per_partition"]["value"] == 1.0
        assert metrics["census.classes"]["value"] == 6

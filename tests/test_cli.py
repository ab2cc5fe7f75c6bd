"""Command-line behaviors: formats, exit codes, config echo, determinism."""

import json
import os
import subprocess
import sys

import pytest

import oscnet
from oscnet import analytic_entropy, entropy_census, hypercube_graph, named_bipartition
from oscnet.cli import main


def test_entropy_two_node(capsys):
    rc = main(["entropy", "--graph", "hypercube:1", "--g", "0.5", "--subset", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "# oscnet entropy" in out
    assert "# graph = hypercube:1" in out
    # 12 significant digits of the frozen two-node value
    assert "engine entropy = 0.401413546086" in out
    assert "oracle entropy = 0.401413546086" in out


def test_entropy_parity_subset_matches_census_max(capsys):
    rc = main(
        ["entropy", "--graph", "hypercube:3", "--g", "0.5", "--subset", "0,3,5,6"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    report = entropy_census(hypercube_graph(3), 0.5)
    top = report.classes[report.max_class].entropy
    assert ("engine entropy = %.12g" % top) in out


def test_entropy_parity_cut_at_n_1024(capsys):
    side_a = named_bipartition(10, "parity").side_a
    rc = main(
        [
            "entropy", "--graph", "hypercube:10", "--g", "0.5",
            "--subset", ",".join(str(v) for v in side_a), "--format", "json",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    closed = analytic_entropy("parity_cut", 10, 0.5)
    assert abs(doc["engineEntropy"] - closed) < 1e-9
    assert abs(doc["oracleEntropy"] - closed) < 1e-9
    assert sum(m["degeneracy"] for m in doc["modes"]) == 512


def test_entropy_json_format(capsys):
    rc = main(
        [
            "entropy", "--graph", "hypercube:2", "--g", "0.25",
            "--subset", "0,3", "--format", "json",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["graph"] == "hypercube:2"
    assert abs(doc["engineEntropy"] - doc["oracleEntropy"]) < 1e-9
    assert len(doc["modes"]) == 2


def test_entropy_bad_inputs_exit_2(capsys):
    assert main(["entropy", "--graph", "hypercube:2", "--g", "0.5", "--subset", "0,x"]) == 2
    assert main(["entropy", "--graph", "hypercube:1", "--g", "0.5", "--subset", "0,1"]) == 2
    assert main(["entropy", "--graph", "hypercube:2", "--g", "0.5", "--subset", "9"]) == 2
    assert main(["entropy", "--graph", "hypercube:2", "--g", "0.5", "--subset", "0,0,3"]) == 2
    assert main(["entropy", "--graph", "mesh:2", "--g", "0.5", "--subset", "0"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_census_text_summary(capsys):
    rc = main(["census", "--graph", "hypercube:3", "--g", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "6 classes / 35 partitions" in out
    assert "# tolerance = 1e-09" in out
    assert "min class = 5 (entropy " in out
    assert "max class = 0 (entropy " in out
    assert ", multiplicity 3)" in out
    assert ", multiplicity 1)" in out


def test_g_defaults_to_half(capsys):
    rc = main(["entropy", "--graph", "hypercube:1", "--subset", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "# g = 0.5" in out
    assert "engine entropy = 0.401413546086" in out


def test_census_json_output_file(tmp_path, capsys):
    target = tmp_path / "census.json"
    rc = main(
        [
            "census", "--graph", "hypercube:2", "--g", "0.3",
            "--format", "json", "--output", str(target),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert str(target) in out
    doc = json.loads(target.read_text())
    assert doc["config"]["graph"] == "hypercube:2"
    assert doc["totalPartitions"] == 3
    assert len(doc["classes"]) == 2


def test_census_csv_format(capsys):
    rc = main(["census", "--graph", "hypercube:2", "--g", "0.3", "--format", "csv"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "class,entropy,multiplicity,capped,representatives"
    assert len(out) == 3


def test_census_threads_do_not_change_results(tmp_path):
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    base = ["census", "--graph", "hypercube:3", "--g", "0.5", "--format", "json"]
    assert main(base + ["--threads", "1", "--output", str(one)]) == 0
    assert main(base + ["--threads", "2", "--output", str(two)]) == 0
    doc_one = json.loads(one.read_text())
    doc_two = json.loads(two.read_text())
    # the config echo records the differing thread counts; the report itself
    # must not depend on them
    assert doc_one.pop("config")["threads"] == 1
    assert doc_two.pop("config")["threads"] == 2
    assert doc_one == doc_two


def test_analytic_command(capsys):
    rc = main(["analytic", "--scheme", "half-strata", "--d", "3", "--g", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    expect = analytic_entropy("half_strata", 3, 0.5)
    assert ("total entropy = %.12g" % expect) in out

    rc = main(
        [
            "analytic", "--scheme", "identity-cut", "--d", "4", "--g", "1.0",
            "--format", "json",
        ]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert abs(doc["totalEntropy"] - analytic_entropy("identity_cut", 4, 1.0)) < 1e-12
    assert sum(m["degeneracy"] for m in doc["modes"]) == 8

    # a non-finite coupling is bad usage, not a nan or zero entropy
    for g in ("nan", "inf"):
        assert main(["analytic", "--scheme", "parity", "--d", "3", "--g", g]) == 2
        assert "finite" in capsys.readouterr().err


def test_verify_command_exit_codes(capsys):
    assert main(["verify", "--scheme", "parity", "--d", "3", "--g", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "VERIFY OK" in out

    assert main(["verify", "--scheme", "half-strata", "--d", "5", "--g", "0.1"]) == 0
    capsys.readouterr()

    # an absurd tolerance turns roundoff into a reported failure
    assert (
        main(
            [
                "verify", "--scheme", "identity-cut", "--d", "6", "--g", "0.5",
                "--tolerance", "1e-18",
            ]
        )
        == 1
    )
    assert "VERIFY FAIL" in capsys.readouterr().out

    # half-strata needs odd d: usage error, not verification failure
    assert main(["verify", "--scheme", "half-strata", "--d", "4", "--g", "0.5"]) == 2

    # a tolerance that is not positive and finite, or a non-finite coupling,
    # is bad usage, not a verdict
    for flag, value in (
        ("--tolerance", "nan"), ("--tolerance", "inf"), ("--tolerance", "-1"),
        ("--tolerance", "0"), ("--g", "nan"), ("--g", "inf"),
    ):
        assert main(["verify", "--scheme", "parity", "--d", "3", flag, value]) == 2
        assert "finite" in capsys.readouterr().err


def test_spectrum_command(capsys):
    rc = main(["spectrum", "--d", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "block dimension degeneracy" in out
    assert "0 4 1" in out
    assert "basis check" in out

    rc = main(["spectrum", "--d", "4", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["blocks"] == [
        {"dimension": 5, "degeneracy": 1},
        {"dimension": 3, "degeneracy": 3},
        {"dimension": 1, "degeneracy": 2},
    ]
    assert doc["basisCheckMaxDelta"] < 1e-9


def test_log_base_flag(capsys):
    rc = main(
        [
            "entropy", "--graph", "hypercube:1", "--g", "0.5",
            "--subset", "0", "--log-base", "e",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "engine entropy = 0.278238667708" in out


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_scheme_choices_in_help(capsys):
    for command in ("analytic", "verify"):
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        assert err.value.code == 0
        assert "--scheme {half-strata,identity-cut,parity}" in capsys.readouterr().out


def test_module_entry_point_exit_code():
    src = os.path.dirname(os.path.dirname(oscnet.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    argv = ["verify", "--scheme", "parity", "--d", "3"]
    done = subprocess.run(
        [sys.executable, "-m", "oscnet.cli"] + argv,
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("VERIFY OK\n")

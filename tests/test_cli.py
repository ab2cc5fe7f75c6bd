"""Command-line behaviors: formats, exit codes, config echo, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest

import oscnet
from oscnet import analytic_entropy, entropy_census, hypercube_graph, named_bipartition
from oscnet import census, cli, cosets, gaussian, graph
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


def test_an_entropy_op_pays_each_fixed_cost_once(monkeypatch, capsys):
    # On the H(6,2) parity cut: the translations T and the distinct sectors
    # are computed once and read by both routes, side A's labels are
    # checked once, the per-mode entropies are evaluated once for the table
    # and the engine's total, and two main calls of one process build one
    # parser.  The bytes are those of a fresh process.
    calls = {}

    def counting(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in (
        (cosets, "_translation_stabiliser"),
        (cosets, "_sectors"),
        (gaussian.ModeSpectrum, "entropies"),
        (graph, "_vertex_labels"),
        (cli, "build_parser"),
    ):
        counting(owner, name)
    cli._parser.cache_clear()
    argv = ["entropy", "--graph", "hypercube:6", "--subset", PARITY_6, "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert calls == {
        "build_parser": 1,
        "_vertex_labels": 1,
        "_translation_stabiliser": 1,
        "_sectors": 1,
        "entropies": 1,
    }
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert calls["build_parser"] == 1
    monkeypatch.undo()
    src = os.path.dirname(os.path.dirname(oscnet.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-m", "oscnet.cli"] + argv,
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == first


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


def test_entropy_prints_zero_modes_as_zero(capsys):
    # The SVD leaves ~1e-17 of rounding noise where the second mode of this
    # cut is exactly zero; gamma below GAMMA_ZERO prints as 0.
    argv = ["entropy", "--graph", "hypercube:2", "--subset", "0,3"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    top = lines.index("gamma nu degeneracy entropy")
    assert lines[top + 1 : top + 3] == [
        "0.666666666667 1.3416407865 1 0.701882486605",
        "0 1 1 0",
    ]
    assert main(argv + ["--format", "json"]) == 0
    modes = json.loads(capsys.readouterr().out)["modes"]
    assert modes[1] == {"gamma": 0.0, "nu": 1.0, "degeneracy": 1, "entropy": 0.0}


def test_entropy_bad_inputs_exit_2(capsys):
    assert main(["entropy", "--graph", "hypercube:2", "--g", "0.5", "--subset", "0,x"]) == 2
    assert main(["entropy", "--graph", "hypercube:1", "--g", "0.5", "--subset", "0,1"]) == 2
    assert main(["entropy", "--graph", "hypercube:2", "--g", "0.5", "--subset", "9"]) == 2
    assert main(["entropy", "--graph", "hypercube:2", "--g", "0.5", "--subset", "0,0,3"]) == 2
    assert main(["entropy", "--graph", "mesh:2", "--g", "0.5", "--subset", "0"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


# What entropy makes of each --subset on hypercube:4: the exit code, and the
# error or the side A it echoes.  Each comma-separated token is read by int,
# so a sign and digit underscores pass and empty tokens are skipped; a label
# past int64 is out of range, and the range check comes before the check
# for repeats.
SUBSET_OUTCOMES = [
    ("", 2, "error: both sides of a bipartition must be non-empty\n"),
    (" ", 2, "error: both sides of a bipartition must be non-empty\n"),
    ("1,,2,0", 0, "0,1,2"),
    ("+0,1_0", 0, "0,10"),
    ("0,1.5", 2, "error: subset must be comma-separated integers, got '0,1.5'\n"),
    ("0,99999999999999999999999", 2, "error: side A vertex out of range\n"),
    ("0,-99999999999999999999999", 2, "error: side A vertex out of range\n"),
    ("16,0,0", 2, "error: side A vertex out of range\n"),
    ("0,0", 2, "error: bipartition sides contain duplicate vertices\n"),
]


@pytest.mark.parametrize("subset, code, want", SUBSET_OUTCOMES)
def test_entropy_subset_forms_keep_their_outcomes(capsys, subset, code, want):
    assert main(["entropy", "--graph", "hypercube:4", "--subset", subset]) == code
    captured = capsys.readouterr()
    if code:
        assert (captured.out, captured.err) == ("", want)
    else:
        assert "# subset = %s\n" % want in captured.out and captured.err == ""


def test_too_strong_coupling_exits_2_naming_g(capsys):
    # 1 + 2g*deg rounds to 2g*deg: V is singular, and the error says that g
    # is too strong rather than too negative or a bare LAPACK message
    for argv in (
        ["census", "--graph", "hypercube:3", "--g", "1e16"],
        ["census", "--graph", "hypercube:3", "--g", "1e200"],
        ["census", "--graph", "hypercube:2", "--g", "1e200"],
        ["entropy", "--graph", "hypercube:2", "--g", "1e308", "--subset", "0,3"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "g = %r is too strong" % float(argv[4]) in captured.err


@pytest.mark.parametrize("g", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--graph", "hypercube:2", "--subset", "0,3"],
        ["census", "--graph", "hypercube:2"],
    ],
)
def test_non_finite_coupling_exits_2_naming_g(capsys, argv, g):
    assert main(argv + ["--g=" + g]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: coupling g = %r must be finite\n" % float(g)


def test_census_at_strong_coupling(capsys):
    # X_A's eigenvalues reach down to 1/(2(1 + 4gd)) ~ 4e-13 here, and no
    # absolute floor refuses them.  The entropies, ~20 bits, carry up to
    # 8e-10 of rounding noise (measured against mpmath), which the default
    # 1e-9 tolerance does not always absorb; the six classes lie 0.04 apart.
    argv = ["census", "--graph", "hypercube:3", "--g", "1e11"]
    assert main(argv) == 0
    assert " / 35 partitions" in capsys.readouterr().out
    assert main(argv + ["--tolerance", "1e-8"]) == 0
    assert "6 classes / 35 partitions" in capsys.readouterr().out
    # Every class has an mpmath spread of 0; the kernel's rounding noise
    # must stay under the tolerance / 10 that triggers a spread warning.
    assert main(["census", "--graph", "hypercube:4", "--g", "1e4"]) == 0
    out = capsys.readouterr().out
    assert "55 classes / 6435 partitions" in out
    assert "warning:" not in out


def test_census_too_large_exits_2(capsys, monkeypatch):
    # H(5,2) has 300,540,195 equal bipartitions, far beyond memory: the count
    # alone must refuse it, before one subset is built.
    def never(n):
        raise AssertionError("enumerated %d vertices" % n)

    monkeypatch.setattr(census, "_side_a_subsets", never)
    assert main(["census", "--graph", "hypercube:5"]) == 2
    err = capsys.readouterr().err
    assert "300540195 partitions exceed the census limit of 10000000" in err
    assert "--sample" in err
    argv = ["census", "--graph", "hypercube:5", "--sample", "10000001"]
    assert main(argv) == 2
    assert "10000001 partitions exceed" in capsys.readouterr().err


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


# sha256 of the census's stdout in each format, and its --output summary
# line, as printed before the report held its classes as arrays.
CHORDED_CYCLE = "0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n0 3\n"
CENSUS_DIGESTS = [
    (
        ["--graph", "hypercube:3"],
        {
            "text": "5759bdc22f315828f20eaac9e9c07f7ea7ef04551844fb8b164e3f2e9e346c73",
            "csv": "8486af99ce8a9b6ea273b48d6e474d5883c3704108a0e2adbd28e17996a8bb56",
            "json": "4f2e0a50f999851de9f7c2d7a1aed181122a4809d77061d354ba0e0096ede5f7",
        },
        "6 classes / 35 partitions (min 0.704508412743, max 1.2793800332)",
    ),
    (
        ["--graph", "hypercube:4"],
        {
            "text": "02b38c7a6466259ea53c16fa23d6801fcad7c56fdb40cb2dbcf11ba4f2a219c2",
            "csv": "e6203c5501e7b0b29fe146336ad7bf1cd0188f2a6b9c9ad702a3b456af35788e",
            "json": "7e88e03366b002a7ffacb025f4d9f02417433acdb4d3b3d2b69da7d31afeb505",
        },
        "55 classes / 6435 partitions (min 0.984681867792, max 2.16232257408)",
    ),
    (
        ["--graph", "hypercube:6", "--sample", "300", "--seed", "7", "--threads", "2"],
        {
            "text": "0a217ad4a11e13598dfaf74565b23bd5fb328ab47c94205343d33a514065a816",
            "csv": "07181640226001b23d74c54d21d829b05ff726742a28f8c3234c5e58983c26da",
            "json": "90bb91e32a5afaf4f261785bb3548e54080bbddcb926a09a47611dc5950250d0",
        },
        "300 classes / 300 partitions (min 3.7211956483, max 4.81528384092)",
    ),
    (
        ["--graph", "file:chorded.txt"],
        {
            "text": "bf7a792767ea1cd1591887c23d92bb28dd4b91f1e97f8248d396266fe502c2cd",
            "csv": "70c5a48b6555fc6453a4030f6a6dd4b73a54d325d50744fb46dd84f95db57c2c",
            "json": "6b39b2ec53fa191357cae864b7cf331247e6bc2ab5cd0fd919d5763ea09d894b",
        },
        "5 classes / 10 partitions (min 0.536222564309, max 1.01693691075)",
    ),
]


@pytest.mark.parametrize(
    "argv, digests, summary",
    CENSUS_DIGESTS,
    ids=["hypercube-3", "hypercube-4", "hypercube-6-sample", "file-chorded"],
)
def test_census_output_bytes_are_pinned_and_build_no_entropy_class(
    tmp_path, monkeypatch, capsys, argv, digests, summary
):
    def refuse(**fields):
        raise AssertionError("the census CLI built an EntropyClass")

    monkeypatch.setattr(census, "EntropyClass", refuse)
    # A relative path, so that the echoed graph URI does not vary.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chorded.txt").write_text(CHORDED_CYCLE)
    for fmt, digest in digests.items():
        assert main(["census", *argv, "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt
    assert main(["census", *argv, "--output", "census.txt"]) == 0
    assert capsys.readouterr().out == summary + " -> census.txt\n"
    text = (tmp_path / "census.txt").read_bytes()
    assert hashlib.sha256(text).hexdigest() == digests["text"]


REPORT_ARGVS = [
    ["census", "--graph", "hypercube:3", "--format", fmt] for fmt in ("text", "csv", "json")
] + [
    # 600 classes: more than one rendering slice and one written chunk.
    ["census", "--graph", "hypercube:6", "--sample", "600", "--format", fmt]
    for fmt in ("text", "csv")
] + [
    ["entropy", "--graph", "hypercube:2", "--subset", "0,1", "--format", fmt]
    for fmt in ("text", "json")
] + [
    ["analytic", "--scheme", "parity", "--d", "4", "--format", fmt]
    for fmt in ("text", "json")
] + [
    ["verify", "--scheme", "parity", "--d", "3"],
    ["spectrum", "--d", "5", "--format", "text"],
    ["spectrum", "--d", "5", "--format", "json"],
]


@pytest.mark.parametrize("argv", REPORT_ARGVS, ids=" ".join)
def test_output_file_bytes_equal_stdout_bytes(tmp_path, capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    target = tmp_path / "report"
    assert main(argv + ["--output", str(target)]) == 0
    assert target.read_bytes() == out.encode()


def _synthetic_report(classes):
    """A census report of n = 64 with the given number of classes; every
    eighth class is capped at 16 representatives, the others hold one."""
    capped = np.arange(classes) % 8 == 0
    counts = np.where(capped, census.REPRESENTATIVE_CAP, 1)
    sizes = np.where(capped, 40, 1)
    rows = int(counts.sum())
    reps = (np.arange(rows)[:, None] * 7 + np.arange(32)) % 64
    return census.CensusReport(
        n=64, g=0.5, log_base="2", tolerance=1e-9,
        total_partitions=int(sizes.sum()),
        entropies=np.linspace(5.0, 3.0, classes), multiplicities=sizes,
        representatives=reps.astype(np.int16), representative_counts=counts,
        min_class=classes - 1, max_class=0, warnings=(),
    )


def test_census_rendering_memory_does_not_grow_with_the_class_count(
    tmp_path, monkeypatch
):
    # The text and CSV reports are written in chunks of lines, formatted a
    # slice of classes at a time: 0.87 MB traced at 5,000 and at 50,000
    # classes, graph and parser included.  Building each report whole took
    # 8 MB and 81 MB.
    target = tmp_path / "census.out"
    for classes in (5_000, 50_000):
        report = _synthetic_report(classes)
        monkeypatch.setattr(census, "entropy_census", lambda *a, **k: report)
        for fmt in ("text", "csv"):
            argv = ["census", "--graph", "hypercube:6", "--format", fmt]
            argv += ["--output", str(target)]
            # A warm-up call, so first-use allocations stay out of the peak.
            assert main(argv) == 0
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20, (classes, fmt, peak)
        assert target.read_text() == report.to_csv()


def test_census_to_a_closed_pipe_exits_0_quietly():
    # The reader takes the first line and closes the pipe while the 0.5 MB
    # report is still being written; the rest is dropped without an error.
    src = os.path.dirname(os.path.dirname(oscnet.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    argv = ["census", "--graph", "hypercube:6", "--sample", "5000", "--seed", "1"]
    with subprocess.Popen(
        [sys.executable, "-m", "oscnet.cli"] + argv,
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        rc = proc.wait(timeout=60)
    assert first == b"# oscnet census\n"
    assert (rc, err) == (0, b"")


@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_census_summary_to_a_closed_pipe_exits_0_quietly(tmp_path, unbuffered):
    # With --output the report goes to the file and a one-line summary to
    # stdout, here a pipe whose reader is gone before the census starts.
    # Buffered, the summary's write fails in the interpreter's last flush
    # (exit 120); unbuffered, in the command (exit 2).
    src = os.path.dirname(os.path.dirname(oscnet.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    target = tmp_path / "report.txt"
    argv = ["census", "--graph", "hypercube:3"]
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "oscnet.cli"] + argv + ["--output", str(target)],
            env=env, stdout=write, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (0, b"")
    want = tmp_path / "want.txt"
    assert main(argv + ["--output", str(want)]) == 0
    assert target.read_bytes() == want.read_bytes()


# sha256 of the stdout of analytic (every scheme, both log bases, text and
# JSON) and of spectrum, as printed while spectra carried a log base.  Two
# JSON totals were pinned again when ModeSpectrum.total_entropy began to
# sum by fsum: each moved by one ulp.
ANALYTIC_DIGESTS = {
    ("parity", "6", "1e8", "2", "text"):
        "4ccfecffb4f35bc6f89f3158359e8353a76aa73a5d66e848f5452ff51af2eae2",
    ("parity", "6", "1e8", "2", "json"):
        "1fa1d3d53ea0081973ed3842b4e9550b8dce9e519f9969635ee9abc06f62b60a",
    ("parity", "6", "1e8", "e", "text"):
        "4f06e2f24215ffa26d08e028661998ee0b9657bbb5ba2321072cf6f6f0a31ae6",
    ("parity", "6", "1e8", "e", "json"):
        "780f42f673360d1670dae2bf6a4e97216bd3c5225ee03a21dc256fe0a98683d0",
    ("identity-cut", "4", "1e-6", "2", "text"):
        "8044097d08a4a568c2c9e62ae01b244038820f00e57e8a606d1ff1e191884e43",
    ("identity-cut", "4", "1e-6", "2", "json"):
        "132bbee158e89c10bd9f14e25f8a4e0e4636157d8a86b32cedd9c02d1a120d32",
    ("identity-cut", "4", "1e-6", "e", "text"):
        "f5970a57c428660cf427a2f32c6f354b1aec2ebb0180a34543a23aa610ab33b5",
    ("identity-cut", "4", "1e-6", "e", "json"):
        "655ddf4e9843b557605627463aacc9f1d2724beea404d378e3c71c3a10b18649",
    ("half-strata", "5", "0.5", "2", "text"):
        "b1c41c332d26a9bfc0504d659f45acf986d10dbdf5c45b255d1d1efa6859f424",
    ("half-strata", "5", "0.5", "2", "json"):
        "ce69d2bcec8442e31d01babfcc016fedd0cc60078f92cb7aa66a4788d2693337",
    ("half-strata", "5", "0.5", "e", "text"):
        "4eb8bd84030065221dc96fd49b67b1c1b14003e65afc9d0417e4105f76e75491",
    ("half-strata", "5", "0.5", "e", "json"):
        "3e9db45edbcf82dd3a6064037c872b440979516c1e859bd48da49e3cf3ca6556",
}
SPECTRUM_DIGESTS = {
    "text": "5715b1e0fc9215f922da643cf2cf63f84514d9d7cf4172cb0b445f071faf1a77",
    "json": "f53780c42a55cf6f216afcc970e177a679d693e6ff7d5bf05183984a9c962a15",
}
# sha256 of entropy's text stdout, printed then too, without its difference
# line, which is the rounding noise of two routes.  Facet cuts have no zero modes, whose
# printed gammas would be rounding noise too.
ENTROPY_DIGESTS = {
    ("hypercube:2", "0,1", "2"):
        "b0ddbd60e5e31fe41ec5356af51ded6b955525b39a93e491ce8d0cecd63fc901",
    ("hypercube:2", "0,1", "e"):
        "f465643845d66c1620058a95b800e42ea6b80cba4534ce1bf99d89dcdb5e343d",
    ("hypercube:3", "0,1,2,3", "2"):
        "5d76d962ca1f5dcf9a79ec682f8889b405c8bb22b28e3402cc7599f21de8782e",
    ("hypercube:3", "0,1,2,3", "e"):
        "b55ae648ce900048a21202cdfcd89a88c9df389935d6a84796f6977efa801076",
}


def _stdout_sha256(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    out = "".join(
        line for line in out.splitlines(True) if not line.startswith("difference")
    )
    return hashlib.sha256(out.encode()).hexdigest()


def test_analytic_spectrum_and_entropy_output_bytes_are_pinned(capsys):
    for (scheme, d, g, base, fmt), digest in ANALYTIC_DIGESTS.items():
        argv = ["analytic", "--scheme", scheme, "--d", d, "--g", g,
                "--log-base", base, "--format", fmt]
        assert _stdout_sha256(capsys, argv) == digest, argv
    for fmt, digest in SPECTRUM_DIGESTS.items():
        argv = ["spectrum", "--d", "6", "--format", fmt]
        assert _stdout_sha256(capsys, argv) == digest, argv
    for (graph, subset, base), digest in ENTROPY_DIGESTS.items():
        argv = ["entropy", "--graph", graph, "--subset", subset, "--log-base", base]
        assert _stdout_sha256(capsys, argv) == digest, argv


# sha256 of entropy's whole stdout, text and JSON, as printed while V was
# built dense.  The JSON carries every float at full precision, so these pin
# the bits of the engine and the oracle.  The parity cuts' entries were
# pinned again when the engine split coset-union cuts of H(d,2) into
# translation sectors, and again when the oracle did and the engine's total
# was summed by fsum; the text changed only in its difference line.  The
# H(6,2) entries were pinned again when the oracle's sectors took the
# Walsh form; the H(10,2) oracle kept its bits.  At
# n = 1024 BLAS rounds differently on more threads, so the commands run in
# a child process with one BLAS thread.
PARITY_10 = ",".join(str(v) for v in range(1024) if bin(v).count("1") % 2 == 0)
PARITY_6 = ",".join(str(v) for v in range(64) if bin(v).count("1") % 2 == 0)
PARITY_12 = ",".join(str(v) for v in range(4096) if bin(v).count("1") % 2 == 0)
# The H(8,2) parity side A with vertex 0 swapped for vertex 1: no translation
# maps it onto itself, so it takes the dense engine and oracle, and its 128
# modes are all distinct.
SWAPPED_8 = ",".join(
    ["1"] + [str(v) for v in range(1, 256) if bin(v).count("1") % 2 == 0]
)
FULL_ENTROPY_DIGESTS = {
    ("hypercube:10", PARITY_10, "0.5", "text"):
        "01f0868c9f595c5ee1bf3dcc09add3e2714c1b89443b973c72b778545aff5e63",
    ("hypercube:10", PARITY_10, "0.5", "json"):
        "bc18f878d32adcb98bfaa87055c1fcaaf20f4d8d69841654ce0bf7ef6a787307",
    ("hypercube:6", PARITY_6, "1e8", "text"):
        "f1ec440838c8c3d193f1fa5ab4654973dbafd794cf0e89ddb06a4fd9a7cb9d3d",
    ("hypercube:6", PARITY_6, "1e8", "json"):
        "0c1c7143e59388acce6380817368c0fd43230abbcf327401ca91c6a605d02632",
    ("file:chorded.txt", "1,4", "0.5", "text"):
        "015227370e4ec161f92bf1086cc223a4310cd73d459ecf932fad1856653b3fb3",
    ("file:chorded.txt", "1,4", "0.5", "json"):
        "6605a4036a884285fbe664ab996f9defcf396e78e5352c9d063b1939a0503c29",
    # 2048 modes in runs of equal values
    ("hypercube:12", PARITY_12, "0.5", "text"):
        "aa74a370b42faa3a3e376e87eeac695500fb3780b77bb9075ec6fdb9987b7f91",
    ("hypercube:12", PARITY_12, "0.5", "json"):
        "1c64e920e6a8859bd197282aa3d9b59173b998a60249ff116860c123d53c3e02",
    ("hypercube:8", SWAPPED_8, "0.5", "text"):
        "cba4a451d9b3a383c79a1ab34785b441d984e4dec6e8a46606044713f0aee147",
    ("hypercube:8", SWAPPED_8, "0.5", "json"):
        "0a0c2744f5e2dec0735b693cde551d186d7d374e917f30ee2ea79a816d9bfc12",
}


def _child_digests(argvs, cwd, blas_threads):
    """The sha256 of each argv's stdout from oscnet.cli.main, all run in one
    child process whose BLAS thread count is set before numpy loads."""
    script = (
        "import contextlib, hashlib, io, json, sys\n"
        "from oscnet.cli import main\n"
        "for argv in json.load(sys.stdin):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert main(argv) == 0\n"
        "    print(hashlib.sha256(out.getvalue().encode()).hexdigest())\n"
    )
    src = os.path.dirname(os.path.dirname(oscnet.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(blas_threads)
    done = subprocess.run(
        [sys.executable, "-c", script], input=json.dumps(argvs), cwd=cwd,
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_entropy_output_bytes_are_pinned_at_full_precision(tmp_path):
    (tmp_path / "chorded.txt").write_text(CHORDED_CYCLE)
    argvs = [
        ["entropy", "--graph", graph, "--subset", subset, "--g", g, "--format", fmt]
        for graph, subset, g, fmt in FULL_ENTROPY_DIGESTS
    ]
    assert _child_digests(argvs, tmp_path, 1) == list(FULL_ENTROPY_DIGESTS.values())


def test_sector_route_output_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # The H(10,2) parity cut takes the sector routes, whose blocks are at
    # most 2 x 2: far below the orders from which this OpenBLAS rounds a
    # factorization differently on more threads.
    argvs = [
        ["entropy", "--graph", "hypercube:10", "--subset", PARITY_10, "--format", fmt]
        for fmt in ("text", "json")
    ]
    assert _child_digests(argvs, tmp_path, 1) == _child_digests(argvs, tmp_path, 2)


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

    # the parity cut lists one row per positive adjacency eigenvalue, with
    # gamma exact: 0.75 and 0.25 at d = 3, 515 rows at d = 1029
    argv = ["analytic", "--scheme", "parity", "--d", "3", "--format", "json"]
    assert main(argv) == 0
    modes = json.loads(capsys.readouterr().out)["modes"]
    assert [(m["gamma"], m["degeneracy"]) for m in modes] == [(0.75, 1), (0.25, 3)]
    assert main(["analytic", "--scheme", "parity", "--d", "1029", "--g", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[5] == "gamma nu degeneracy entropy"
    assert len(lines[6:-1]) == 515

    # a non-finite coupling is bad usage, not a nan or zero entropy
    for g in ("nan", "inf", "1e308"):
        for scheme in ("parity", "identity-cut", "half-strata"):
            assert main(["analytic", "--scheme", scheme, "--d", "3", "--g", g]) == 2
            assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        # past the overflow of Q_n, half-strata is refused only by the cap
        pytest.param(
            ["--scheme", "half-strata", "--d", "1031", "--g", "0.5"], "d <= 1029",
            id="half-strata-1031-0.5",
        ),
        pytest.param(
            ["--scheme", "half-strata", "--d", "1031", "--g", "1e-8"], "d <= 1029",
            id="half-strata-1031-1e-8",
        ),
        (["--scheme", "parity", "--d", "1100"], "d <= 1029"),
    ],
)
def test_analytic_overflow_exits_2(capsys, argv, message):
    # these printed nan modes and entropies, or ended in an OverflowError
    assert main(["analytic"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("d, g", [("269", "0.5"), ("81", "1e-8")])
def test_analytic_half_strata_past_the_overflow_of_q_n(capsys, d, g):
    # the closed form used to refuse these: Q_n overflows a float, their
    # ratio does not
    argv = ["analytic", "--scheme", "half-strata", "--d", d, "--g", g]
    assert main(argv) == 0
    total = capsys.readouterr().out.splitlines()[-1]
    assert total.startswith("total entropy = ")
    assert math.isfinite(float(total.split(" = ")[1]))


def test_analytic_just_below_overflow_keeps_its_output(capsys):
    assert main(["analytic", "--scheme", "half-strata", "--d", "265", "--g", "0.5"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("total entropy = 1.63315630057e+76\n")
    # the bytes printed before non-finite mode parameters were refused
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "6f08becf250c8a3ec38a256866f23d8f81490b6d1f664ceab97734c1d2e64a92"


def test_verify_command_exit_codes(monkeypatch, capsys):
    assert main(["verify", "--scheme", "parity", "--d", "3", "--g", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "VERIFY OK" in out

    assert main(["verify", "--scheme", "half-strata", "--d", "5", "--g", "0.1"]) == 0
    capsys.readouterr()

    # strong coupling, where X's eigenvalues of order 1/g must be resolved
    for g in ("1e4", "1e5"):
        assert main(["verify", "--scheme", "half-strata", "--d", "9", "--g", g]) == 0
        assert "VERIFY OK" in capsys.readouterr().out

    # at g = 1e8 the oracle's root table resolves the parity and identity
    # closed forms
    for scheme, d in (("parity", "6"), ("identity-cut", "3")):
        assert main(["verify", "--scheme", scheme, "--d", d, "--g", "1e8"]) == 0
        assert "VERIFY OK" in capsys.readouterr().out

    # the half-strata closed form itself is ~1.4e-7 off at g = 1e8
    # (ROADMAP item 11), so verify reports it
    assert main(["verify", "--scheme", "half-strata", "--d", "7", "--g", "1e8"]) == 1
    assert "VERIFY FAIL" in capsys.readouterr().out

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

    # a closed form 1e-8 off is caught at the default tolerance
    closed_form = oscnet.analytic.analytic_entropy
    monkeypatch.setattr(
        oscnet.analytic, "analytic_entropy", lambda *args: closed_form(*args) + 1e-8
    )
    assert main(["verify", "--scheme", "parity", "--d", "4"]) == 1
    assert "VERIFY FAIL" in capsys.readouterr().out


def test_verify_refuses_a_large_d_before_the_closed_form(monkeypatch, capsys):
    def closed_form(*args):
        raise AssertionError("closed form evaluated")

    monkeypatch.setattr(oscnet.analytic, "analytic_entropy", closed_form)
    assert main(["verify", "--scheme", "parity", "--d", "1000"]) == 2
    assert "hypercube dimension" in capsys.readouterr().err


def test_verify_past_the_largest_graph(capsys):
    # d = 13..62 checks the parity and coordinate closed forms against the
    # oracle's quotient route; no Graph or V is built.  At the default
    # g = 0.5 the totals' rounding stays within the default absolute
    # tolerance up to d = 22.
    for scheme in ("parity", "identity-cut"):
        for d in ("13", "20"):
            assert main(["verify", "--scheme", scheme, "--d", d]) == 0
            assert "VERIFY OK" in capsys.readouterr().out
    # half-strata is no coset cut: its refusal is unchanged, and d = 63
    # passes the int64 labels of the quotient route.
    assert main(["verify", "--scheme", "half-strata", "--d", "13"]) == 2
    assert "hypercube dimension must be an integer in 1..12" in capsys.readouterr().err
    assert main(["verify", "--scheme", "parity", "--d", "63"]) == 2
    assert "hypercube dimension must be an integer in 1..62" in capsys.readouterr().err


def test_spectrum_command(monkeypatch, capsys):
    rc = main(["spectrum", "--d", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "block dimension degeneracy" in out
    assert "0 4 1" in out
    # the tables are closed forms; no dense cross-check is computed
    assert "basis check" not in out

    rc = main(["spectrum", "--d", "4", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["blocks"] == [
        {"dimension": 5, "degeneracy": 1},
        {"dimension": 3, "degeneracy": 3},
        {"dimension": 1, "degeneracy": 2},
    ]
    assert "basisCheckMaxDelta" not in doc

    # spectrum reports no entropy, so it has no --log-base to ignore
    with pytest.raises(SystemExit) as err:
        main(["spectrum", "--d", "3", "--log-base", "e"])
    assert err.value.code == 2

    # The ladder tables stop where the closed forms do: d = 1029 is listed
    # in full, d = 1030 is refused before any binomial is computed.
    assert main(["spectrum", "--d", "1029"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "-1029 1"
    assert len(lines) == 2 + 1 + 515 + 1 + 1030

    def comb(*args):
        raise AssertionError("binomial computed")

    monkeypatch.setattr(oscnet.stratify, "math", types.SimpleNamespace(comb=comb))
    assert main(["spectrum", "--d", "1030"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "1..1029" in captured.err


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


def test_sampled_census_never_imports_numpy_random():
    src = os.path.dirname(os.path.dirname(oscnet.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    script = (
        "import io, sys, contextlib\n"
        "from oscnet.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(['census', '--graph', 'hypercube:4', '--sample', '50',"
        " '--threads', '2'])\n"
        "print(rc, 'numpy.random' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 False\n"

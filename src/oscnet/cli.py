"""Command-line interface.

Subcommands:

entropy   entropy of one bipartition (engine and reference oracle).
census    exhaustive census over all equal bipartitions.
analytic  closed-form spectrum for a named hypercube scheme.
verify    closed form against the oracle's default route; exit 1 on mismatch.
          Past the largest Graph, d = 13..62, the parity and coordinate cuts
          are checked against the oracle's quotient route, with no V built;
          at the default g = 0.5 the totals' rounding stays within the
          default absolute tolerance 1e-9 up to d = 22.
spectrum  closed-form ladder-block table and adjacency spectrum of a hypercube.

Exit codes: 0 success, 1 verification failure, 2 bad usage or invalid input.
Text and CSV output and the census JSON's entropies use 12 significant
digits; the JSON of entropy, analytic and spectrum carries full float
precision.  Orchestration here is single-threaded; only the census spreads
work across processes.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

from . import analytic, census, gaussian, stratify
from .errors import OscnetError
from .graph import (
    MAX_HYPERCUBE_DIM,
    Bipartition,
    cut_name,
    graph_from_uri,
    hypercube_graph,
    named_bipartition,
    potential_matrix,
)

_FMT = "%.12g"
# Lines per write of a report: 256 sampled H(6,2) census rows are ~25 kB.
_CHUNK_LINES = 256
# Spellings of the named cuts that --scheme accepts; graph.cut_name resolves
# them like every other spelling.
_CUT_CHOICES = ("half-strata", "identity-cut", "parity")


def _fmt(x: float) -> str:
    return _FMT % x


def _write_lines(handle, lines):
    """Write each line and a line end, _CHUNK_LINES lines per write."""
    lines = iter(lines)
    while chunk := list(itertools.islice(lines, _CHUNK_LINES)):
        handle.write("\n".join(chunk) + "\n")


def _emit(args, config, text, doc=None, csv=None):
    """Write one report to --output or to stdout, in the requested --format.

    config lists the (key, value) pairs echoed in the text header and under
    "config" in JSON.  text and csv are zero-argument callables returning
    the text body's and the CSV document's lines, without line ends; doc
    one returning the JSON fields after "config".  Only the requested one
    is called, and lines are written in chunks as they come, so no copy of
    a whole text or CSV report is held.
    """
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        lines = [json.dumps({"config": dict(config), **doc()}, indent=2)]
    elif fmt == "csv":
        lines = csv()
    else:
        header = ["# oscnet %s" % args.command]
        header += ["# %s = %s" % pair for pair in config]
        lines = itertools.chain(header, text())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            _write_lines(handle, lines)
    else:
        _write_stdout(lines)


def _write_stdout(lines):
    """Write lines to stdout and flush them; a reader that has gone is no
    error."""
    try:
        _write_lines(sys.stdout, lines)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone, as under "| head": the rest of the report is
        # dropped without an error, and stdout points at devnull so that
        # the interpreter's last flush of what is still buffered succeeds.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit_modes(args, config, spectrum, entropies, totals):
    """Report a mode table "gamma nu degeneracy entropy" and named totals.

    entropies is spectrum.entropies(args.log_base), and totals lists (text
    label, JSON key, value) triples.  Each run of equal modes is formatted
    once, and its text line or JSON entry repeated.
    """
    runs, at = [], 0
    for mode, copies in spectrum._runs:
        runs.append((mode, entropies[at], copies))
        at += copies

    def text():
        lines = ["gamma nu degeneracy entropy"]
        for m, s, count in runs:
            line = "%s %s %d %s" % (_fmt(m.gamma), _fmt(m.nu), m.degeneracy, _fmt(s))
            lines += [line] * count
        return lines + ["%s = %s" % (label, _fmt(value)) for label, _, value in totals]

    def doc():
        modes = []
        for m, s, count in runs:
            modes += [
                {"gamma": m.gamma, "nu": m.nu, "degeneracy": m.degeneracy, "entropy": s}
            ] * count
        return {"modes": modes, **{key: value for _, key, value in totals}}

    _emit(args, config, text, doc)


def _parse_subset(raw: str):
    try:
        return list(map(int, filter(str.strip, raw.split(","))))
    except ValueError:
        raise ValueError("subset must be comma-separated integers, got %r" % raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscnet",
        description="Entanglement entropy of Gaussian ground states on "
        "oscillator networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--log-base", choices=("2", "e"), default="2", help="entropy log base"
    )
    common.add_argument("--output", default=None, help="write result to this file")

    p = sub.add_parser(
        "entropy",
        parents=[common],
        help="entropy of one bipartition, engine and oracle",
    )
    p.add_argument("--graph", required=True, help="hypercube:<d> or file:<path>")
    p.add_argument("--g", type=float, default=0.5, help="coupling strength (default 0.5)")
    p.add_argument(
        "--subset", required=True, help="comma-separated side-A vertex indices"
    )
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser(
        "census", parents=[common], help="entropy census over equal bipartitions"
    )
    p.add_argument("--graph", required=True, help="hypercube:<d> or file:<path>")
    p.add_argument("--g", type=float, default=0.5, help="coupling strength (default 0.5)")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument(
        "--sample", type=int, default=None, help="random sample size instead of full enumeration"
    )
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser(
        "analytic", parents=[common], help="closed-form spectrum of a named scheme"
    )
    p.add_argument("--scheme", choices=_CUT_CHOICES, required=True)
    p.add_argument("--d", type=int, required=True, help="hypercube dimension")
    p.add_argument("--g", type=float, default=0.5, help="coupling strength (default 0.5)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser(
        "verify",
        parents=[common],
        help="closed form against the symplectic oracle; exit 1 on mismatch",
    )
    p.add_argument("--scheme", choices=_CUT_CHOICES, required=True)
    p.add_argument("--d", type=int, required=True, help="hypercube dimension")
    p.add_argument("--g", type=float, default=0.5, help="coupling strength (default 0.5)")
    p.add_argument("--tolerance", type=float, default=1e-9)

    # spectrum reports no entropy, so it takes --output but not --log-base.
    p = sub.add_parser(
        "spectrum", help="ladder blocks and adjacency spectrum of hypercube:<d>"
    )
    p.add_argument("--output", default=None, help="write result to this file")
    p.add_argument("--d", type=int, required=True, help="hypercube dimension")
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first main call of a process and
    kept: parse_args reads it without changing it."""
    return build_parser()


def _cmd_entropy(args) -> int:
    graph = graph_from_uri(args.graph)
    subset = _parse_subset(args.subset)
    v = potential_matrix(graph, args.g)
    cut = Bipartition.from_side_a(graph.n, subset)
    spectrum = gaussian.gamma_spectrum(v, cut)
    # One pass over the modes gives the table and the engine's total.
    entropies = spectrum.entropies(args.log_base)
    engine = spectrum._total(entropies)
    # The cut, not its labels: side A is checked once per op.
    oracle = gaussian.entropy_oracle_symplectic(v, cut, log_base=args.log_base)
    config = [
        ("graph", args.graph),
        ("n", graph.n),
        ("g", _fmt(args.g)),
        ("subset", ",".join(map(str, cut.side_a))),
        ("log-base", args.log_base),
    ]
    totals = [
        ("engine entropy", "engineEntropy", engine),
        ("oracle entropy", "oracleEntropy", oracle),
        ("difference", "difference", engine - oracle),
    ]
    _emit_modes(args, config, spectrum, entropies, totals)
    return 0


def _census_lines(report):
    """Yield the census text body's lines, one class row at a time."""
    yield "%d classes / %d partitions" % (
        report.entropies.size,
        report.total_partitions,
    )
    yield "class entropy multiplicity representatives"
    reps = report.joined_representatives(",")
    for i, (entropy, size, count) in enumerate(report._columns()):
        row = next(reps) + ("|..." if size > count else "")
        yield "%d %s %d %s" % (i, _fmt(entropy), size, row)
    for label, index in (("min", report.min_class), ("max", report.max_class)):
        yield "%s class = %d (entropy %s, multiplicity %d)" % (
            label,
            index,
            _fmt(report.entropies[index]),
            report.multiplicities[index],
        )
    for warning in report.warnings:
        yield "warning: %s" % warning


def _cmd_census(args) -> int:
    graph = graph_from_uri(args.graph)
    report = census.entropy_census(
        graph,
        args.g,
        tolerance=args.tolerance,
        log_base=args.log_base,
        threads=args.threads,
        sample=args.sample,
        seed=args.seed,
    )
    config = [
        ("graph", args.graph),
        ("n", report.n),
        ("g", _fmt(report.g)),
        ("log-base", report.log_base),
        ("tolerance", _fmt(report.tolerance)),
        ("threads", args.threads),
        ("sample", args.sample if args.sample is not None else "full"),
        ("seed", args.seed),
    ]
    _emit(
        args, config, lambda: _census_lines(report), report.to_dict, report.csv_lines
    )
    if args.output:
        _write_stdout(
            [
                "%d classes / %d partitions (min %s, max %s) -> %s"
                % (
                    len(report.entropies),
                    report.total_partitions,
                    _fmt(report.entropies[report.min_class]),
                    _fmt(report.entropies[report.max_class]),
                    args.output,
                )
            ]
        )
    return 0


def _cmd_analytic(args) -> int:
    closed_form = analytic.CLOSED_FORMS[cut_name(args.scheme)]
    spectrum = closed_form(args.d, args.g)
    config = [
        ("scheme", args.scheme),
        ("d", args.d),
        ("g", _fmt(args.g)),
        ("log-base", args.log_base),
    ]
    entropies = spectrum.entropies(args.log_base)
    totals = [("total entropy", "totalEntropy", spectrum._total(entropies))]
    _emit_modes(args, config, spectrum, entropies, totals)
    return 0


def _cmd_verify(args) -> int:
    if not (args.tolerance > 0.0 and math.isfinite(args.tolerance)):
        raise ValueError("tolerance must be positive and finite")
    scheme = cut_name(args.scheme)
    if args.d > MAX_HYPERCUBE_DIM and scheme != "half_strata":
        # Past the largest Graph a hyperplane cut is named by its normal,
        # all ones or e_0; the oracle refuses a d too large for it before
        # the closed form spends its time.
        normal = [1] * args.d if scheme == "parity_cut" else [1] + [0] * (args.d - 1)
        oracle = gaussian.coset_cut_oracle(args.d, [normal], [0], args.g, args.log_base)
        closed = analytic.analytic_entropy(scheme, args.d, args.g, args.log_base)
    else:
        # Building the graph refuses a d too large for the oracle before
        # the closed form spends its time.
        graph = hypercube_graph(args.d)
        closed = analytic.analytic_entropy(scheme, args.d, args.g, args.log_base)
        cut = named_bipartition(args.d, scheme)
        v = potential_matrix(graph, args.g)
        oracle = gaussian.entropy_oracle_symplectic(v, cut, args.log_base)
    diff = abs(closed - oracle)
    ok = diff <= args.tolerance
    config = [
        ("scheme", args.scheme),
        ("d", args.d),
        ("g", _fmt(args.g)),
        ("log-base", args.log_base),
        ("tolerance", _fmt(args.tolerance)),
    ]
    lines = [
        "closed form = %s" % _fmt(closed),
        "oracle      = %s" % _fmt(oracle),
        "difference  = %s" % _fmt(diff),
        "VERIFY %s" % ("OK" if ok else "FAIL"),
    ]
    _emit(args, config, lambda: lines)
    return 0 if ok else 1


def _cmd_spectrum(args) -> int:
    d = args.d
    table = stratify.block_table(d)
    spec = stratify.hypercube_spectrum(d)

    def text():
        lines = ["block dimension degeneracy"]
        lines += ["%d %d %d" % (i, dim, deg) for i, (dim, deg) in enumerate(table)]
        lines.append("eigenvalue multiplicity")
        lines += ["%d %d" % pair for pair in spec]
        return lines

    def doc():
        return {
            "blocks": [{"dimension": dim, "degeneracy": deg} for dim, deg in table],
            "spectrum": [
                {"eigenvalue": val, "multiplicity": mult} for val, mult in spec
            ],
        }

    _emit(args, [("d", d)], text, doc)
    return 0


_DISPATCH = {
    "entropy": _cmd_entropy,
    "census": _cmd_census,
    "analytic": _cmd_analytic,
    "verify": _cmd_verify,
    "spectrum": _cmd_spectrum,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (OscnetError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

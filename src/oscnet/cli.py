"""Command-line interface.

Subcommands:

entropy   entropy of one bipartition (engine and reference oracle).
census    exhaustive census over all equal bipartitions.
analytic  closed-form spectrum for a named hypercube scheme.
verify    closed form against the oracle; exit 1 on disagreement.
spectrum  ladder-block table and adjacency spectrum of a hypercube.

Exit codes: 0 success, 1 verification failure, 2 bad usage or invalid input.
All floating-point output uses 12 significant digits.  Orchestration here is
single-threaded; only the census spreads work across processes.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analytic, census, gaussian, stratify
from .errors import OscnetError
from .graph import (
    Bipartition,
    cut_name,
    graph_from_uri,
    hypercube_graph,
    named_bipartition,
    potential_matrix,
)

_FMT = "%.12g"
# Spellings of the named cuts that --scheme accepts; graph.cut_name resolves
# them like every other spelling.
_CUT_CHOICES = ("half-strata", "identity-cut", "parity")


def _fmt(x: float) -> str:
    return _FMT % x


def _emit(args, config, text, doc=None, csv=None):
    """Write one report to --output or to stdout, in the requested --format.

    config lists the (key, value) pairs echoed in the text header and under
    "config" in JSON.  text, doc and csv are zero-argument callables building
    the text body lines, the JSON fields after "config" and the CSV document;
    only the requested one is called.
    """
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        out = json.dumps({"config": dict(config), **doc()}, indent=2) + "\n"
    elif fmt == "csv":
        out = csv()
    else:
        lines = ["# oscnet %s" % args.command]
        lines += ["# %s = %s" % pair for pair in config]
        out = "\n".join(lines + text()) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(out)
    else:
        sys.stdout.write(out)


def _emit_modes(args, config, spectrum, totals):
    """Report a mode table "gamma nu degeneracy entropy" and named totals.

    totals lists (text label, JSON key, value) triples.
    """
    base = spectrum.log_base
    rows = [
        (m.gamma, m.nu, m.degeneracy, gaussian.entropy_from_nu(m.nu, base))
        for m in spectrum.modes
    ]

    def text():
        lines = ["gamma nu degeneracy entropy"]
        for g, nu, deg, s in rows:
            lines.append("%s %s %d %s" % (_fmt(g), _fmt(nu), deg, _fmt(s)))
        return lines + ["%s = %s" % (label, _fmt(value)) for label, _, value in totals]

    def doc():
        modes = [
            {"gamma": g, "nu": nu, "degeneracy": deg, "entropy": s}
            for g, nu, deg, s in rows
        ]
        return {"modes": modes, **{key: value for _, key, value in totals}}

    _emit(args, config, text, doc)


def _parse_subset(raw: str):
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip() != ""]
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

    p = sub.add_parser(
        "spectrum",
        parents=[common],
        help="ladder blocks and adjacency spectrum of hypercube:<d>",
    )
    p.add_argument("--d", type=int, required=True, help="hypercube dimension")
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _cmd_entropy(args) -> int:
    graph = graph_from_uri(args.graph)
    subset = _parse_subset(args.subset)
    v = potential_matrix(graph, args.g)
    cut = Bipartition.from_side_a(graph.n, subset)
    spectrum = gaussian.gamma_spectrum(v, cut, log_base=args.log_base)
    engine = spectrum.total_entropy()
    oracle = gaussian.entropy_oracle_symplectic(
        v, cut.side_a, log_base=args.log_base
    )
    config = [
        ("graph", args.graph),
        ("n", graph.n),
        ("g", _fmt(args.g)),
        ("subset", ",".join(str(i) for i in cut.side_a)),
        ("log-base", args.log_base),
    ]
    totals = [
        ("engine entropy", "engineEntropy", engine),
        ("oracle entropy", "oracleEntropy", oracle),
        ("difference", "difference", engine - oracle),
    ]
    _emit_modes(args, config, spectrum, totals)
    return 0


def _census_lines(report) -> list:
    lines = [
        "%d classes / %d partitions" % (len(report.classes), report.total_partitions),
        "class entropy multiplicity representatives",
    ]
    for i, c in enumerate(report.classes):
        reps = "|".join(",".join(str(v) for v in r) for r in c.representatives)
        if c.capped:
            reps += "|..."
        lines.append("%d %s %d %s" % (i, _fmt(c.entropy), c.multiplicity, reps))
    for label, index in (("min", report.min_class), ("max", report.max_class)):
        c = report.classes[index]
        lines.append(
            "%s class = %d (entropy %s, multiplicity %d)"
            % (label, index, _fmt(c.entropy), c.multiplicity)
        )
    return lines + ["warning: %s" % w for w in report.warnings]


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
    _emit(args, config, lambda: _census_lines(report), report.to_dict, report.to_csv)
    if args.output:
        print(
            "%d classes / %d partitions (min %s, max %s) -> %s"
            % (
                len(report.classes),
                report.total_partitions,
                _fmt(report.classes[report.min_class].entropy),
                _fmt(report.classes[report.max_class].entropy),
                args.output,
            )
        )
    return 0


def _cmd_analytic(args) -> int:
    closed_form = analytic.CLOSED_FORMS[cut_name(args.scheme)]
    spectrum = closed_form(args.d, args.g, args.log_base)
    config = [
        ("scheme", args.scheme),
        ("d", args.d),
        ("g", _fmt(args.g)),
        ("log-base", args.log_base),
    ]
    totals = [("total entropy", "totalEntropy", spectrum.total_entropy())]
    _emit_modes(args, config, spectrum, totals)
    return 0


def _cmd_verify(args) -> int:
    if not 0.0 < args.tolerance < np.inf:
        raise ValueError("tolerance must be positive and finite")
    closed = analytic.analytic_entropy(args.scheme, args.d, args.g, args.log_base)
    graph = hypercube_graph(args.d)
    cut = named_bipartition(args.d, args.scheme)
    v = potential_matrix(graph, args.g)
    oracle = gaussian.entropy_oracle_symplectic(v, cut.side_a, args.log_base)
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
    check = None
    if d <= 10:
        dense = np.linalg.eigvalsh(hypercube_graph(d).adjacency_matrix())
        strat = np.linalg.eigvalsh(stratify.stratified_adjacency(d))
        check = float(np.abs(np.sort(dense) - np.sort(strat)).max())

    def text():
        lines = ["block dimension degeneracy"]
        lines += ["%d %d %d" % (i, dim, deg) for i, (dim, deg) in enumerate(table)]
        lines.append("eigenvalue multiplicity")
        lines += ["%d %d" % pair for pair in spec]
        if check is not None:
            lines.append("basis check: max |delta| = %s" % _fmt(check))
        return lines

    def doc():
        out = {
            "blocks": [{"dimension": dim, "degeneracy": deg} for dim, deg in table],
            "spectrum": [
                {"eigenvalue": val, "multiplicity": mult} for val, mult in spec
            ],
        }
        if check is not None:
            out["basisCheckMaxDelta"] = check
        return out

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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (OscnetError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

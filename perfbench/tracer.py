"""Call tracing from outside the library, for the traced benchmark run.

The tracer swaps wrappers into module namespaces; it never edits library
code.  It wraps

* every public function of every loaded ``oscnet`` module,
* every function that one ``oscnet`` module imports from another (for
  example ``census`` importing ``gaussian._entropy_from_cov``), in the
  importing module and in the defining one, so calls inside the defining
  module are seen too,
* ``numpy.linalg.{eigh, eigvalsh, svd, cholesky, solve}``.

Each wrapped call is one span named ``<module>.<function>`` (``linalg.<name>``
for numpy).  Spans nest through a stack; a span's self time is its duration
minus the durations of the spans it directly contains.  Spans are folded
into per-name totals as they close, so memory stays flat over millions of
calls.  Only the process that installs the tracer is traced: pool workers
keep their own, never-read totals.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from math import prod

LINALG = ("eigh", "eigvalsh", "svd", "cholesky", "solve")

# Spans folded into each per-layer time: the sum of their self times.  A
# span listed in no layer, such as gaussian._norm_log_base, counts in none.
LAYER_SPANS = {
    "graph.build_s": (
        "graph.graph_from_uri",
        "graph.hypercube_graph",
        "graph.graph_from_edge_list",
    ),
    "graph.potential_s": ("graph.potential_matrix",),
    "gaussian.engine_s": (
        "gaussian.gamma_spectrum",
        "gaussian.entropy_of_bipartition",
        "gaussian.nu_from_gamma",
    ),
    "gaussian.oracle_s": ("gaussian.entropy_oracle_symplectic",),
    "gaussian.covariance_s": ("gaussian._position_covariance",),
    "gaussian.kernel_s": ("gaussian._entropy_from_cov",),
    "gaussian.entropy_sum_s": ("gaussian.entropy_from_nu",),
}
# Every span of these modules is folded into the module's self time; the
# named entry point must exist.
MODULE_LAYERS = {
    "cli.self_s": ("cli", "cli.main"),
    "census.self_s": ("census", "census.entropy_census"),
}
COUNTED_SPANS = {
    "gaussian.kernel.calls": "gaussian._entropy_from_cov",
    "gaussian.entropy_sum.calls": "gaussian.entropy_from_nu",
}
for _name in LINALG:
    LAYER_SPANS["linalg.%s_s" % _name] = ("linalg.%s" % _name,)
    COUNTED_SPANS["linalg.%s.calls" % _name] = "linalg.%s" % _name


def _batch_shape(a):
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return 1, 0, 0
    return prod(shape[:-2]), shape[-2], shape[-1]


def linalg_flops(name, args, kwargs):
    """Flop estimate of one numpy.linalg call, computed from its shapes.

    Leading-order counts from Golub and Van Loan, Matrix Computations,
    table 8.6.1 and section 4.2; they are estimates, not hardware counters.
    """
    batch, m, n = _batch_shape(args[0])
    if name == "eigh":
        per = 9.0 * n**3
    elif name == "eigvalsh":
        per = 4.0 / 3.0 * n**3
    elif name == "cholesky":
        per = n**3 / 3.0
    elif name == "solve":
        b = args[1] if len(args) > 1 else kwargs.get("b")
        shape = getattr(b, "shape", (n,))
        rhs = 1 if len(shape) == 1 else shape[-1]
        per = 2.0 / 3.0 * n**3 + 2.0 * n * n * rhs
    else:
        k, big = min(m, n), max(m, n)
        compute_uv = args[2] if len(args) > 2 else kwargs.get("compute_uv", True)
        if compute_uv:
            per = 4.0 * big * big * k + 22.0 * k**3
        else:
            per = 4.0 * big * k * k - 4.0 / 3.0 * k**3
    return batch * per


class Tracer:
    """Span totals for one process; use as a context manager to install."""

    def __init__(self):
        self.totals = {}
        self.flops = 0.0
        self.absent = []
        self._stack = []
        self._undo = []

    def reset(self):
        self.totals.clear()
        self.flops = 0.0

    def _wrap(self, name, fn, flops=None):
        totals = self.totals
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if flops is not None:
                self.flops += flops(args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                entry = totals.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed - child

        return span

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        import numpy.linalg

        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == "oscnet" or key.startswith("oscnet."))
        ]
        targets = {}
        for module in modules:
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or not obj.__module__.startswith("oscnet"):
                    continue
                imported = obj.__module__ != module.__name__
                if imported or not attr.startswith("_"):
                    short = obj.__module__.rpartition(".")[2]
                    targets[obj] = "%s.%s" % (short, obj.__name__)
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(module, attr, wrappers[obj])
        wanted = {s for spans in LAYER_SPANS.values() for s in spans}
        wanted.update(entry for _, entry in MODULE_LAYERS.values())
        seen = set(targets.values())
        self.absent = sorted(
            s for s in wanted if not s.startswith("linalg.") and s not in seen
        )
        for name in LINALG:
            fn = getattr(numpy.linalg, name)
            flops = functools.partial(linalg_flops, name)
            self._set(numpy.linalg, name, self._wrap("linalg." + name, fn, flops))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False

    def layer_metrics(self):
        """Per-layer self times, call counts and flops from the current totals."""
        out = {}
        for metric, spans in LAYER_SPANS.items():
            out[metric] = sum(self.totals.get(s, (0, 0.0))[1] for s in spans)
        for metric, (short, _) in MODULE_LAYERS.items():
            out[metric] = sum(
                t for name, (_, t) in self.totals.items()
                if name.startswith(short + ".")
            )
        for metric, span in COUNTED_SPANS.items():
            out[metric] = self.totals.get(span, (0, 0.0))[0]
        out["linalg.flops_computed"] = self.flops
        return out

"""Per-layer tracing from outside the program.

`Tracer.install` replaces each function listed in TRACED by a wrapper at
every module binding that names it (``smith_normal_form`` is bound in both
``algebra`` and ``reduction``, ``run_pipeline`` in ``pipeline`` and
``cli``), and `uninstall` puts the originals back.  A wrapper records a span
(name, start, end, parent span, operation id) in memory plus counters that
are derived only from the call's arguments and return value, so no file
under ``src/`` has to change.  A listed function that the package no longer
defines is reported as absent.

Hot helpers such as ``CubeClass.__mul__`` or ``restrict_class`` are left
unwrapped: they run millions of times and the wrapper would dominate them.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

TRACED = {
    "cli": ("main", "parse_document", "cmd_check", "cmd_count", "cmd_ring", "cmd_solve",
            "cmd_reduce", "cmd_search"),
    "fixed_points": ("validate", "counts", "split_by_moment_sign"),
    "localization": ("integrate", "consistency_check", "search_candidates",
                     "verify_moment_equations", "predict_counts", "gamma_restrictions"),
    "cube": ("injectivity_rank_check", "equivariant_chern_series", "hypercube_data"),
    "pipeline": ("run_pipeline", "assemble_bijection", "solve_value_multiset", "per_point_count"),
    "reduction": ("kernel_generators", "presentation_from_data", "relation_rows",
                  "graded_quotient", "hermite_rows", "reduced_chern_series",
                  "betti_by_counting", "poincare_check"),
    "algebra": ("smith_normal_form", "rational_rank", "vandermonde_kernel", "solve_exact"),
}


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _snf(args, kwargs, ret):
    m = _arg(args, kwargs, 0, "m")
    return {"rows": m.rows, "cols": m.cols, "rank": ret[1]}


def _search(args, kwargs, ret):
    n, points, bound = (_arg(args, kwargs, i, k) for i, k in
                        enumerate(("n", "num_points", "weight_bound")))
    shapes = math.comb(2 * bound + n - 1, n)
    return {"configs": math.comb(shapes + points - 1, points), "survivors": len(ret)}


# Counters per function, from (args, kwargs, return value) only.
COUNTERS = {
    "algebra.smith_normal_form": _snf,
    "reduction.relation_rows": lambda a, k, ret: {"rows": len(ret)},
    "localization.search_candidates": _search,
    "localization.consistency_check": lambda a, k, ret: {"monomials": len(ret.entries)},
    "algebra.rational_rank": lambda a, k, ret: {
        "entries": sum(len(row) for row in _arg(a, k, 0, "rows"))},
}

# The timed stats; every other stat is a count that must repeat exactly
# between passes and runs.
TIMES = ("self_s", "total_s")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top of an operation
    op: int
    counters: dict | None


class Tracer:
    def __init__(self, sf):
        self.sf = sf
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.op = -1
        self._installed: list[tuple[object, str, object]] = []
        self.absent = [
            f"{layer}.{f}" for layer, funcs in TRACED.items() for f in funcs
            if not callable(getattr(getattr(sf, layer), f, None))
        ]

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "semifree" or name.startswith("semifree.")]
        for layer, funcs in TRACED.items():
            home = getattr(self.sf, layer)
            for f in funcs:
                original = getattr(home, f, None)
                if not callable(original):
                    continue
                name = f"{layer}.{f}"
                wrapper = self._wrap(name, original, COUNTERS.get(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._installed.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._installed):
            setattr(m, attr, original)
        self._installed.clear()

    def take_spans(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                ret = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = Span(name, t0, t1, parent, tracer.op, None)
            if counter is not None:
                try:
                    spans[sid] = spans[sid]._replace(counters=counter(args, kwargs, ret))
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # signature changed: report the call without counters
            return ret

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """A span's duration minus the time its child spans cover; spans run on
    one thread, so children never overlap."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_stats(spans: list[Span]) -> dict[str, dict[str, float]]:
    """calls, total_s, self_s and summed counters per function."""
    stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(int))
    for s, own in zip(spans, self_times(spans)):
        st = stats[s.name]
        st["calls"] += 1
        st["total_s"] += s.end - s.start
        st["self_s"] += own
        for k, v in (s.counters or {}).items():
            st[k] += v
    snf = stats.get("algebra.smith_normal_form")
    if snf and snf["rows"]:
        snf["rank_frac"] = snf["rank"] / snf["rows"]
    search = stats.get("localization.search_candidates")
    if search and search["configs"]:
        search["survivor_frac"] = search["survivors"] / search["configs"]
    return {name: dict(st) for name, st in stats.items()}


def op_self_sums(spans: list[Span]) -> dict[int, float]:
    """Sum of the self times of each operation's spans, by operation id."""
    out: dict[int, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        out[s.op] += own
    return dict(out)

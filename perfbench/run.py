"""Benchmark of the `semifree` package: one workload, one seed, one process.

    python3 perfbench/run.py --workload reduce --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  The seed generates the workload's inputs, then the workload runs as
a closed loop with one caller on one thread: a fixed number of passes over
the operation list, set by the workload and `--seconds` alone.  Times are
scaled to a nominal machine speed (`speed.py`), and each operation's latency
is the median of its repeats.  Every output is checked
against `oracle.py`.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (END_TO_END); with
`--trace 1` untraced and traced passes alternate and the metrics are the
per-layer ones (PER_LAYER), and the spans of the first traced pass are
written to `.perfbench_out/` in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import random
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

LAYERS = ("cli", "fixed_points", "localization", "cube", "pipeline", "reduction", "algebra")
SETUP_REPEATS = 5
MIN_PASSES = 3
# Seconds of one pass, with its reference timings, on the seed code (2-core
# shared x86-64 machine).  The pass count of a run is `--seconds` divided by
# this, rounded up, never a time budget, so that every run of a workload takes
# as many samples however fast the code under test is.
PASS_S = {"reduce": 6.9, "sieve": 1.66, "model": 3.4}
# Once the minimum of passes is done, no pass starts that is expected to end
# after OVERRUN x `--seconds`; and none ever that would end after HARD_LIMIT_S.
OVERRUN = 1.5
HARD_LIMIT_S = 150
TAIL_PCT = 90

END_TO_END = [
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

PER_LAYER = [
    *((f"algebra.smith_normal_form.{s}", u) for s, u in (
        ("calls", "count"), ("self_s", "s"), ("rows", "count"), ("cols", "count"),
        ("rank", "count"), ("rank_frac", "ratio"))),
    ("reduction.relation_rows.self_s", "s"),
    ("reduction.relation_rows.rows", "count"),
    ("reduction.graded_quotient.self_s", "s"),
    ("reduction.hermite_rows.self_s", "s"),
    ("reduction.reduced_chern_series.self_s", "s"),
    ("localization.consistency_check.calls", "count"),
    ("localization.consistency_check.self_s", "s"),
    ("localization.consistency_check.monomials", "count"),
    ("localization.search_candidates.self_s", "s"),
    ("localization.search_candidates.configs", "count"),
    ("localization.search_candidates.survivors", "count"),
    ("localization.search_candidates.survivor_frac", "ratio"),
    ("localization.integrate.calls", "count"),
    ("localization.integrate.self_s", "s"),
    ("algebra.rational_rank.calls", "count"),
    ("algebra.rational_rank.self_s", "s"),
    ("algebra.rational_rank.entries", "count"),
    ("cube.injectivity_rank_check.self_s", "s"),
    ("cube.equivariant_chern_series.self_s", "s"),
    ("algebra.vandermonde_kernel.self_s", "s"),
    ("pipeline.run_pipeline.self_s", "s"),
    ("pipeline.assemble_bijection.self_s", "s"),
    ("cli.parse_document.self_s", "s"),
    ("fixed_points.validate.calls", "count"),
    ("fixed_points.validate.self_s", "s"),
    ("reduction.presentation_from_data.self_s", "s"),
    ("reduction.kernel_generators.self_s", "s"),
    ("reduction.betti_by_counting.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.total_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.attributed_frac", "ratio"),
]


def import_package() -> SimpleNamespace:
    """A fresh import of `semifree` from the checkout's `src/`."""
    for name in [m for m in sys.modules if m == "semifree" or m.startswith("semifree.")]:
        del sys.modules[name]
    importlib.import_module("semifree")
    return SimpleNamespace(**{n: importlib.import_module(f"semifree.{n}") for n in LAYERS})


class Failure:
    """An operation that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.message = f"raised {type(exc).__name__}: {exc}"


def run_op(op, sf):
    try:
        return op.run(sf)
    except (Exception, SystemExit) as exc:  # an operation's failure is a result
        return Failure(exc)


def check_op(op, result) -> str | None:
    if isinstance(result, Failure):
        return result.message
    try:
        return op.check(result)
    except (Exception, SystemExit) as exc:  # malformed output the checker could not read
        return f"output check raised {type(exc).__name__}: {exc}"


class Run:
    """Counts attempted and failed operations over the whole process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ops, results) -> None:
        for op, result in zip(ops, results):
            self.attempted += 1
            problem = check_op(op, result)
            if problem:
                self.failed += 1
                if self.failed <= 5:
                    print(f"FAILED {op.label}: {problem}", file=sys.stderr)


def setup(name: str, seed: int, toy: bool, run: Run, tmp: Path):
    """Import, generate inputs, write documents, run one untimed warm-up."""
    t0 = perf_counter()
    sf = import_package()
    docdir = Path(tempfile.mkdtemp(dir=tmp))
    ops, warmup = workloads.WORKLOADS[name](random.Random(seed), sf, docdir, toy)
    run.record([warmup], [run_op(warmup, sf)])
    return perf_counter() - t0, sf, ops


def run_pass(ops, sf, run: Run, tracer=None) -> tuple[float, list[float]]:
    """Wall time of the pass and each operation's latency; output checks run
    after the pass and count in neither."""
    results, latencies = [], []
    start = perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        results.append(run_op(op, sf))
        latencies.append(perf_counter() - t0)
    wall = perf_counter() - start
    run.record(ops, results)
    return wall, latencies


def pass_count(name: str, seconds: float) -> int:
    return max(MIN_PASSES, math.ceil(seconds / PASS_S[name]))


def past_limit(started: float, pass_times: list[float], planned: int, seconds: float,
               floor: int) -> bool:
    """Whether the next pass should not start (see OVERRUN); only a machine or
    code much slower than the seed code on a calm machine gets there."""
    if not pass_times:
        return False
    end = perf_counter() - started + statistics.median(pass_times)
    limit = HARD_LIMIT_S if len(pass_times) < floor else min(HARD_LIMIT_S, OVERRUN * seconds)
    if end <= limit:
        return False
    print(f"WARNING stopped after {len(pass_times)} of {planned} passes to end within "
          f"{limit:g} s", file=sys.stderr)
    return True


def tail(latencies: list[float]) -> int:
    """Index in `latencies` of the nearest-rank TAIL_PCT percentile."""
    order = sorted(range(len(latencies)), key=latencies.__getitem__)
    return order[math.ceil(TAIL_PCT / 100 * len(order)) - 1]


def run_pass_scaled(ops, sf, run: Run) -> list[float]:
    """Each operation's latency at nominal speed: the reference computation
    of `speed.py` is timed before the first operation and after each one,
    and an operation's latency is scaled by the two timings around it."""
    results, latencies = [], []
    before = speed.reference_s()
    for op in ops:
        t0 = perf_counter()
        results.append(run_op(op, sf))
        took = perf_counter() - t0
        after = speed.reference_s()
        latencies.append(took * speed.scale(before, after))
        before = after
    run.record(ops, results)
    return latencies


def measure(name: str, seed: int, seconds: float, toy: bool, run: Run, tmp: Path) -> dict:
    """End-to-end metrics.  Every time is at nominal speed (`speed.py`), and
    each operation's latency is the median of its repeats in the run."""
    setups = []
    for _ in range(SETUP_REPEATS):
        before = speed.reference_s()
        took, sf, ops = setup(name, seed, toy, run, tmp)
        setups.append(took * speed.scale(before, speed.reference_s()))
    pass_times, repeats = [], [[] for _ in ops]
    planned = pass_count(name, seconds)
    started = perf_counter()
    for _ in range(planned):
        if past_limit(started, pass_times, planned, seconds, MIN_PASSES):
            break
        t0 = perf_counter()
        lat = run_pass_scaled(ops, sf, run)
        pass_times.append(perf_counter() - t0)
        for samples, x in zip(repeats, lat):
            samples.append(x)
    typical = [statistics.median(samples) for samples in repeats]
    t = tail(typical)
    print(f"passes {len(pass_times)}, operations per pass {len(ops)}; op_tail_ms is "
          f"p{TAIL_PCT} of the {len(ops)} operations' median latencies: {ops[t].label}")
    print(f"as measured, with the reference timings: median pass "
          f"{statistics.median(pass_times):.6g} s")
    return {
        "wall_s": sum(typical),
        "op_p50_ms": 1e3 * statistics.median(typical),
        "op_tail_ms": 1e3 * typical[t],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }


def measure_traced(name: str, seed: int, seconds: float, toy: bool, run: Run, tmp: Path) -> dict:
    _, sf, ops = setup(name, seed, toy, run, tmp)
    tracer = tracing.Tracer(sf)
    plain, traced, per_pass, attributed = [], [], [], []
    first_spans = None
    # an untraced and a traced pass each time, and the traced one is slower
    planned = max(2, pass_count(name, seconds) // 2)
    started = perf_counter()
    for _ in range(planned):
        if past_limit(started, [a + b for a, b in zip(plain, traced)], planned, seconds, 2):
            break
        wall, _ = run_pass(ops, sf, run)
        plain.append(wall)
        tracer.install()
        try:
            wall, lat = run_pass(ops, sf, run, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        spans = tracer.take_spans()
        first_spans = first_spans or spans
        per_pass.append(tracing.layer_stats(spans))
        sums = tracing.op_self_sums(spans)
        attributed.append(sum(sums.values()) / sum(lat))

    for later in per_pass[1:]:
        for fn, st in later.items():
            for key, value in st.items():
                if key not in tracing.TIMES and per_pass[0].get(fn, {}).get(key) != value:
                    print(f"WARNING counter {fn}.{key} differs between passes", file=sys.stderr)
    for fn in tracer.absent:
        print(f"absent: {fn} (no longer defined by the package)")
    write_spans(name, seed, ops, tracer.absent, first_spans)

    def value(metric: str) -> float:
        fn, stat = metric.rsplit(".", 1)
        if stat in tracing.TIMES:
            return statistics.median(p.get(fn, {}).get(stat, 0.0) for p in per_pass)
        return per_pass[0].get(fn, {}).get(stat, 0)

    metrics = {m: value(m) for m, _ in PER_LAYER if not m.startswith("trace.")}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    metrics["trace.attributed_frac"] = statistics.median(attributed)
    print_layers(per_pass[0], statistics.median(traced))
    return metrics


def write_spans(name, seed, ops, absent, spans) -> None:
    path = OUT / f"spans-{name}-seed{seed}.jsonl"
    t0 = spans[0].start if spans else 0.0
    with open(path, "w") as f:
        f.write(json.dumps({"workload": name, "seed": seed, "why": workloads.WHY[name],
                            "ops": [op.label for op in ops], "absent": absent}) + "\n")
        for i, s in enumerate(spans):
            f.write(json.dumps({"id": i, "name": s.name, "start": s.start - t0,
                                "end": s.end - t0, "parent": s.parent, "op": s.op,
                                "counters": s.counters}) + "\n")
    print(f"spans of the first traced pass: {path.relative_to(ROOT)}")


def print_layers(stats: dict, wall: float) -> None:
    print(f"{'function':44} {'calls':>8} {'self_s':>9} {'share':>6}")
    for fn, st in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{fn:44} {int(st['calls']):8d} {st['self_s']:9.4f} {st['self_s'] / wall:6.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "semifree" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'semifree'}: run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    print(f"workload {args.workload}, seed {args.seed}: {workloads.WHY[args.workload]}")
    run = Run()
    tmp = Path(tempfile.mkdtemp(prefix="docs-", dir=OUT))
    try:
        if args.trace:
            units = PER_LAYER
            values = measure_traced(args.workload, args.seed, args.seconds, args.toy, run, tmp)
        else:
            units = END_TO_END
            values = measure(args.workload, args.seed, args.seconds, args.toy, run, tmp)
    finally:
        shutil.rmtree(tmp)
    print(f"fail_frac = {run.failed / run.attempted:.6g} ratio ({run.failed} of {run.attempted})")
    for metric, unit in units:
        print(f"{metric} = {values[metric]:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

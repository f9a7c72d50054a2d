"""Smoke test of the benchmark: every workload at toy sizes, both modes.

Run with `python -m pytest perfbench` from the root of a checkout.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402

WORKLOADS = ("reduce", "sieve", "model")


def bench(workload: str, trace: int, seed: int = 7) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_no_failures(workload):
    result = bench(workload, trace=0)
    assert result["failed"] == 0 and result["correct"]  # fail_frac == 0
    assert {m: v["unit"] for m, v in result["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    result = bench(workload, trace=1)
    assert result["failed"] == 0 and result["correct"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == declared("per_layer")


def test_counters_repeat_between_traced_runs():
    counts = [
        {m: v["value"] for m, v in bench("reduce", trace=1)["metrics"].items()
         if v["unit"] == "count"}
        for _ in range(2)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["algebra.smith_normal_form.calls"] > 0


def test_frozen_survivors_match_an_independent_sieve():
    for key, survivors in oracle.SURVIVORS.items():
        assert oracle.sieve_survivors(*key) == sorted(survivors), key
    assert oracle.SURVIVORS[(3, 2, 2, 3)] == [((-2, 1, 1), (-1, -1, 2))]


def test_closed_forms():
    assert oracle.betti_closed_form(3, oracle.default_level(3)) == [1, 4, 1]
    assert oracle.betti_closed_form(7, oracle.default_level(7)) == [1, 8, 29, 64, 29, 8, 1]
    assert [oracle.stirling2(k, 3) for k in range(5)] == [0, 0, 0, 1, 6]
    assert oracle.partitions_up_to(3) == 7


def test_refuses_to_run_without_the_package_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reduce", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout == ""

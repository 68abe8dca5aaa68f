"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e -m smoke``).

Every workload runs at a 24-site scene with one timed round, in a few
seconds; the test checks the output schema against ``BENCHMARK.json`` and
that every count repeats exactly between runs at one seed — not the timings.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
EXIT_DISTURBED = 3


def run(workload: str, trace: int):
    """``(result object, diagnostics)`` of one tiny run."""
    for _ in range(3):      # a tiny round is easily disturbed; try again
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "7", "--sites", "24", "--rounds", "1",
             "--trace", str(trace)],
            capture_output=True, text=True, timeout=100)
        if done.returncode != EXIT_DISTURBED:
            break
    assert done.returncode == 0, done.stderr
    lines = done.stdout.rstrip().split("\n")
    assert lines[-2].startswith("diagnostics ")
    return json.loads(lines[-1]), json.loads(lines[-2][len("diagnostics "):])


def units(result) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.smoke
@pytest.mark.parametrize("workload",
                         [w["name"] for w in CONTRACT["workloads"]])
def test_schema_and_exact_counts(workload):
    result, diagnostics = run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"]
                             for m in CONTRACT["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    for key in ("wall_over_cpu", "slowdown", "round_throughput_per_s",
                "loadavg_before", "loadavg_after"):
        assert key in diagnostics

    first, first_diagnostics = run(workload, trace=1)
    second, second_diagnostics = run(workload, trace=1)
    assert first["correct"] and second["correct"]
    assert units(first) == {m["name"]: m["unit"]
                            for m in CONTRACT["per_layer"]}
    counted = [name for name, unit in units(first).items()
               if unit in ("count", "bytes")]
    assert counted
    for name in counted:
        assert first["metrics"][name] == second["metrics"][name], name
    assert (diagnostics["round_counts"] == first_diagnostics["round_counts"]
            == second_diagnostics["round_counts"])
    assert first_diagnostics["counts_repeat"]

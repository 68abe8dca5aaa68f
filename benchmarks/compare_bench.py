#!/usr/bin/env python
"""Benchmark-regression gate: compare BENCH_*.json runs against baselines.

The perf-smoke CI job re-runs every benchmark at smoke scale and then calls
this script to compare the fresh reports against the committed baselines
under ``benchmarks/results/smoke/``.  No magnitude of anything timed is
compared here: the four ``BENCHMARK.json`` workloads (``benchmarks/e2e/``)
are the timing instrument.
Tracked metrics are declared below per report file; each is either

* an **exact** metric (``kind="exact"``): deterministic counts and parity
  booleans (parity flags, accounting identities, repair failures).  Any
  change fails the gate, in either direction — a "regression" that *finds
  more mappings* is a correctness bug too.
* a **sample** metric (``kind="sample"``): a measured value (latency
  percentile) that must *exist* and be numeric.  Its magnitude is not
  compared — wall-clock values do not transfer between machines — but a
  ``null``/missing sample fails the gate even when the baseline lacks the
  field: "no data" must never read as "no regression".  (Historically an
  empty latency sample was reported as a perfect 0.0 and sailed through;
  this kind is the guard against that class of lie.)

Missing candidate files fail the gate (a benchmark silently dropping out of
CI is itself a regression); missing baseline files are reported and skipped
so a brand-new benchmark can land together with its first baseline.

Usage::

    python benchmarks/compare_bench.py \
        --baseline benchmarks/results/smoke --candidate benchmarks/results

Exit status: 0 = all gates green, 1 = regression, 2 = usage/missing files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class Metric:
    """One tracked value inside a benchmark report."""

    #: Dotted path into the JSON document (list indices allowed, e.g.
    #: ``engines.0.mappings_found``).
    path: str
    #: "exact" (must match) or "sample" (must exist and be numeric;
    #: magnitude uncompared).
    kind: str

    def resolve(self, document) -> Optional[object]:
        value = document
        for part in self.path.split("."):
            if isinstance(value, list):
                try:
                    value = value[int(part)]
                except (ValueError, IndexError):
                    return None
            elif isinstance(value, dict):
                if part not in value:
                    return None
                value = value[part]
            else:
                return None
        return value


#: The gate's contract: which metrics of which report are protected.
TRACKED: Dict[str, List[Metric]] = {
    "BENCH_churn.json": [
        Metric("refresh.parity_checked", kind="exact"),
        Metric("refresh.recompiled", kind="exact"),
        Metric("repair.failed", kind="exact"),
        Metric("repair.timeout", kind="exact"),
    ],
    "BENCH_faults.json": [
        # The fault benchmark is deterministic end to end: the seeded plan
        # fires the same faults every run, the resilience stack answers
        # every request, and the WAL replays to the exact live ledger.
        # All of it is exact-gated — any drift is a robustness regression.
        Metric("availability.availability", kind="exact"),
        Metric("availability.answered", kind="exact"),
        Metric("availability.results", kind="exact"),
        Metric("availability.errors_final", kind="exact"),
        Metric("faults.total_fired", kind="exact"),
        Metric("faults.fired_counts.engine-timeout", kind="exact"),
        Metric("faults.fired_counts.connection-drop", kind="exact"),
        Metric("faults.fired_counts.slow-call", kind="exact"),
        Metric("parity.results_match", kind="exact"),
        Metric("parity.mismatches", kind="exact"),
        Metric("wal.orphans", kind="exact"),
        Metric("wal.lost", kind="exact"),
        Metric("wal.state_match", kind="exact"),
    ],
    "BENCH_serving.json": [
        # Latency percentiles and shed counts are load/host dependent; the
        # gate protects the serving tier's deterministic invariants: zero
        # result drift vs direct engine calls, every arrival answered
        # exactly once, and a metrics document that agrees with the clients.
        Metric("parity.results_match", kind="exact"),
        Metric("parity.mismatches", kind="exact"),
        Metric("accounting.consistent", kind="exact"),
        Metric("metrics.consistent", kind="exact"),
        Metric("outcomes.errors", kind="exact"),
        # The honest-latency contract: the percentiles must be measured
        # numbers.  A run that served nothing reports them as null and MUST
        # fail here — it used to report 0.0 and pass.
        Metric("latency.p50_seconds", kind="sample"),
        Metric("latency.p95_seconds", kind="sample"),
        Metric("latency.p99_seconds", kind="sample"),
    ],
    "BENCH_harness.json": [
        # The scenario harness is gated on its honesty invariants, all of
        # them deterministic: byte-identical trace lowering, replay parity
        # of outcome classifications, null (not 0.0) percentiles on the
        # all-shed scenario, and consistent accounting per live scenario.
        Metric("trace.byte_identical", kind="exact"),
        Metric("replay.outcomes_match", kind="exact"),
        Metric("replay.mismatches", kind="exact"),
        Metric("honesty.allshed_served", kind="exact"),
        Metric("honesty.empty_sample_is_null", kind="exact"),
        Metric("scenarios.steady.accounting.consistent", kind="exact"),
        Metric("scenarios.steady.outcomes.errors", kind="exact"),
        Metric("scenarios.steady.server.protocol_errors", kind="exact"),
        Metric("scenarios.overload.accounting.consistent", kind="exact"),
        Metric("scenarios.overload.server.protocol_errors", kind="exact"),
        Metric("scenarios.allshed.accounting.consistent", kind="exact"),
        Metric("scenarios.steady.latency.p50_seconds", kind="sample"),
        Metric("scenarios.steady.latency.p95_seconds", kind="sample"),
        Metric("scenarios.steady.latency.p99_seconds", kind="sample"),
    ],
    "BENCH_scaleout.json": [
        # The scale-out tier is gated on its deterministic guarantees:
        # every zone-local query embedded and revalidated against the
        # primary, feasibility parity with the monolithic oracle, bounded
        # per-partition working sets, and element-identical replicas after
        # journal-delta refresh.
        Metric("embed.found", kind="exact"),
        Metric("embed.valid", kind="exact"),
        Metric("parity.results_match", kind="exact"),
        Metric("parity.mismatches", kind="exact"),
        Metric("partitions.bounded", kind="exact"),
        Metric("replication.identical", kind="exact"),
    ],
}


def compare_file(name: str, baseline_dir: Path, candidate_dir: Path
                 ) -> List[str]:
    """Gate one report; returns failure messages (empty = green)."""
    failures: List[str] = []
    baseline_path = baseline_dir / name
    candidate_path = candidate_dir / name
    if not baseline_path.exists():
        print(f"  {name}: no baseline committed yet — skipped "
              f"(commit one under {baseline_dir})")
        return failures
    if not candidate_path.exists():
        return [f"{name}: candidate report missing at {candidate_path} — "
                f"did the benchmark run?"]
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    candidate = json.loads(candidate_path.read_text(encoding="utf-8"))

    for metric in TRACKED[name]:
        base_value = metric.resolve(baseline)
        cand_value = metric.resolve(candidate)
        if metric.kind == "sample":
            # Checked before the baseline-absent skip: a sample metric
            # gates the *candidate* only.  null, missing, non-numeric, or
            # NaN all fail — an empty sample must never read as healthy.
            missing = (isinstance(cand_value, bool)
                       or not isinstance(cand_value, (int, float))
                       or cand_value != cand_value)
            if missing:
                print(f"  {name}: {metric.path} = {cand_value!r} [NO SAMPLE]")
                failures.append(
                    f"{name}: {metric.path} has no measured sample "
                    f"({cand_value!r}) — an empty/missing latency sample "
                    f"fails the gate, it does not pass it")
            else:
                print(f"  {name}: {metric.path} = {cand_value:.6f} "
                      f"(sample present) [ok]")
            continue
        if base_value is None:
            print(f"  {name}: {metric.path} absent from baseline — skipped")
            continue
        if cand_value is None:
            failures.append(f"{name}: {metric.path} missing from the "
                            f"candidate report")
            continue
        ok = cand_value == base_value
        verdict = "ok" if ok else "CHANGED"
        print(f"  {name}: {metric.path} = {cand_value!r} "
              f"(baseline {base_value!r}) [{verdict}]")
        if not ok:
            failures.append(
                f"{name}: {metric.path} changed from {base_value!r} to "
                f"{cand_value!r} (exact metric)")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path,
                        default=Path(__file__).parent / "results" / "smoke",
                        help="directory holding the committed baseline "
                             "BENCH_*.json files")
    parser.add_argument("--candidate", type=Path,
                        default=Path(__file__).parent / "results",
                        help="directory holding the freshly produced reports")
    args = parser.parse_args(argv)
    if not args.baseline.is_dir():
        print(f"error: baseline directory {args.baseline} does not exist",
              file=sys.stderr)
        return 2

    print(f"comparing {args.candidate} against baselines in {args.baseline}")
    failures: List[str] = []
    for name in sorted(TRACKED):
        failures.extend(compare_file(name, args.baseline, args.candidate))
    if failures:
        print("\nbenchmark regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nbenchmark regression gate: all tracked metrics green")
    return 0


try:                         # pytest is absent in script-only environments
    from _smoke_marker import smoke as _smoke
except ImportError:          # pragma: no cover - running outside benchmarks/
    def _smoke(func):
        return func


@_smoke
def test_smoke(tmp_path):
    """The gate passes when candidate == baseline and catches regressions."""
    baseline = tmp_path / "baseline"
    candidate = tmp_path / "candidate"
    baseline.mkdir()
    candidate.mkdir()
    report = {"refresh": {"parity_checked": True, "recompiled": 0},
              "repair": {"failed": 0, "timeout": 0}}
    (baseline / "BENCH_churn.json").write_text(json.dumps(report))
    (candidate / "BENCH_churn.json").write_text(json.dumps(report))
    assert main(["--baseline", str(baseline), "--candidate", str(candidate)]) == 0

    degraded = {"refresh": {"parity_checked": True, "recompiled": 1},
                "repair": {"failed": 0, "timeout": 0}}
    (candidate / "BENCH_churn.json").write_text(json.dumps(degraded))
    assert main(["--baseline", str(baseline), "--candidate", str(candidate)]) == 1

    # A missing candidate report is a failure, not a skip.
    (candidate / "BENCH_churn.json").unlink()
    assert main(["--baseline", str(baseline), "--candidate", str(candidate)]) == 1

    # Sample metrics: a numeric percentile passes; a null one (empty
    # sample) fails the gate even though the baseline value is ignored.
    (candidate / "BENCH_churn.json").write_text(json.dumps(report))
    serving = {"parity": {"results_match": True, "mismatches": 0},
               "accounting": {"consistent": True},
               "metrics": {"consistent": True},
               "outcomes": {"errors": 0},
               "latency": {"p50_seconds": 0.003, "p95_seconds": 0.009,
                           "p99_seconds": 0.012}}
    (baseline / "BENCH_serving.json").write_text(json.dumps(serving))
    (candidate / "BENCH_serving.json").write_text(json.dumps(serving))
    assert main(["--baseline", str(baseline), "--candidate", str(candidate)]) == 0

    starved = json.loads(json.dumps(serving))
    starved["latency"] = {"p50_seconds": None, "p95_seconds": None,
                          "p99_seconds": None}
    (candidate / "BENCH_serving.json").write_text(json.dumps(starved))
    assert main(["--baseline", str(baseline), "--candidate", str(candidate)]) == 1


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python
"""The serving tier under open-loop Poisson load: latency, throughput, sheds.

The serving-tier contract (admission control over the plan-cache engine) is
judged the way a production front door is: requests arrive on a schedule
fixed in advance — a seeded Poisson process replayed against the wall
clock — regardless of whether the engine has kept up.  Closed-loop drivers
hide overload by slowing down with the server; an open-loop driver does
not, which is exactly the regime where an unbounded queue melts down and a
bounded one sheds.

The replay rides on the shared harness driver (:mod:`repro.harness`) and is
folded by the same :func:`~repro.harness.scenario_summary` as every other
scenario run, so the measurement rules match:

* latency is measured from each request's **scheduled** offset, not from
  the moment the driver got around to sending it (coordinated-omission
  fix), and the driver's own lag is reported first-class as
  ``schedule_slip``;
* percentiles come from :mod:`repro.analysis.stats` and are ``null`` on an
  empty sample — a run that served nothing reports *no* latency, never a
  flattering 0.0.

Two tenants share the server: ``open`` (no rate limit — it sees the bounded
queue as-is) and ``capped`` (rate-limited, so tenant-level QoS sheds appear
even on machines fast enough never to fill the queue).  The benchmark
reports the harness summary (latency/slip blocks, the shed rate and its
breakdown by structured reason, per-tenant counts) plus three deterministic
invariants the regression gate protects:

* ``parity.results_match`` — every accepted response is byte-identical
  (stringified mappings) to a direct ``NetEmbedService.submit`` of the
  same spec, so the serving tier adds *no* result drift;
* ``accounting.consistent`` — offered == admitted + shed == answered:
  every scheduled arrival got exactly one structured answer;
* ``metrics.consistent`` — the ``metrics`` endpoint's admission counters
  agree with what the client observed.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py \
        [--scale smoke|small|planetlab] [--seed N] [--output PATH]
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.perf import environment_info, write_bench_json
from repro.harness import (
    ScenarioConfig,
    ScenarioRun,
    run_scenario,
    scenario_summary,
)
from repro.server import mapping_payload
from repro.service import NetEmbedService, QuerySpec

DEFAULT_OUTPUT = Path(__file__).parent / "results" / "BENCH_serving.json"

SCHEMA_VERSION = 3


@dataclass(frozen=True)
class ServingScale:
    """Scene size and offered load per --scale."""

    hosting_nodes: int
    num_workloads: int
    query_size: int
    slack: float
    rate: float          # offered load, requests/second (both tenants)
    horizon: float       # trace length in seconds
    capped_rate: float   # admission rate limit for the ``capped`` tenant
    engine_workers: int
    queue_depth: int
    max_results: int
    deadline: float


SCALES: Dict[str, ServingScale] = {
    "smoke": ServingScale(hosting_nodes=24, num_workloads=3, query_size=5,
                          slack=0.30, rate=24.0, horizon=1.5, capped_rate=3.0,
                          engine_workers=1, queue_depth=16, max_results=4,
                          deadline=10.0),
    "small": ServingScale(hosting_nodes=48, num_workloads=4, query_size=6,
                          slack=0.30, rate=40.0, horizon=3.0, capped_rate=4.0,
                          engine_workers=2, queue_depth=32, max_results=4,
                          deadline=10.0),
    "planetlab": ServingScale(hosting_nodes=296, num_workloads=4, query_size=8,
                              slack=0.30, rate=60.0, horizon=5.0,
                              capped_rate=5.0, engine_workers=2,
                              queue_depth=64, max_results=4, deadline=20.0),
}


def scenario_config(scale: ServingScale) -> ScenarioConfig:
    """Lower a --scale onto the shared harness scenario schema."""
    return ScenarioConfig(
        name="serving", rate=scale.rate, horizon=scale.horizon,
        tenants=("open", "capped"), capped_rate=scale.capped_rate,
        hosting_nodes=scale.hosting_nodes, num_workloads=scale.num_workloads,
        query_size=scale.query_size, slack=scale.slack,
        engine_workers=scale.engine_workers, queue_depth=scale.queue_depth,
        max_results=scale.max_results, deadline=scale.deadline)


def run_parity_check(run: ScenarioRun) -> Dict:
    """Accepted server responses must equal direct engine calls, byte for byte."""
    from repro.harness import build_scene

    hosting, workloads = build_scene(run.config, run.seed)
    service = NetEmbedService(default_timeout=run.config.deadline)
    service.register_network(hosting, name="serving-bench")
    expected = []
    for workload in workloads:
        response = service.submit(QuerySpec(
            query=workload.query, constraint=workload.constraint,
            algorithm="ECF", max_results=run.config.max_results))
        expected.append([mapping_payload(m) for m in response.mappings])

    compared = 0
    mismatches = 0
    for outcome in run.outcomes:
        if outcome.kind != "result":
            continue
        compared += 1
        if outcome.response["mappings"] != expected[outcome.workload]:
            mismatches += 1
    return {
        "workloads": len(workloads),
        "responses_compared": compared,
        "mismatches": mismatches,
        "results_match": mismatches == 0 and compared > 0,
    }


def metrics_consistent(run: ScenarioRun) -> bool:
    """The ``metrics`` endpoint's counters agree with what the client saw."""
    metrics = run.metrics
    shed = sum(1 for outcome in run.outcomes if outcome.kind == "shed")
    return (metrics["admission"]["shed_total"] == shed
            and metrics["server"]["requests"].get("embed", 0)
            == len(run.outcomes)
            and metrics["service"]["plan_cache"]["misses"] >= 1)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="smoke",
                        help="scene size and offered load (default: smoke)")
    parser.add_argument("--seed", type=int, default=9,
                        help="scene + trace RNG seed (default: 9)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"where to write BENCH_serving.json "
                             f"(default: {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)

    scale = SCALES[args.scale]
    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    print(f"serving: scale={args.scale} seed={args.seed} "
          f"{scale.hosting_nodes} hosts, {scale.num_workloads} workloads of "
          f"{scale.query_size} nodes; open-loop Poisson {scale.rate}/s for "
          f"{scale.horizon}s onto {scale.engine_workers} worker(s), "
          f"queue depth {scale.queue_depth}")

    run = run_scenario(scenario_config(scale), seed=args.seed)
    summary = scenario_summary(run)
    metrics_ok = metrics_consistent(run)
    parity = run_parity_check(run)

    latency = summary["latency"]
    outcomes = summary["outcomes"]
    slip = summary["schedule_slip"]

    def fmt_ms(value: Optional[float]) -> str:
        return "n/a (empty sample)" if value is None else f"{value * 1000:.1f}ms"

    print(f"latency (from scheduled offsets): {latency['served']} served, "
          f"p50 {fmt_ms(latency['p50_seconds'])}, "
          f"p99 {fmt_ms(latency['p99_seconds'])}; "
          f"throughput {summary['throughput']['served_per_second']:.1f}/s "
          f"against {scale.rate:.1f}/s offered")
    print(f"schedule slip: max {fmt_ms(slip['max_seconds'])}, "
          f"total {fmt_ms(slip['total_seconds'])} across {slip['count']} "
          f"request(s)")
    print(f"shedding: {outcomes['shed']}/{outcomes['offered']} "
          f"({outcomes['shed_rate']:.0%}) — "
          + (", ".join(f"{reason} x{count}" for reason, count
                       in sorted(outcomes["shed_reasons"].items()))
             or "none"))
    print(f"parity: {parity['responses_compared']} accepted responses vs "
          f"direct engine calls, {parity['mismatches']} mismatches")
    print(f"accounting consistent: {summary['accounting']['consistent']}; "
          f"metrics consistent: {metrics_ok}")
    if not parity["results_match"]:
        print("WARNING: serving tier drifted from direct engine results",
              file=sys.stderr)

    report = {
        "schema_version": SCHEMA_VERSION,
        "workload": {"scale": args.scale, "started": started},
        "environment": environment_info(),
        **summary,
        "metrics": {"consistent": metrics_ok},
        "parity": parity,
    }
    path = write_bench_json(args.output, report)
    print(f"wrote {path}")
    return 0


try:                         # pytest is absent in script-only environments
    from _smoke_marker import smoke as _smoke
except ImportError:          # pragma: no cover - running outside benchmarks/
    def _smoke(func):
        return func


@_smoke
def test_smoke(tmp_path):
    """Tiny-scale end-to-end run (parity-checked) for pytest/CI."""
    assert main(["--scale", "smoke",
                 "--output", str(tmp_path / "BENCH_serving.json")]) == 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python
"""Incremental refresh and repair under sparse churn vs. the rebuild engine.

The dynamic-network scenario: a long-lived service holds compiled plans and
reserved embeddings while the monitoring feed jitters a *small fraction* of
the model every tick.  This benchmark replays identical attr-jitter-only
churn traces over two copies of a PlanetLab-style model and checks, per
tick, that the two ways of bringing a plan up to date agree:

* **incremental-refresh** — ``plan.refresh()`` routing through the
  delta-aware patch path: the mutation journal is replayed onto the filter
  blocks and vectorizer columns;
* **full-recompile** — the hosting compile is dropped and
  ``ECF().prepare(request)`` rebuilds everything from scratch.

The two arms must stay **element-identical**: after every tick the patched
filter matrices (blocks, arcs, candidate masks, node screens) and the
recomputed visiting order are compared against the from-scratch build.  A
second phase reserves embeddings against a third copy and checks that
``service.repair()`` — which releases only the violated assignments — agrees
with answering the same query from scratch on whether it is feasible.

The counts and parity flags the regression gate pins go to
``BENCH_churn.json``; what a refresh costs a caller is the ``churn_refresh``
workload of ``benchmarks/e2e/``.

Usage::

    PYTHONPATH=src python benchmarks/bench_churn.py \
        [--scale smoke|small|planetlab] [--seed N] [--ticks N] \
        [--link-fraction F] [--node-fraction F] [--output PATH]
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
from repro.api import SearchRequest
from repro.core import ECF, clear_hosting_compile
from repro.service import NetEmbedService, QuerySpec
from repro.utils.rng import as_rng
from repro.workloads import ChurnConfig, ChurnProcess, churn_embedding_suite

DEFAULT_OUTPUT = Path(__file__).parent / "results" / "BENCH_churn.json"

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ChurnScale:
    """Scene size per --scale."""

    hosting_nodes: int
    num_queries: int
    query_size: int
    slack: float


SCALES: Dict[str, ChurnScale] = {
    "smoke": ChurnScale(hosting_nodes=24, num_queries=3, query_size=6,
                        slack=0.35),
    "small": ChurnScale(hosting_nodes=48, num_queries=4, query_size=8,
                        slack=0.35),
    "planetlab": ChurnScale(hosting_nodes=296, num_queries=4, query_size=10,
                            slack=0.35),
}


def build_scene(scale: ChurnScale, seed: int):
    """One deterministic (hosting, workloads) scene.

    Called once per arm with the same *seed*, so every arm sees an
    identical network and identical queries — and a same-seeded
    :class:`ChurnProcess` then replays an identical churn trace onto each.
    """
    from repro.workloads import planetlab_host

    rng = as_rng(seed)
    hosting = planetlab_host(scale.hosting_nodes, rng=rng)
    workloads = churn_embedding_suite(hosting, num_queries=scale.num_queries,
                                      query_size=scale.query_size,
                                      slack=scale.slack, rng=rng)
    return hosting, workloads


def assert_same_artifacts(patched_plan, fresh_plan, tick: int) -> None:
    """Patched plan artifacts must be element-identical to a rebuild."""
    patched, fresh = patched_plan.prepared, fresh_plan.prepared
    pf, ff = patched.filters, fresh.filters
    checks = [
        ("match cells", pf.blocks == ff.blocks),
        ("non-match cells", pf.arcs == ff.arcs),
        ("candidate masks", pf.node_candidate_masks == ff.node_candidate_masks),
        ("node screening", pf.node_allowed_masks == ff.node_allowed_masks),
        ("infeasibility", patched.infeasible == fresh.infeasible),
        ("visiting order", patched.order == fresh.order),
    ]
    for label, ok in checks:
        if not ok:
            raise AssertionError(
                f"tick {tick}: patched plan diverged from a from-scratch "
                f"rebuild on {label}")


def run_refresh_phase(scale: ChurnScale, seed: int, ticks: int,
                      config: ChurnConfig) -> Dict:
    """Per-tick incremental plan refresh vs. full recompile, element-checked."""
    hosting_inc, workloads_inc = build_scene(scale, seed)
    hosting_full, workloads_full = build_scene(scale, seed)
    churn_inc = ChurnProcess(hosting_inc, config, rng=seed + 1)
    churn_full = ChurnProcess(hosting_full, config, rng=seed + 1)

    requests_inc = [SearchRequest.build(w.query, hosting_inc,
                                        constraint=w.constraint)
                    for w in workloads_inc]
    requests_full = [SearchRequest.build(w.query, hosting_full,
                                         constraint=w.constraint)
                     for w in workloads_full]
    plans = [ECF().prepare(request) for request in requests_inc]

    patched = recompiled = 0
    touched_rows = 0
    for tick in range(1, ticks + 1):
        record_inc = churn_inc.tick()
        record_full = churn_full.tick()
        if ([record_inc.touched_edges, record_inc.touched_nodes]
                != [record_full.touched_edges, record_full.touched_nodes]):
            raise AssertionError("churn traces diverged between the arms")
        for index, request in enumerate(requests_full):
            plans[index] = plans[index].refresh()
            if plans[index].refresh_mode == "patched":
                patched += 1
            else:
                recompiled += 1

            # Rebuild from a dropped hosting compile, so the patched plan is
            # judged against a build that shares no patched layer with it.
            clear_hosting_compile(hosting_full)
            fresh = ECF().prepare(request)

            assert_same_artifacts(plans[index], fresh, tick)
        touched_rows += len(record_inc.touched_edges)

    filters = plans[0].prepared.filters
    return {
        "ticks": ticks,
        "queries": len(plans),
        "refreshes": ticks * len(plans),
        "patched": patched,
        "recompiled": recompiled,
        "parity_checked": True,
        "patched_rows_per_plan": filters.patched_rows,
        "links_touched": touched_rows,
    }


def run_repair_phase(scale: ChurnScale, seed: int, ticks: int,
                     config: ChurnConfig, timeout: float) -> Dict:
    """Repair reserved embeddings per tick; re-embedding must agree."""
    hosting, workloads = build_scene(scale, seed)
    for node in hosting.nodes():
        hosting.set_capacity(node, 4.0)
    service = NetEmbedService(default_timeout=timeout)
    service.register_network(hosting, name="churn-bench")
    reservations = []
    for workload in workloads:
        response = service.submit(QuerySpec(
            query=workload.query, constraint=workload.constraint,
            algorithm="ECF", max_results=1, reserve=True))
        if response.reservation_id is None:
            raise AssertionError(
                f"feasible-by-construction query {workload.query.name!r} "
                f"found no embedding to reserve")
        reservations.append((response.reservation_id, workload))

    churn = ChurnProcess(hosting, config, rng=seed + 1)
    counts = {"intact": 0, "repaired": 0, "failed": 0, "timeout": 0}
    moved = 0
    for _ in range(ticks):
        churn.tick()
        service.registry.touch("churn-bench")
        for reservation_id, workload in reservations:
            repair = service.repair(reservation_id, timeout=timeout)
            counts[repair.status] = counts.get(repair.status, 0) + 1
            moved += len(repair.moved)

            result = ECF().request(SearchRequest.build(
                workload.query, hosting, constraint=workload.constraint,
                timeout=timeout, max_results=1))
            if repair.ok != result.found:
                raise AssertionError(
                    f"repair ({repair.status}) and re-embed "
                    f"(found={result.found}) disagree on feasibility of "
                    f"{workload.query.name!r}")

    return {
        "ticks": ticks,
        "reservations": len(reservations),
        "checks": ticks * len(reservations),
        **counts,
        "moved_nodes": moved,
        "repaired_valid": True,   # service.repair re-validates before rebinding
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="smoke",
                        help="scene size (default: smoke)")
    parser.add_argument("--seed", type=int, default=5,
                        help="scene + churn RNG seed (default: 5)")
    parser.add_argument("--ticks", type=int, default=8,
                        help="churn ticks per phase (default: 8)")
    parser.add_argument("--link-fraction", type=float, default=0.03,
                        help="fraction of links jittered per tick "
                             "(default: 0.03)")
    parser.add_argument("--node-fraction", type=float, default=0.02,
                        help="fraction of nodes perturbed per tick "
                             "(default: 0.02)")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="per-operation budget in seconds (default: 60)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"where to write BENCH_churn.json "
                             f"(default: {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)
    if args.ticks < 1:
        parser.error("--ticks must be >= 1")

    scale = SCALES[args.scale]
    config = ChurnConfig(link_fraction=args.link_fraction,
                         node_fraction=args.node_fraction,
                         delay_jitter=0.25, load_jitter=0.2)
    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    print(f"churn: scale={args.scale} seed={args.seed} "
          f"{scale.hosting_nodes} hosts, {scale.num_queries} queries of "
          f"{scale.query_size} nodes, {args.ticks} attr-jitter ticks "
          f"(links {args.link_fraction}, nodes {args.node_fraction})")

    refresh = run_refresh_phase(scale, args.seed, args.ticks, config)
    print(f"refresh: {refresh['refreshes']} refreshes, "
          f"{refresh['patched']} patched / {refresh['recompiled']} "
          f"recompiled; artifacts element-identical to a rebuild")

    repair = run_repair_phase(scale, args.seed, args.ticks, config,
                              args.timeout)
    print(f"repair:  {repair['checks']} checks -> {repair['intact']} intact, "
          f"{repair['repaired']} repaired ({repair['moved_nodes']} moves), "
          f"{repair['failed']} failed; feasibility agrees with re-embedding")

    report = {
        "schema_version": SCHEMA_VERSION,
        "workload": {
            "scale": args.scale,
            "seed": args.seed,
            "ticks": args.ticks,
            "hosting_nodes": scale.hosting_nodes,
            "num_queries": scale.num_queries,
            "query_size": scale.query_size,
            "slack": scale.slack,
            "link_fraction": args.link_fraction,
            "node_fraction": args.node_fraction,
            "started": started,
        },
        "environment": environment_info(),
        "refresh": refresh,
        "repair": repair,
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
    assert main(["--scale", "smoke", "--ticks", "4",
                 "--output", str(tmp_path / "BENCH_churn.json")]) == 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python
"""Scale-out embedding over a partitioned hosting network (repro.cluster).

The cluster tier's claim is that a hosting network one monolithic engine
cannot comfortably hold can be sharded into partitions, searched with a
two-level (quotient-graph coarse + intra-partition fine) strategy, and kept
fresh by journal-delta replication — while every partition worker touches a
**bounded working set** (its replica slice plus compiled plans), never the
full network.  This benchmark builds a federated PlanetLab-style topology
(the ``full`` scale is ~9.6k sites: 32x the 296-node PlanetLab trace of the
paper's Fig. 8/9 experiments), embeds a batch of zone-local queries through
:class:`~repro.cluster.ClusterCoordinator`, and reports

* ``embed.found`` / ``embed.valid`` — every query answered and every
  returned mapping revalidated against the *primary* network (exact-gated);
* ``parity.results_match`` — the differential oracle: feasibility verdicts
  agree with a monolithic ECF run over the unpartitioned network on every
  instance the oracle finishes within its budget (exact-gated);
* ``partitions.bounded`` — the largest replica stays a strict fraction of
  the network (exact-gated), the working-set guarantee in one number;
* ``replication.identical`` — after attribute churn, journal-delta refresh
  lands every replica in exactly the state a wholesale rebuild would
  produce, element for element (exact-gated).

Usage::

    PYTHONPATH=src python benchmarks/bench_scaleout.py \
        [--scale smoke|full] [--seed N] [--output PATH]
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.perf import environment_info, write_bench_json
from repro.api.request import SearchRequest
from repro.cluster import ClusterCoordinator
from repro.core.ecf import ECF
from repro.core.mapping import validate_mapping
from repro.workloads import federated_planetlab, subgraph_query

DEFAULT_OUTPUT = Path(__file__).parent / "results" / "BENCH_scaleout.json"

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ScaleoutScale:
    """Federation size and query batch per --scale."""

    num_zones: int
    sites_per_zone: int
    num_queries: int
    query_size: int
    slack: float
    embed_timeout: float     # per-query budget for the cluster arm
    oracle_timeout: float    # per-query budget for the monolithic oracle
    churn_edges: int         # attribute updates between the two refreshes


SCALES: Dict[str, ScaleoutScale] = {
    "smoke": ScaleoutScale(num_zones=4, sites_per_zone=30, num_queries=6,
                           query_size=5, slack=0.30, embed_timeout=20.0,
                           oracle_timeout=20.0, churn_edges=12),
    # >= 9k sites: ~32x the 296-node PlanetLab trace the paper measures on.
    "full": ScaleoutScale(num_zones=64, sites_per_zone=150, num_queries=12,
                          query_size=8, slack=0.30, embed_timeout=60.0,
                          oracle_timeout=120.0, churn_edges=64),
}


def sample_workloads(hosting, coordinator, scale: ScaleoutScale, seed: int):
    """Deterministic zone-local query batch.

    Queries are sampled from zone *interiors* (feasible by construction
    inside one partition), cycling through zones so the batch exercises
    many shards.
    """
    names = sorted(coordinator.partition_map.names)
    workloads = []
    for i in range(scale.num_queries):
        zone = names[i % len(names)]
        interior = hosting.subnetwork(coordinator.partition_map.nodes_of(zone))
        workloads.append(subgraph_query(interior, scale.query_size,
                                        slack=scale.slack,
                                        rng=random.Random(seed * 1000 + i)))
    return workloads


def run_cluster_arm(coordinator, workloads, scale: ScaleoutScale,
                    hosting) -> Dict:
    """Embed the batch through the two-level search; revalidate vs primary."""
    found = 0
    valid = True
    verdicts: List[str] = []
    pruned = 0
    searched = 0
    cross = 0
    for i, workload in enumerate(workloads):
        result = coordinator.embed(workload.query,
                                   constraint=workload.constraint,
                                   timeout=scale.embed_timeout, seed=i)
        verdicts.append(result.verdict)
        pruned += result.partitions_pruned
        searched += result.partitions_searched
        if result.used_cross_partition:
            cross += 1
        if result.found:
            found += 1
            if validate_mapping(result.first, workload.query, hosting,
                                workload.constraint):
                valid = False
    return {"found": found, "queries": len(workloads), "valid": valid,
            "verdicts": verdicts, "partitions_pruned": pruned,
            "partitions_searched": searched, "cross_partition": cross}


def run_oracle_arm(hosting, workloads, scale: ScaleoutScale) -> Dict:
    """Monolithic ECF over the unpartitioned network (the full scan)."""
    engine = ECF()
    found: List[Optional[bool]] = []
    timeouts = 0
    for workload in workloads:
        result = engine.request(SearchRequest.build(
            workload.query, hosting, constraint=workload.constraint,
            timeout=scale.oracle_timeout, max_results=1))
        if result.timed_out and not result.found:
            found.append(None)        # budget exhausted: no verdict
            timeouts += 1
        else:
            found.append(result.found)
    return {"found": found, "timeouts": timeouts}


def differential_parity(cluster: Dict, oracle: Dict) -> Dict:
    """Feasibility agreement between the two arms, per query.

    A cluster ``"unknown"`` is honest incompleteness, not a disagreement;
    the gate-worthy failure modes are a cluster *feasible* the oracle
    refutes and a cluster *infeasible* the oracle satisfies.
    """
    compared = 0
    mismatches = 0
    for verdict, mono_found in zip(cluster["verdicts"], oracle["found"]):
        if mono_found is None:
            continue                  # oracle timed out: nothing to compare
        compared += 1
        if verdict == "feasible" and not mono_found:
            mismatches += 1
        elif verdict == "infeasible" and mono_found:
            mismatches += 1
    return {
        "compared": compared,
        "mismatches": mismatches,
        "oracle_timeouts": oracle["timeouts"],
        "results_match": mismatches == 0 and compared > 0,
    }


def run_replication_check(hosting, coordinator,
                          scale: ScaleoutScale, seed: int) -> Dict:
    """Churn attributes, refresh by delta, diff every replica vs a rebuild."""
    rand = random.Random(seed + 77)
    edges = hosting.edges()
    touched = 0
    for _ in range(scale.churn_edges):
        u, v = edges[rand.randrange(len(edges))]
        hosting.update_edge(u, v, avgDelay=rand.uniform(5.0, 250.0))
        touched += 1
    report = coordinator.refresh()
    identical = True
    pmap = coordinator.partition_map
    for name, worker in coordinator.workers.items():
        fresh = hosting.subnetwork(pmap.nodes_of(name))
        replica = worker.network
        if sorted(replica.nodes()) != sorted(fresh.nodes()):
            identical = False
            break
        for u, v in fresh.edges():
            if replica.edge_attrs(u, v) != fresh.edge_attrs(u, v):
                identical = False
                break
        if not identical:
            break
    stats = coordinator.stats()["replication"]
    return {"mode": report["mode"], "edges_churned": touched,
            "identical": identical,
            "deltas_applied": stats["deltas_applied"],
            "subjects_applied": stats["subjects_applied"],
            "full_resyncs": stats["full_resyncs"]}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="smoke",
                        help="federation size (default: smoke)")
    parser.add_argument("--seed", type=int, default=3,
                        help="scene RNG seed (default: 3)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"where to write BENCH_scaleout.json "
                             f"(default: {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)

    scale = SCALES[args.scale]
    started = time.strftime("%Y-%m-%dT%H:%M:%S")

    hosting = federated_planetlab(scale.num_zones, scale.sites_per_zone,
                                  rng=random.Random(args.seed))
    print(f"scaleout: scale={args.scale} seed={args.seed} — "
          f"{hosting.num_nodes} sites / {hosting.num_edges} links across "
          f"{scale.num_zones} zones")

    coordinator = ClusterCoordinator(hosting, attribute="zone")
    cstats = coordinator.stats()
    print(f"partitioned into {cstats['partitions']} shards; largest replica "
          f"{cstats['max_partition_nodes']} nodes "
          f"({cstats['max_partition_nodes'] / hosting.num_nodes:.1%} of the "
          f"network), boundary {cstats['boundary_nodes']} nodes, "
          f"quotient {cstats['quotient_edges']} edges")

    workloads = sample_workloads(hosting, coordinator, scale, args.seed)
    cluster = run_cluster_arm(coordinator, workloads, scale, hosting)
    print(f"cluster arm: {cluster['found']}/{cluster['queries']} embedded "
          f"(all valid: {cluster['valid']}); "
          f"{cluster['partitions_pruned']} partitions pruned, "
          f"{cluster['partitions_searched']} searched, "
          f"{cluster['cross_partition']} cross-partition answers")

    oracle = run_oracle_arm(hosting, workloads, scale)
    parity = differential_parity(cluster, oracle)
    print(f"oracle arm (monolithic ECF, full scan): "
          f"{oracle['timeouts']} timeout(s); parity {parity['compared']} "
          f"compared, {parity['mismatches']} mismatch(es)")

    replication = run_replication_check(hosting, coordinator, scale,
                                        args.seed)
    print(f"replication: {replication['edges_churned']} edges churned, "
          f"refresh mode {replication['mode']}, replicas identical to "
          f"rebuild: {replication['identical']}")

    bounded = cstats["max_partition_nodes"] < hosting.num_nodes
    report = {
        "schema_version": SCHEMA_VERSION,
        "workload": {
            "scale": args.scale,
            "seed": args.seed,
            "num_zones": scale.num_zones,
            "sites_per_zone": scale.sites_per_zone,
            "hosting_nodes": hosting.num_nodes,
            "hosting_edges": hosting.num_edges,
            "num_queries": scale.num_queries,
            "query_size": scale.query_size,
            "slack": scale.slack,
            "started": started,
        },
        "environment": environment_info(),
        "embed": {
            "found": cluster["found"],
            "queries": cluster["queries"],
            "valid": cluster["valid"],
            "verdicts": cluster["verdicts"],
            "cross_partition": cluster["cross_partition"],
        },
        "pruning": {
            "partitions_pruned": cluster["partitions_pruned"],
            "partitions_searched": cluster["partitions_searched"],
        },
        "partitions": {
            "count": cstats["partitions"],
            "max_partition_nodes": cstats["max_partition_nodes"],
            "boundary_nodes": cstats["boundary_nodes"],
            "quotient_edges": cstats["quotient_edges"],
            "bounded": bounded,
        },
        "parity": parity,
        "replication": replication,
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
                 "--output", str(tmp_path / "BENCH_scaleout.json")]) == 0


if __name__ == "__main__":
    raise SystemExit(main())

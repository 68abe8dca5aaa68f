"""Command-line interface to the NETEMBED service.

The subcommands cover the common workflows::

    python -m repro embed --hosting host.graphml --query query.graphml \
        --constraint "rEdge.avgDelay <= vEdge.maxDelay" --algorithm ECF

    python -m repro batch --hosting host.graphml --specs batch.json --json

    python -m repro plan --hosting host.graphml --query query.graphml \
        --repeat 3 --tick 1

    python -m repro loadtest --scenario steady --scenario overload \
        --record trace.jsonl --output-dir results/harness

    python -m repro serve --hosting host.graphml --port 7478

    python -m repro list-algorithms

    python -m repro generate planetlab --sites 120 --seed 7 --output pl.graphml

    python -m repro partition --hosting host.graphml --attribute region \
        --query query.graphml --constraint "..."

    python -m repro experiment fig8 --seed 1 --timeout 5 --csv fig8.csv

``embed`` reads both networks from GraphML, runs the requested algorithm and
prints the embeddings (optionally as JSON); ``batch`` feeds a JSON file of
query specs through :meth:`NetEmbedService.submit_batch`; ``plan`` compiles
an :class:`~repro.core.plan.EmbeddingPlan`, runs it repeatedly through the
service's version-aware plan cache and explains the cache state (hits,
misses, per-entry statistics, invalidation after monitor ticks);
``loadtest`` replays recorded arrival traces open-loop against a live
serving tier across a scenario matrix (steady/overload/burst/diurnal/churn)
and reports honest latency percentiles — measured from each request's
*scheduled* offset, ``null`` on an empty sample (see :mod:`repro.harness`);
``serve`` runs the asyncio serving tier — admission control, per-tenant
QoS, deadline-aware shedding, and a ``metrics`` endpoint — over a
registered hosting model (see :mod:`repro.server`);
``list-algorithms`` prints the capability registry; ``generate`` materialises
the synthetic hosting networks used throughout the evaluation; ``partition``
shards a hosting network for the cluster tier (see :mod:`repro.cluster`) and
optionally answers a query through the two-level coarse/fine search;
``experiment``
runs one of the figure drivers from :mod:`repro.analysis` and prints the same
series the paper plots.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Sequence

import repro.baselines  # noqa: F401 — registers the baselines for by-name use
from repro.analysis import EXPERIMENTS, aggregate_series, format_figure, format_table, write_csv
from repro.api import Capability, SearchRequest, default_registry
from repro.constraints import ConstraintError, ConstraintExpression
from repro.graphs import GraphError, HostingNetwork, QueryNetwork, read_graphml, write_graphml
from repro.topology import barabasi_albert, synthetic_planetlab_trace, transit_stub

#: What a malformed file, path or expression raises; :func:`main` reports
#: these as ``error: <message>`` with exit code 2 instead of a traceback.
_INPUT_ERRORS = (OSError, ValueError, GraphError, ConstraintError)

#: The search budget, in seconds, of every ``embed``/``plan``/``partition`` run.
_SEARCH_TIMEOUT = 30.0


@contextmanager
def _input_error(prefix: str, *also: type) -> Iterator[None]:
    """Re-raise an input error (or a ``TypeError`` from a malformed field, or
    one of *also*) inside the block as a ``ValueError`` led by *prefix*."""
    try:
        yield
    except (*_INPUT_ERRORS, TypeError, *also) as exc:
        raise ValueError(f"{prefix}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and documentation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NETEMBED: map virtual network requests onto a hosting network.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    # The flags ``embed`` and ``plan`` share: one query against one hosting file.
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--hosting", required=True, type=Path,
                        help="GraphML file describing the hosting (real) network")
    search.add_argument("--query", required=True, type=Path,
                        help="GraphML file describing the query (virtual) network")
    search.add_argument("--constraint", default=None,
                        help="edge constraint expression (NETEMBED constraint language)")
    search.add_argument("--algorithm", default="ECF", choices=default_registry().names(),
                        help="which registered algorithm to run (default: ECF)")
    search.add_argument("--max-results", type=int, default=None,
                        help="stop after this many embeddings (default: all)")
    search.add_argument("--seed", type=int, default=None,
                        help="random seed for seedable algorithms (and, for "
                             "plan, the monitor)")
    search.add_argument("--json", action="store_true",
                        help="print the result as JSON instead of plain text")

    embed = subparsers.add_parser(
        "embed", parents=[search],
        help="embed a GraphML query network into a GraphML hosting network")
    embed.add_argument("--parallelism", type=int, default=None,
                       help="shard the search across this many worker "
                            "processes (same mapping stream as serial; "
                            "default: serial)")
    embed.set_defaults(run=_run_embed)

    batch = subparsers.add_parser(
        "batch", help="run a JSON file of query specs through the batch service")
    batch.add_argument("--hosting", required=True, type=Path,
                       help="GraphML file registered as the batch's hosting network")
    batch.add_argument("--specs", required=True, type=Path,
                       help="JSON file: a list of spec objects with a 'query' "
                            "GraphML path and optional constraint/"
                            "node_constraint/algorithm/timeout/max_results/"
                            "seed/parallelism fields")
    batch.add_argument("--json", action="store_true",
                       help="print the responses as JSON instead of plain text")
    batch.set_defaults(run=_run_batch)

    subparsers.add_parser(
        "list-algorithms", help="list the registered algorithms and their capabilities"
    ).set_defaults(run=_run_list_algorithms)

    plan = subparsers.add_parser(
        "plan", parents=[search],
        help="compile an embedding plan, exercise the plan cache and explain its state")
    plan.add_argument("--repeat", type=int, default=3,
                      help="how many times to run the query against the "
                           "cache (default: 3; first run compiles, the rest hit)")
    plan.add_argument("--tick", type=int, default=0,
                      help="monitor refreshes applied after the repeats, "
                           "followed by one more run, to demonstrate "
                           "version-based invalidation (default: 0)")
    plan.set_defaults(run=_run_plan)

    loadtest = subparsers.add_parser(
        "loadtest", help="replay trace-driven load scenarios against a live "
                         "serving tier and report honest latency/shed numbers")
    loadtest.add_argument("--scenario", action="append", default=None,
                          metavar="NAME|CONFIG.json",
                          help="named scenario or JSON config file "
                               "(repeatable; default: the core matrix "
                               "steady, overload, burst, diurnal)")
    loadtest.add_argument("--seed", type=int, default=9,
                          help="scene + trace RNG seed (default: 9)")
    loadtest.add_argument("--record", type=Path, default=None,
                          help="write the scenario's trace to this JSONL "
                               "artifact (requires exactly one scenario)")
    loadtest.add_argument("--replay", type=Path, default=None,
                          help="replay this recorded JSONL trace instead of "
                               "regenerating one (requires exactly one "
                               "scenario; the scene is verified against the "
                               "trace's workload fingerprints)")
    loadtest.add_argument("--output-dir", type=Path,
                          default=Path("benchmarks") / "results" / "harness",
                          help="where per-scenario requests.csv/summary.json "
                               "and the combined loadtest.json are written "
                               "(default: benchmarks/results/harness)")
    loadtest.add_argument("--list", action="store_true",
                          help="list the named scenarios and exit")
    loadtest.set_defaults(run=_run_loadtest)

    serve = subparsers.add_parser(
        "serve", help="run the asyncio serving tier over a hosting network")
    serve.add_argument("--hosting", required=True, type=Path,
                       help="GraphML file registered as the served hosting "
                            "network (the server's default model)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (default: 0 = pick a free port; the "
                            "chosen port is announced on stdout)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent engine executions (default: 2)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="admission queue bound; arrivals beyond it are "
                            "shed (default: 64)")
    serve.add_argument("--qos", type=Path, default=None,
                       help="JSON file of tenant QoS policies: "
                            '{"default": {...}, "tenants": {name: {...}}} '
                            "with rate/burst/max_queued/max_inflight/"
                            "max_plans fields")
    serve.add_argument("--duration", type=float, default=None,
                       help="serve for this many seconds then exit "
                            "(default: run until interrupted)")
    serve.add_argument("--wal", type=Path, default=None,
                       help="journal reservations to this write-ahead log; "
                            "an existing log is replayed on startup so the "
                            "server resumes with its pre-crash reservations")
    serve.add_argument("--fault-plan", type=Path, default=None,
                       help="JSON fault plan installed for the server's "
                            "lifetime (deterministic fault injection; see "
                            "repro.faults.FaultPlan)")
    serve.add_argument("--partitions", type=int, default=None,
                       help="serve through the partitioned cluster tier "
                            "with this many balanced partitions "
                            "(see repro.cluster)")
    serve.add_argument("--partition-attribute", default=None,
                       help="serve through the cluster tier, partitioning "
                            "by this categorical node attribute "
                            "(overrides --partitions)")
    serve.add_argument("--json", action="store_true",
                       help="print the final stats snapshot as JSON on exit")
    serve.set_defaults(run=_run_serve)

    recover = subparsers.add_parser(
        "recover", help="replay a reservation write-ahead log and report "
                        "the recovered state")
    recover.add_argument("--wal", required=True, type=Path,
                         help="write-ahead log to replay")
    recover.add_argument("--hosting", required=True, type=Path,
                         help="GraphML hosting network the reservations "
                              "were granted against")
    recover.add_argument("--compact", action="store_true",
                         help="after replay, rewrite the log keeping only "
                              "records for still-active reservations")
    recover.add_argument("--json", action="store_true",
                         help="print the recovery report as JSON")
    recover.set_defaults(run=_run_recover)

    generate = subparsers.add_parser(
        "generate", help="generate a synthetic hosting network as GraphML")
    generate.add_argument("kind", choices=["planetlab", "brite", "transit-stub"],
                          help="which topology family to generate")
    generate.add_argument("--sites", type=int, default=296,
                          help="number of nodes/sites (default: 296)")
    generate.add_argument("--seed", type=int, default=None, help="random seed")
    generate.add_argument("--output", type=Path, required=True,
                          help="output GraphML path")
    generate.set_defaults(run=_run_generate)

    partition = subparsers.add_parser(
        "partition", help="shard a hosting network for the cluster tier and "
                          "optionally answer a query through the two-level "
                          "search")
    partition.add_argument("--hosting", required=True, type=Path,
                           help="GraphML file describing the hosting network")
    partition.add_argument("--partitions", type=int, default=None,
                           help="balanced-connected partition count "
                                "(default: 8 unless --attribute is given)")
    partition.add_argument("--attribute", default=None,
                           help="partition by this categorical node attribute "
                                "(e.g. 'region' or 'zone') instead of "
                                "balanced slicing")
    partition.add_argument("--query", type=Path, default=None,
                           help="optional GraphML query to embed (first "
                                "match, ECF per partition) through the "
                                "cluster coordinator")
    partition.add_argument("--constraint", default=None,
                           help="edge constraint expression")
    partition.add_argument("--seed", type=int, default=None,
                           help="seed for the per-partition searches")
    partition.add_argument("--json", action="store_true",
                           help="print the partition/search report as JSON")
    partition.set_defaults(run=_run_partition)

    experiment = subparsers.add_parser(
        "experiment", help="run one of the paper's evaluation experiments")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS),
                            help="experiment id (figure number or ablation name)")
    experiment.add_argument("--seed", type=int, default=0, help="random seed")
    experiment.add_argument("--timeout", type=float, default=5.0,
                            help="per-query timeout in seconds (default: 5)")
    experiment.add_argument("--paper-scale", action="store_true",
                            help="use the paper's instance sizes instead of the "
                                 "scaled-down benchmark sizes (slow)")
    experiment.add_argument("--csv", type=Path, default=None,
                            help="also write the raw per-query rows to this CSV file")
    experiment.set_defaults(run=_run_experiment)

    return parser


# --------------------------------------------------------------------------- #
# Subcommand implementations
# --------------------------------------------------------------------------- #

def _run_embed(args: argparse.Namespace) -> int:
    hosting = read_graphml(args.hosting, cls=HostingNetwork)
    query = read_graphml(args.query, cls=QueryNetwork)
    info = default_registry().get(args.algorithm)
    kwargs = {}
    if args.seed is not None and info.has(Capability.SEEDABLE):
        kwargs["rng"] = args.seed
    algorithm = info.create(**kwargs)
    constraint = ConstraintExpression(args.constraint) if args.constraint else None

    result = algorithm.request(SearchRequest.build(
        query, hosting, constraint=constraint, timeout=_SEARCH_TIMEOUT,
        max_results=args.max_results, parallelism=args.parallelism))

    if args.json:
        print(json.dumps(_result_payload(result), indent=2))
    else:
        print(f"{result.algorithm}: {result.status.value}, {result.count} embedding(s) "
              f"in {result.elapsed_seconds * 1000:.1f} ms")
        for index, mapping in enumerate(result.mappings):
            rendered = ", ".join(f"{q}->{r}" for q, r in sorted(mapping.items(), key=str))
            print(f"  [{index}] {rendered}")
    return 0 if result.found or result.status.value == "complete" else 1


def _result_payload(result) -> dict:
    return {
        "algorithm": result.algorithm,
        "status": result.status.value,
        "elapsed_seconds": result.elapsed_seconds,
        "time_to_first_seconds": result.time_to_first_seconds,
        "mappings": [{str(q): str(r) for q, r in m.items()} for m in result.mappings],
    }


def _run_batch(args: argparse.Namespace) -> int:
    from repro.service import NetEmbedService, QuerySpec

    raw = json.loads(args.specs.read_text())
    if not isinstance(raw, list):
        raise ValueError("the specs file must contain a JSON list of spec objects")

    with NetEmbedService() as service:
        service.register_network_from_graphml(args.hosting)
        specs = []
        for index, entry in enumerate(raw):
            if not isinstance(entry, dict) or "query" not in entry:
                raise ValueError(f"spec #{index} must be an object with a 'query' path")
            with _input_error(f"spec #{index}"):
                specs.append(QuerySpec(
                    query=read_graphml(args.specs.parent / entry["query"],
                                       cls=QueryNetwork),
                    constraint=entry.get("constraint"),
                    node_constraint=entry.get("node_constraint"),
                    algorithm=entry.get("algorithm", "auto"),
                    timeout=entry.get("timeout"),
                    max_results=entry.get("max_results"),
                    seed=entry.get("seed"),
                    parallelism=entry.get("parallelism"),
                ))
        responses = service.submit_batch(specs)

    if args.json:
        payload = [{
            "index": index,
            "query": response.spec.query.name,
            "network": response.network_name,
            "algorithm": response.algorithm_used,
            **_result_payload(response.result),
        } for index, response in enumerate(responses)]
        print(json.dumps(payload, indent=2))
    else:
        for index, response in enumerate(responses):
            result = response.result
            print(f"[{index}] {response.spec.query.name}: {response.algorithm_used} "
                  f"{result.status.value}, {result.count} embedding(s) in "
                  f"{result.elapsed_seconds * 1000:.1f} ms")
    return 0 if all(r.found or r.status.value == "complete" for r in responses) else 1


def _run_plan(args: argparse.Namespace) -> int:
    """Warm the plan cache with repeated runs and explain the resulting state."""
    from repro.service import NetEmbedService, QuerySpec

    if args.repeat < 1:
        raise ValueError("--repeat must be >= 1")

    query = read_graphml(args.query, cls=QueryNetwork)
    service = NetEmbedService()
    network_name = service.register_network_from_graphml(args.hosting)

    spec = QuerySpec(query=query, constraint=args.constraint,
                     algorithm=args.algorithm, timeout=_SEARCH_TIMEOUT,
                     max_results=args.max_results, seed=args.seed)

    def cache_label(before, after):
        # "bypass" = the cache was never consulted (non-preparable algorithm).
        if after["hits"] > before["hits"]:
            return "hit"
        if after["misses"] > before["misses"]:
            return "miss"
        return "bypass"

    runs = []
    for _ in range(args.repeat):
        before = service.plans.stats()
        response = service.submit(spec)
        after = service.plans.stats()
        runs.append({
            "cache": cache_label(before, after),
            "status": response.status.value,
            "mappings": len(response.mappings),
            "elapsed_ms": response.elapsed_seconds * 1000,
        })

    invalidation = None
    if args.tick > 0:
        monitor = service.attach_monitor(network_name, rng=args.seed)
        version = monitor.run(args.tick)
        before = service.plans.stats()
        response = service.submit(spec)
        after = service.plans.stats()
        invalidation = {
            "ticks": args.tick,
            "model_version": version,
            "cache": cache_label(before, after),
            "mappings": len(response.mappings),
        }

    service_stats = service.stats()
    stats = service_stats["plan_cache"]
    entries = [{
        "network": entry.key[0],
        "model_version": entry.key[1],
        "signature": list(entry.key[2]),
        "fingerprint": entry.key[3],
        "hits": entry.hits,
        **entry.plan.describe(),
    } for entry in service.plans.entries()]

    if args.json:
        # "service" is the same snapshot the serving tier's metrics endpoint returns.
        print(json.dumps({"service": service_stats,
                          "entries": entries, "runs": runs,
                          "invalidation": invalidation}, indent=2))
        return 0

    print(f"plan cache: {stats['size']}/{stats['capacity']} entries, "
          f"{stats['hits']} hits / {stats['misses']} misses "
          f"({stats['evictions']} evictions, "
          f"{stats['invalidations']} stale invalidations)")
    for index, entry in enumerate(entries):
        print(f"  [{index}] {entry['algorithm']} on {entry['network']!r} "
              f"v{entry['model_version']} fingerprint={entry['fingerprint']}")
        print(f"      hits={entry['hits']} executions={entry['executions']} "
              f"filter_cells={entry['filter_cells']} "
              f"filter_entries={entry['filter_entries']} "
              f"prepare={entry['prepare_seconds'] * 1000:.1f}ms "
              f"stale={'yes' if entry['stale'] else 'no'}")
    for index, run in enumerate(runs):
        print(f"  run {index}: cache {run['cache']:<6} {run['status']}, "
              f"{run['mappings']} mapping(s) in {run['elapsed_ms']:.1f} ms")
    if invalidation is not None:
        label = invalidation["cache"]
        if label == "miss":
            label = "miss (plan invalidated)"
        print(f"  after {invalidation['ticks']} monitor tick(s) -> model "
              f"v{invalidation['model_version']}: cache {label}, "
              f"{invalidation['mappings']} mapping(s)")
    return 0


def _run_loadtest(args: argparse.Namespace) -> int:
    """Replay trace-driven scenarios against a live server and report."""
    from repro.analysis import environment_info
    from repro.harness import (
        DEFAULT_MATRIX,
        SCENARIOS,
        load_scenario,
        run_scenario,
        scenario_summary,
        write_scenario_artifacts,
    )
    from repro.workloads import read_trace, write_trace

    if args.list:
        for name in sorted(SCENARIOS):
            config = SCENARIOS[name]
            print(f"{name}: {config.arrival} arrivals, "
                  f"horizon {config.horizon:g}s")
        return 0

    sources = list(args.scenario) if args.scenario else list(DEFAULT_MATRIX)
    if (args.record or args.replay) and len(sources) != 1:
        raise ValueError("--record/--replay require exactly one --scenario")
    configs = [load_scenario(source) for source in sources]

    replay_trace = None
    if args.replay is not None:
        with _input_error(f"cannot read trace {args.replay}"):
            replay_trace = read_trace(args.replay)

    summaries = {}
    exit_code = 0
    for config in configs:
        with _input_error(f"scenario {config.name!r}"):
            run = run_scenario(config, seed=args.seed, trace=replay_trace)
        if args.record is not None:
            write_trace(run.trace, args.record)
            print(f"recorded {len(run.trace.arrivals)} arrival(s) / "
                  f"{len(run.trace.departures)} departure(s) to {args.record}")
        write_scenario_artifacts(run, args.output_dir)
        summary = scenario_summary(run)
        summaries[config.name] = summary

        latency = summary["latency"]
        outcomes = summary["outcomes"]
        slip = summary["schedule_slip"]
        healthy = (summary["accounting"]["consistent"]
                   and outcomes["errors"] == 0
                   and summary["server"]["protocol_errors"] == 0
                   and summary["reservations"]["release_failures"] == 0)
        if not healthy:
            exit_code = 1

        def _ms(value):
            return "n/a" if value is None else f"{value * 1000:.1f}ms"

        print(f"{config.name}: {outcomes['offered']} offered -> "
              f"{outcomes['served']} served / {outcomes['shed']} shed / "
              f"{outcomes['errors']} error(s); "
              f"p50 {_ms(latency['p50_seconds'])} "
              f"p99 {_ms(latency['p99_seconds'])}, "
              f"slip max {_ms(slip['max_seconds'])}; "
              f"accounting {'ok' if summary['accounting']['consistent'] else 'INCONSISTENT'}")

    combined = {
        "schema_version": 1,
        "seed": args.seed,
        "scenarios": summaries,
        "environment": environment_info(),
    }
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    combined_path = output_dir / "loadtest.json"
    combined_path.write_text(
        json.dumps(combined, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote per-scenario artifacts and {combined_path}")
    return exit_code


def _run_serve(args: argparse.Namespace) -> int:
    """Run the asyncio serving tier until interrupted (or for --duration)."""
    import asyncio

    from repro.server import (
        AdmissionConfig,
        EmbeddingServer,
        ServerConfig,
        ServiceRegistry,
        TenantPolicy,
    )

    admission_kwargs = {"max_queue_depth": args.queue_depth}
    if args.qos is not None:
        with _input_error(f"cannot load QoS policies from {args.qos}"):
            qos = json.loads(args.qos.read_text())
            if "default" in qos:
                admission_kwargs["default_policy"] = TenantPolicy(**qos["default"])
            admission_kwargs["tenants"] = {
                name: TenantPolicy(**policy)
                for name, policy in qos.get("tenants", {}).items()}
    config = ServerConfig(engine_workers=args.workers,
                          admission=AdmissionConfig(**admission_kwargs))
    service = None
    if args.partitions is not None or args.partition_attribute is not None:
        from repro.cluster import ClusterService
        service = ClusterService(
            default_timeout=config.default_timeout,
            plan_cache_size=config.plan_cache_size,
            num_partitions=args.partitions if args.partitions else 8,
            attribute=args.partition_attribute)
    registry = ServiceRegistry(config, service=service)
    name = registry.service.register_network_from_graphml(args.hosting,
                                                          default=True)
    hosting = registry.models.get(name)

    if args.wal is not None:
        from repro.service.wal import WALError
        with _input_error(f"cannot recover WAL {args.wal}", WALError):
            report = registry.service.attach_wal(args.wal)
        print(f"wal: replayed {report['records']} record(s) from "
              f"{args.wal} ({report['active']} active reservation(s), "
              f"{report['skipped']} torn line(s) skipped)", flush=True)

    fault_plan = None
    if args.fault_plan is not None:
        from repro import faults
        with _input_error(f"cannot load fault plan from {args.fault_plan}"):
            fault_plan = faults.FaultPlan.from_json(args.fault_plan)

    async def run() -> dict:
        server = EmbeddingServer(registry, host=args.host, port=args.port)
        await server.start()
        print(f"serving {name!r} ({hosting.num_nodes} nodes, "
              f"{hosting.num_edges} links) on {server.host}:{server.port}",
              flush=True)
        try:
            if args.duration is not None:
                await asyncio.sleep(args.duration)
            else:
                await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()
        return server.stats()

    try:
        if fault_plan is not None:
            from repro import faults
            with faults.injecting(fault_plan):
                stats = asyncio.run(run())
                fault_stats = faults.active()
                fired = fault_stats.stats() if fault_stats else None
            if fired is not None:
                print(f"faults: fired {fired['total_fired']} "
                      f"({json.dumps(fired['fired_counts'])})", flush=True)
        else:
            stats = asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
        return 0
    if args.json:
        print(json.dumps(stats, indent=2))
    else:
        admission = stats["admission"]
        cache = stats["service"]["plan_cache"]
        print(f"served {admission['completed']} request(s), "
              f"shed {admission['shed_total']} "
              f"({json.dumps(admission['shed'])}), "
              f"plan cache {cache['hits']} hit(s) / {cache['misses']} miss(es)")
    return 0


def _run_recover(args: argparse.Namespace) -> int:
    """Replay a reservation WAL against a hosting network and report."""
    from repro.service import NetEmbedService
    from repro.service.wal import WALError

    service = NetEmbedService()
    name = service.register_network_from_graphml(args.hosting, default=True)
    with _input_error(f"cannot recover WAL {args.wal}", WALError):
        report = service.attach_wal(args.wal)
    report["network"] = name
    report["reservations"] = service.reservations.snapshot()
    if args.compact:
        report["compacted_records"] = service.reservations.compact_wal()
    service.shutdown()
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    applied = report["applied"]
    print(f"replayed {report['records']} record(s) from {args.wal}: "
          f"{applied['reserve']} reserve / {applied['rebind']} rebind / "
          f"{applied['release']} release, {report['active']} active "
          f"reservation(s), {report['skipped']} torn line(s) skipped")
    for entry in report["reservations"]:
        print(f"  {entry['id']}: {len(entry['mapping'])} node(s) on "
              f"{entry['network']} ({entry['rebinds']} rebind(s))")
    if args.compact:
        print(f"compacted log to {report['compacted_records']} record(s)")
    return 0


def _run_list_algorithms(args: argparse.Namespace) -> int:
    infos = default_registry().infos()
    width = max(len(info.name) for info in infos)
    for info in infos:
        caps = ", ".join(sorted(c.value for c in info.capabilities))
        print(f"{info.name:<{width}}  {info.summary}")
        print(f"{'':<{width}}  capabilities: {caps or '(none declared)'}")
    return 0


def _run_generate(args: argparse.Namespace) -> int:
    if args.kind == "planetlab":
        network = synthetic_planetlab_trace(num_sites=args.sites, rng=args.seed)
    elif args.kind == "brite":
        network = barabasi_albert(args.sites, edges_per_node=2, rng=args.seed)
    else:
        network = transit_stub(rng=args.seed)
    write_graphml(network, args.output)
    print(f"wrote {network.num_nodes} nodes / {network.num_edges} edges to {args.output}")
    return 0


def _run_partition(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterCoordinator

    hosting = read_graphml(args.hosting, cls=HostingNetwork)
    coordinator = ClusterCoordinator(hosting, attribute=args.attribute,
                                     num_partitions=args.partitions)
    stats = coordinator.stats()
    report = {"partition": stats}

    if args.query is not None:
        query = read_graphml(args.query, cls=QueryNetwork)
        result = coordinator.embed(query, constraint=args.constraint,
                                   timeout=_SEARCH_TIMEOUT, seed=args.seed)
        report["search"] = {
            "verdict": result.verdict,
            "found": result.found,
            "partition": result.partition,
            "used_cross_partition": result.used_cross_partition,
            "fragment_assignment": result.fragment_assignment,
            "partitions_pruned": result.partitions_pruned,
            "partitions_searched": result.partitions_searched,
            "coarse_placements_tried": result.coarse_placements_tried,
            "stitch_checks": result.stitch_checks,
            "elapsed_seconds": result.elapsed_seconds,
            "mappings": [{str(q): str(r) for q, r in m.items()}
                         for m in result.mappings],
        }

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"{hosting.name}: {stats['partitions']} partitions over "
              f"{stats['primary_nodes']} nodes "
              f"(largest {stats['max_partition_nodes']} nodes, "
              f"boundary {stats['boundary_edges']} edges, "
              f"quotient {stats['quotient_edges']} super-edges)")
        for name, size in sorted(stats["partition_nodes"].items()):
            print(f"  {name}: {size} nodes")
        if args.query is not None:
            search = report["search"]
            where = (" + ".join(sorted(set(search["fragment_assignment"].values())))
                     if search["fragment_assignment"] else search["partition"])
            print(f"search: {search['verdict']} via {where or 'n/a'} "
                  f"({'cross-partition' if search['used_cross_partition'] else 'single partition'}, "
                  f"{search['partitions_pruned']} pruned, "
                  f"{search['elapsed_seconds'] * 1000:.1f} ms)")
            for index, mapping in enumerate(search["mappings"]):
                rendered = ", ".join(f"{q}->{r}"
                                     for q, r in sorted(mapping.items()))
                print(f"  [{index}] {rendered}")
    if args.query is None:
        return 0
    return 0 if report["search"]["verdict"] != "infeasible" else 1


def _run_experiment(args: argparse.Namespace) -> int:
    driver = EXPERIMENTS[args.name]
    rows = driver(seed=args.seed, scaled=not args.paper_scale, timeout=args.timeout)
    if args.csv is not None:
        write_csv(rows, args.csv)
        print(f"raw rows written to {args.csv}")
    value_field = "total_ms"
    series = aggregate_series(rows, value_field=value_field)
    if series:
        print(format_figure(series, title=f"experiment {args.name}",
                            value_field="mean"))
    else:
        print(format_table(rows, title=f"experiment {args.name} (raw rows)"))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())

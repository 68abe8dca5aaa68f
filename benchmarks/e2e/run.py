#!/usr/bin/env python3
"""The end-to-end benchmark: four workloads, five metrics each, one command.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1 | --traced]

Without ``--workload`` every workload runs, each in a fresh child process.
A run is one discarded warm-up round plus timed rounds of identical work;
it prints every metric by name with its unit, a ``diagnostics`` line, and
as its last line the result object the driver reads.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from calibrate import NOMINAL_SECONDS, probe, slowdowns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

WORKLOAD_NAMES = ("cold_embed", "warm_enum", "serve_wire", "churn_refresh")
SETUP_REPEATS = 5
MIN_ROUNDS = 3
#: A round this much slower than the run's fastest is set aside.
SLOW_ROUND = 1.10
#: Exit code of a run whose rounds were mostly disturbed: a failed
#: measurement, never a data point.
EXIT_DISTURBED = 3

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "server.protocol.decode_s": "s",
    "server.protocol.encode_s": "s",
    "server.protocol.bytes_in": "bytes",
    "server.protocol.bytes_out": "bytes",
    "server.admission.admit_s": "s",
    "server.admission.queue_wait_s": "s",
    "server.admission.shed_count": "count",
    "server.app.lower_s": "s",
    "server.app.roundtrip_overhead_s": "s",
    "core.plan.cache_lookup_s": "s",
    "core.plan.cache_hit_ratio": "ratio",
    "core.plan.evictions": "count",
    "core.plan.patched_ratio": "ratio",
    "core.filters.compile_hosting_s": "s",
    "core.filters.build_s": "s",
    "core.filters.constraint_evaluations": "count",
    "core.filters.entries": "count",
    "core.filters.patch_s": "s",
    "core.filters.patch_hosting_s": "s",
    "core.ordering.order_s": "s",
    "core.kernel.search_s": "s",
    "core.kernel.nodes_expanded": "count",
    "core.kernel.nodes_per_s": "1/s",
    "core.kernel.mappings_found": "count",
    "core.rwb.search_s": "s",
    "core.lns.search_s": "s",
    "graphs.journal.entries_per_tick": "count",
    "workloads.churn.tick_s": "s",
    "service.reservation.reserve_s": "s",
    "service.reservation.release_s": "s",
    "service.wal.append_s": "s",
    "service.wal.bytes_per_op": "bytes",
    "setup.import_s": "s",
    "setup.scene_build_s": "s",
    "setup.server_ready_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}


class Disturbed(RuntimeError):
    """Most rounds lost the processor to something else."""


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile (ceil), as ``repro.analysis.stats`` pins it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def measure(workload, rounds: int, run_round, child: bool = False,
            tracer=None) -> List[dict]:
    """Run *rounds* undisturbed rounds (replacing up to as many disturbed
    ones); raises :class:`Disturbed` when the median round was disturbed.

    A round is disturbed when it lost the processor (wall time well above
    CPU time) or when the machine ran it more than ``SLOW_ROUND`` slower
    than the run's fastest round, by the calibration probe.  With *child*
    the rounds keep a child process busy, not this one.  Each record
    carries the round's durations scaled to nominal seconds.
    """
    cpu_clock = workload.child_cpu if child else time.process_time
    records: List[dict] = []
    while (sum(r.get("clean", False) for r in records) < rounds
           and len(records) < 2 * rounds):
        gc.collect()    # every round starts from the same heap
        first_span = len(tracer.spans) if tracer else 0
        cpu_before = cpu_clock()
        started = time.perf_counter()
        round_ = run_round()
        wall = time.perf_counter() - started
        cpu = cpu_clock() - cpu_before
        if child:
            wall = round_.busy      # the child idles while answers are checked
        ratio = wall / cpu if cpu > 0 else math.inf
        factors = slowdowns(round_.probes)
        records.append({
            "round": round_, "wall_over_cpu": ratio,
            "slowdown": statistics.median(factors),
            "latencies": [t / factors[stretch] for t, stretch
                          in zip(round_.latencies, round_.where)],
            "stretches": [t / factor for t, factor
                          in zip(round_.stretches, factors)],
            "spans": (first_span, len(tracer.spans) if tracer else 0),
        })
        fastest = min(r["slowdown"] for r in records)
        for record in records:
            record["clean"] = (
                record["wall_over_cpu"] <= workload.disturbed_above
                and record["slowdown"] <= SLOW_ROUND * fastest)
    typical = statistics.median(r["wall_over_cpu"] for r in records)
    if typical > workload.disturbed_above:
        raise Disturbed(f"median wall/cpu over {len(records)} rounds is "
                        f"{typical:.3f} (limit {workload.disturbed_above})")
    if not any(r["clean"] for r in records):
        raise Disturbed(f"none of {len(records)} rounds was undisturbed")
    return records


def faster_half(repeats) -> float:
    """The mean of the faster half of repeated timings of one thing.

    What is left after scaling by the calibration probe is the probe's own
    two-sided noise and one-sided hits (a descheduling burst, a collection,
    contention the probe under-reads); the faster half drops the hits and
    the mean evens out the noise.
    """
    ordered = sorted(repeats)
    return statistics.fmean(ordered[:(len(ordered) + 1) // 2])


def settled(samples: List[List[float]]) -> List[float]:
    """Per position, the faster-half mean over the rounds: rounds are
    identical work, so position *i* of every round timed the same thing."""
    return [faster_half(repeats) for repeats in zip(*samples)]


def same_counts(records: List[dict]) -> bool:
    return all(r["round"].counts == records[0]["round"].counts
               for r in records)


def set_up(library, workload, args) -> Dict[str, List[float]]:
    """Draw the inputs, then set up ``SETUP_REPEATS`` times and keep the
    last; returns the set-up durations, measured and in nominal seconds."""
    scratch_scene = library.build_scene(args.seed, args.sites)
    gc.freeze()     # keeps the sweeps while drawing inputs cheap
    workload.generate(scratch_scene)
    del scratch_scene
    gc.unfreeze()

    def boundary_probe() -> float:
        return statistics.median(probe() for _ in range(3))

    measured, scene, probes = [], [], [boundary_probe()]
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        hosting = library.build_scene(args.seed, args.sites)
        scene.append(time.perf_counter() - started)
        workload.set_up(hosting)
        measured.append(time.perf_counter() - started)
        probes.append(boundary_probe())
        gc.collect()    # the replaced scene, not timed
    factors = [(before + after) / 2 / NOMINAL_SECONDS
               for before, after in zip(probes, probes[1:])]

    def scaled(durations):
        return [t / factor for t, factor in zip(durations, factors)]

    return {"setup": scaled(measured), "scene": scaled(scene),
            "compile": scaled(workload.compile_seconds),
            "measured": measured, "probes": probes}


def run_workload(args) -> int:
    import_started = time.perf_counter()
    import workloads as library
    from tracing import Tracer
    import_seconds = time.perf_counter() - import_started

    OUT.mkdir(exist_ok=True)
    load_before = os.getloadavg()
    workload = library.WORKLOADS[args.workload](args.seed, args.sites, OUT)
    try:
        setup = set_up(library, workload, args)
        workload.start()
        gc.collect()
        gc.freeze()

        started = time.perf_counter()
        warm_up = workload.run_round(strict=True)
        warm_up_wall = time.perf_counter() - started
        rounds = args.rounds or max(
            MIN_ROUNDS, round(args.seconds / max(warm_up_wall, 1e-3)))
        if args.trace:
            rounds = max(2, rounds // 3)
        records = measure(workload, rounds,
                          lambda: workload.run_round(strict=False),
                          child=workload.out_of_process)
        kept = [r for r in records if r["clean"]]
        latencies = settled([r["latencies"] for r in kept])
        attempted = len(warm_up.latencies) + sum(
            len(r["latencies"]) for r in kept)
        failed = warm_up.failed + sum(r["round"].failed for r in kept)
        correct = failed == 0 and same_counts(records)

        traced: List[dict] = []
        if not args.trace:
            metrics = {
                "latency_p50_ms": statistics.median(latencies) * 1e3,
                "latency_p95_ms": percentile(latencies, 0.95) * 1e3,
                "throughput_per_s": len(latencies) / sum(
                    settled([r["stretches"] for r in kept])),
                "setup_s": faster_half(setup["setup"]),
            }
        else:
            tracer = Tracer()
            workload.start_tracing(tracer)
            workload.run_traced_round()
            traced = measure(workload, rounds, workload.run_traced_round,
                             tracer=tracer)
            traced_kept = [r for r in traced if r["clean"]]
            attempted += sum(len(r["latencies"]) for r in traced_kept)
            failed += sum(r["round"].failed for r in traced_kept)
            correct = failed == 0 and correct and same_counts(traced)
            metrics = per_layer_metrics(workload, tracer, traced, kept)
            metrics.update({
                "core.filters.compile_hosting_s": statistics.median(
                    setup["compile"]),
                "setup.import_s": import_seconds,
                "setup.scene_build_s": statistics.median(setup["scene"]),
            })
            tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.json")
        invariant = workload.close()
        if invariant and not (
                invariant["offered"]
                == invariant["admitted"] + invariant["shed"]
                == invariant["answered"] and invariant["shed"] == 0):
            correct = False
        if not args.trace:
            # Read last: the server child's peak is known once it is reaped.
            metrics["peak_rss_mb"] = workload.peak_rss_kb() / 1024
    except Disturbed as exc:
        print(f"disturbed: {args.workload} seed {args.seed}: {exc}; "
              f"this run is a failed measurement, not a result",
              file=sys.stderr)
        return EXIT_DISTURBED
    finally:
        workload.close()

    units = PER_LAYER if args.trace else END_TO_END
    print(f"workload {args.workload}  seed {args.seed}  sites {args.sites}  "
          f"rounds {len(kept)} kept of {len(records)}  ops {attempted}  "
          f"failed {failed}")
    for name, unit in units.items():
        print(f"  {name:<40} {metrics[name]:>16.6f} {unit}")
    diagnostics = {
        "workload": args.workload, "seed": args.seed, "sites": args.sites,
        "trace": args.trace, "rounds_kept": len(kept),
        "wall_over_cpu": [round(r["wall_over_cpu"], 4) for r in records],
        "wall_over_cpu_median": statistics.median(
            r["wall_over_cpu"] for r in records),
        "wall_over_cpu_max": max(r["wall_over_cpu"] for r in records),
        "slowdown": [round(r["slowdown"], 4) for r in records + traced],
        "round_throughput_per_s": [
            round(len(r["latencies"]) / sum(r["stretches"]), 4)
            for r in records],
        "round_throughput_measured_per_s": [
            round(len(r["latencies"]) / r["round"].busy, 4) for r in records],
        "round_counts": records[0]["round"].counts,
        "counts_repeat": same_counts(records) and same_counts(traced or records),
        "setup_seconds": [round(t, 4) for t in setup["setup"]],
        "setup_seconds_measured": [round(t, 4) for t in setup["measured"]],
        "import_seconds": import_seconds,
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "server_invariant": invariant or None,
        "fingerprint": fingerprint(),
    }
    print("diagnostics " + json.dumps(diagnostics))
    diagnostics["measured"] = [
        {"latencies": r["round"].latencies, "where": r["round"].where,
         "stretches": r["round"].stretches, "probes": r["round"].probes}
        for r in records]
    diagnostics["setup_probes"] = setup["probes"]
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(diagnostics))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


def per_layer_metrics(workload, tracer, traced, untraced) -> Dict[str, float]:
    """Per-op self times and per-round counts of the traced rounds, held
    against the untraced rounds' mean busy time and latency."""
    ops = sum(len(r["latencies"]) for r in traced)
    untraced_busy = statistics.fmean(sum(r["stretches"]) for r in untraced)
    untraced_latency = statistics.fmean(
        t for r in untraced for t in r["latencies"])
    self_times: Dict[str, float] = {}
    for record in traced:
        for name, seconds in tracer.self_times(*record["spans"]).items():
            self_times[name] = (self_times.get(name, 0.0)
                                + seconds / record["slowdown"])
    counts = traced[0]["round"].counts
    staged = workload.staged
    cache = staged.cache.stats()
    compiled = counts.get("patched", 0) + counts.get("rebuilt", 0)

    def per_op(*names: str) -> float:
        return sum(self_times.get(name, 0.0) for name in names) / ops

    search = per_op("core.kernel.search", "core.rwb.search",
                    "core.lns.search")
    wire = workload.out_of_process
    #: The untraced in-process op never crosses the wire layers, so those
    #: stages are left out when the replay is held against it.
    comparable = {name: seconds for name, seconds in self_times.items()
                  if wire or not name.startswith("server.")}
    ticks = getattr(workload, "TICKS", 0)
    return {
        "server.protocol.decode_s": per_op("server.protocol.decode"),
        "server.protocol.encode_s": per_op("server.protocol.encode"),
        "server.protocol.bytes_in": staged.bytes_in / staged.requests,
        "server.protocol.bytes_out": staged.bytes_out / staged.requests,
        "server.admission.admit_s": per_op("server.admission.admit",
                                           "server.admission.finish"),
        "server.admission.queue_wait_s": staged.queue_wait / staged.requests,
        "server.admission.shed_count": staged.admission.stats()["shed_total"],
        "server.app.lower_s": per_op("server.app.lower"),
        "server.app.roundtrip_overhead_s": (
            untraced_latency - workload.inprocess_latency() if wire else 0.0),
        "core.plan.cache_lookup_s": per_op("core.plan.cache_lookup"),
        "core.plan.cache_hit_ratio": (
            cache["hits"] / (cache["hits"] + cache["misses"])),
        "core.plan.evictions": cache["evictions"],
        "core.plan.patched_ratio": (counts.get("patched", 0) / compiled
                                    if compiled else 0.0),
        "core.filters.build_s": per_op("core.filters.build"),
        "core.filters.constraint_evaluations": counts.get(
            "constraint_evaluations", 0),
        "core.filters.entries": counts.get("entries", 0),
        "core.filters.patch_s": per_op("core.filters.patch"),
        "core.filters.patch_hosting_s": per_op("core.filters.patch_hosting"),
        "core.ordering.order_s": per_op("core.ordering.order"),
        "core.kernel.search_s": per_op("core.kernel.search"),
        "core.kernel.nodes_expanded": counts.get("nodes_expanded", 0),
        "core.kernel.nodes_per_s": (
            counts.get("nodes_expanded", 0) * len(traced) / (search * ops)
            if search else 0.0),
        "core.kernel.mappings_found": counts.get("mappings_found", 0),
        "core.rwb.search_s": per_op("core.rwb.search"),
        "core.lns.search_s": per_op("core.lns.search"),
        "graphs.journal.entries_per_tick": (
            counts.get("journal_entries", 0) / ticks if ticks else 0),
        "workloads.churn.tick_s": per_op("workloads.churn.tick"),
        "service.reservation.reserve_s": per_op("service.reservation.reserve"),
        "service.reservation.release_s": per_op("service.reservation.release"),
        "service.wal.append_s": per_op("service.wal.append"),
        "service.wal.bytes_per_op": (
            counts.get("wal_bytes", 0) * len(traced) / ops),
        "setup.server_ready_s": getattr(workload, "ready_seconds", 0.0),
        "trace.coverage": (
            (sum(comparable.values()) - comparable["request"])
            / (len(traced) * untraced_busy)),
        "trace.overhead_ratio": (
            len(traced) * untraced_busy / sum(comparable.values())),
    }


def fingerprint() -> dict:
    from repro.core import kernel
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "kernel_backend": kernel.active_backend(),
            "machine": platform.machine(), "system": platform.release()}


def run_all(passthrough: List[str]) -> int:
    """Every workload, each in its own fresh interpreter."""
    status = 0
    for name in WORKLOAD_NAMES:
        code = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name] + passthrough).returncode
        status = status or code
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long the timed rounds measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also replay the inputs stage by stage and "
                             "print the per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--sites", type=int, default=296,
                        help="scene size; smaller scenes are for smoke tests")
    parser.add_argument("--rounds", type=int, default=None,
                        help="timed rounds, instead of filling --seconds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; the benchmark "
              f"builds nothing and needs the repository's sources",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(sys.argv[1:] if argv is None else list(argv))
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

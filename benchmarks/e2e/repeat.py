#!/usr/bin/env python3
"""Does the benchmark repeat?  Runs it in K sets and holds the sets together.

    python3 benchmarks/e2e/repeat.py [--sets K] [--runs N] [--seed S] > REPEATABILITY.md

A set is N runs of every workload, run n with seed S+n (the same seeds in
every set); consecutive sets walk the workloads in opposite order.  For
every end-to-end metric of every workload it prints each set's median, the
quartile spread of a set's runs as a share of their median, and the largest
gap between two sets' medians, and it fails if a spread or a gap exceeds the
metric's bound in ``BENCHMARK.json`` (``setup_s`` is held to the gap only:
its runs differ by seed, its sets must not).  Disturbed runs are re-run and
counted.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from run import EXIT_DISTURBED, HERE, ROOT, fingerprint

RUN = HERE / "run.py"


def one_run(workload: str, seed: int, seconds: int, log) -> dict:
    """The result object of one undisturbed run (up to three attempts)."""
    for _ in range(3):
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        if done.returncode == EXIT_DISTURBED:
            log["disturbed"] += 1
            continue
        if done.returncode != 0:
            raise SystemExit(f"{workload} seed {seed} exited "
                             f"{done.returncode}")
        result = json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"{workload} seed {seed}: incorrect answers")
        return result
    raise SystemExit(f"{workload} seed {seed}: disturbed three times over")


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=3)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.sets < 2 or args.runs < 2:
        parser.error("needs at least two sets of at least two runs")
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in contract["workloads"]]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}

    log = {"disturbed": 0}
    load_before = os.getloadavg()
    started = time.time()
    #: values[workload][metric][set] -> the set's runs
    values = {w: {m: [[] for _ in range(args.sets)] for m in bounds}
              for w in workloads}
    for index in range(args.sets):
        for n in range(args.runs):
            for workload in (workloads if index % 2 == 0
                             else reversed(workloads)):
                result = one_run(workload, args.seed + n,
                                 contract["run_seconds"], log)
                for metric in bounds:
                    values[workload][metric][index].append(
                        result["metrics"][metric]["value"])
                print(f"set {index + 1} run {n + 1} {workload}",
                      file=sys.stderr)

    sys.path.insert(0, str(ROOT / "src"))     # the fingerprint asks the kernel
    print("# Repeatability of the end-to-end benchmark\n")
    print(f"`repeat.py --sets {args.sets} --runs {args.runs} "
          f"--seed {args.seed}`: {args.sets} sets of {args.runs} runs per "
          f"workload (seeds {args.seed}..{args.seed + args.runs - 1}), "
          f"{contract['run_seconds']} s measured per run, "
          f"{time.time() - started:.0f} s in all; "
          f"{log['disturbed']} disturbed run(s) re-run.\n")
    print(f"Environment: `{json.dumps(fingerprint())}`; load average "
          f"{load_before[0]:.2f} before, {os.getloadavg()[0]:.2f} after.\n")
    print("Spread is the distance between the quartiles of a set's runs as "
          "a share of their median (worst set shown); gap is the largest "
          "distance between two sets' medians as a share of the smaller.\n")
    failures = []
    for workload in workloads:
        print(f"## {workload}\n")
        print("| metric | bound | " + " | ".join(
            f"set {i + 1} median" for i in range(args.sets))
            + " | spread | gap | |")
        print("| --- | --- | " + "--- | " * args.sets + "--- | --- | --- |")
        for metric, bound in bounds.items():
            sets = values[workload][metric]
            medians = [statistics.median(runs) for runs in sets]
            worst_spread = max(spread(runs) for runs in sets)
            gap = (max(medians) - min(medians)) / min(medians)
            held = gap <= bound and (metric == "setup_s"
                                     or worst_spread <= bound)
            if not held:
                failures.append(f"{workload}/{metric}")
            print(f"| `{metric}` | {bound:.0%} | "
                  + " | ".join(f"{m:.4f}" for m in medians)
                  + f" | {worst_spread:.2%} | {gap:.2%} | "
                  + ("ok" if held else "**over**") + " |")
        print()
    if failures:
        print("Over their bound: " + ", ".join(failures))
        return 1
    print("Every spread and every gap is within its bound.")
    return 0


if __name__ == "__main__":
    sys.exit(main())

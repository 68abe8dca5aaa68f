"""Machine-readable performance records for the core-engine benchmarks.

``benchmarks/bench_perf_core.py`` times the bitset candidate engine against
the preserved set-semantics reference engine and writes the numbers through
this module as ``BENCH_core.json`` — one JSON document per run, so every
perf-oriented PR leaves a recorded trajectory instead of a claim in prose.

The document shape (``schema_version`` 1)::

    {
      "schema_version": 1,
      "workload": {...},            # scale name, hosting size, query sizes
      "environment": {...},         # python / platform fingerprint
      "engines": [PerfSample, ...], # one aggregate per engine
      "comparison": {               # present when a baseline engine ran
        "baseline": "ECF-reference",
        "candidate": "ECF",
        "speedup_total": 3.7,       # combined filter-build + search time
        "speedup_filter_build": ...,
        "speedup_search": ...
      }
    }
"""

from __future__ import annotations

import json
import platform
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence

SCHEMA_VERSION = 1


@dataclass
class PerfSample:
    """Aggregate timing of one engine over one workload suite."""

    engine: str
    queries: int
    mappings_found: int
    #: Seconds spent in build_filters across all queries.
    filter_build_seconds: float
    #: Seconds spent in the tree search proper (total minus filter build).
    search_seconds: float
    #: Combined wall-clock seconds (filter build + search).
    total_seconds: float
    nodes_expanded: int
    #: Search-tree nodes expanded per second of search time.
    nodes_per_second: float
    filter_entries: int
    constraint_evaluations: int
    timed_out_queries: int

    @classmethod
    def from_results(cls, engine: str, results: Sequence) -> "PerfSample":
        """Aggregate a list of :class:`~repro.core.result.EmbeddingResult`."""
        build = sum(r.stats.filter_build_seconds for r in results)
        total = sum(r.elapsed_seconds for r in results)
        search = max(total - build, 0.0)
        expanded = sum(r.stats.nodes_expanded for r in results)
        return cls(
            engine=engine,
            queries=len(results),
            mappings_found=sum(r.count for r in results),
            filter_build_seconds=build,
            search_seconds=search,
            total_seconds=total,
            nodes_expanded=expanded,
            nodes_per_second=expanded / search if search > 0 else 0.0,
            filter_entries=sum(r.stats.filter_entries for r in results),
            constraint_evaluations=sum(r.stats.constraint_evaluations
                                       for r in results),
            timed_out_queries=sum(1 for r in results if r.timed_out),
        )


def speedup(baseline: PerfSample, candidate: PerfSample) -> Dict[str, float]:
    """Baseline-over-candidate time ratios (> 1 means the candidate is faster)."""
    def ratio(base: float, cand: float) -> float:
        return base / cand if cand > 0 else float("inf")

    return {
        "baseline": baseline.engine,
        "candidate": candidate.engine,
        "speedup_total": ratio(baseline.total_seconds, candidate.total_seconds),
        "speedup_filter_build": ratio(baseline.filter_build_seconds,
                                      candidate.filter_build_seconds),
        "speedup_search": ratio(baseline.search_seconds, candidate.search_seconds),
    }


def environment_info() -> Dict[str, str]:
    """A small fingerprint of the machine the numbers were taken on."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def build_report(samples: Sequence[PerfSample],
                 workload: Optional[Dict] = None,
                 comparison: Optional[Dict] = None) -> Dict:
    """Assemble the BENCH_core.json document (pure data, no I/O)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "workload": dict(workload or {}),
        "environment": environment_info(),
        "engines": [asdict(sample) for sample in samples],
        "comparison": dict(comparison) if comparison else None,
    }


def write_bench_json(path, report: Dict) -> Path:
    """Write *report* as pretty-printed JSON; returns the written path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    return target


def load_bench_json(path) -> Dict:
    """Read a previously written BENCH_core.json document."""
    return json.loads(Path(path).read_text(encoding="utf-8"))

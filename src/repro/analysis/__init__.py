"""Experiment harness: drivers, statistics and reporting for §VII's figures."""

from repro.analysis.experiments import (
    DEFAULT_TIMEOUT,
    EXPERIMENTS,
    aggregate_series,
    baseline_comparison_experiment,
    brite_experiment,
    clique_experiment,
    composite_experiment,
    default_algorithms,
    filter_ablation_experiment,
    infeasible_experiment,
    ordering_ablation_experiment,
    planetlab_subgraph_experiment,
    result_quality_distribution,
    result_quality_experiment,
    run_workloads,
)
from repro.analysis.metrics import Summary, group_summaries, proportions, summarize
from repro.analysis.perf import environment_info, write_bench_json
from repro.analysis.stats import latency_block, percentile, slip_block
from repro.analysis.reporting import (
    csv_string,
    format_figure,
    format_table,
    pivot_series,
    write_csv,
)

__all__ = [
    "DEFAULT_TIMEOUT",
    "EXPERIMENTS",
    "run_workloads",
    "aggregate_series",
    "default_algorithms",
    "planetlab_subgraph_experiment",
    "infeasible_experiment",
    "brite_experiment",
    "clique_experiment",
    "composite_experiment",
    "result_quality_experiment",
    "result_quality_distribution",
    "baseline_comparison_experiment",
    "ordering_ablation_experiment",
    "filter_ablation_experiment",
    "environment_info",
    "write_bench_json",
    "latency_block",
    "percentile",
    "slip_block",
    "Summary",
    "summarize",
    "group_summaries",
    "proportions",
    "format_table",
    "format_figure",
    "pivot_series",
    "write_csv",
    "csv_string",
]

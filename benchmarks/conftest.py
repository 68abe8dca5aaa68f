"""Shared infrastructure for the figure-reproduction benchmarks.

Each ``bench_*`` module regenerates one table/figure of the paper's §VII at
benchmark scale (see DESIGN.md for the scaling rationale).  The raw per-query
rows produced by the experiment drivers are cached per session so figures
that share a workload (Fig. 8 and Fig. 9; Fig. 11 and Fig. 12) only pay for
it once, and every benchmark both prints its series (run pytest with ``-s``
to see them) and writes them to ``benchmarks/results/*.csv``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Sequence

import pytest

from repro.analysis import format_figure, format_table, write_csv

RESULTS_DIR = Path(__file__).parent / "results"


def pytest_configure(config) -> None:
    """Register the smoke marker and guarantee the results directory.

    ``smoke`` marks the tiny-scale pytest entry points of the script-style
    benchmarks (bench_churn / bench_serving / bench_faults / bench_scaleout /
    bench_harness), so ``pytest benchmarks -m smoke`` exercises each of them
    end to end at tiny scale.  The results directory is created here too —
    committed artifacts live in it, but a fresh clone running a benchmark
    that writes there must not depend on the checkout shipping the
    directory.
    """
    config.addinivalue_line(
        "markers",
        "smoke: tiny-scale end-to-end run of a script-style benchmark")
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)


@pytest.fixture(scope="session")
def experiment_cache() -> Dict[str, List[dict]]:
    """Session-wide memo of experiment-driver outputs keyed by experiment id."""
    return {}


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where benchmark series are written as CSV."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def figure_report(results_dir):
    """Callable that prints a figure's series and persists it as CSV."""

    def report(name: str, series: Sequence[dict], title: str,
               x_field: str = "size", group_field: str = "algorithm",
               value_field: str = "mean", pivot: bool = True) -> None:
        if pivot:
            text = format_figure(series, title=title, x_field=x_field,
                                 group_field=group_field, value_field=value_field)
        else:
            text = format_table(list(series), title=title)
        print("\n" + text + "\n")
        write_csv(list(series), results_dir / f"{name}.csv")

    return report


@pytest.fixture
def cached_experiment(experiment_cache):
    """Callable fixture: memoised driver execution keyed by experiment id.

    Figures that share a workload (Fig. 8/9, Fig. 11/12) call it with the same
    key so the underlying experiment only runs once per session.
    """

    def run(key: str, driver: Callable[[], List[dict]]) -> List[dict]:
        if key not in experiment_cache:
            experiment_cache[key] = driver()
        return experiment_cache[key]

    return run

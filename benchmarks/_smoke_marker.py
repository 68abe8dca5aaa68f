"""The ``smoke`` pytest marker, importable without pytest installed.

The script-style benchmarks (``bench_churn.py``, ``bench_serving.py``,
``bench_faults.py``, ``bench_scaleout.py``, ``bench_harness.py``) double as
pytest smoke tests — ``pytest benchmarks -m smoke`` runs each of them end to
end at tiny scale — and ``compare_bench.py`` carries its own self-test.  The
CI perf-smoke job, however, runs them as plain scripts in an environment
without pytest, so the marker degrades to a no-op decorator there.
"""

from __future__ import annotations

try:
    import pytest
    smoke = pytest.mark.smoke
except ImportError:  # pragma: no cover - script mode without pytest
    def smoke(func):
        return func

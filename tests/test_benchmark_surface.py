"""The end-to-end benchmark's call surface still binds.

``benchmarks/e2e/workloads.py`` drives the library one public stage call at
a time (its ``StagedServer`` repeats the plan-cache miss path, and the
workloads build their specs and plans directly).  A renamed keyword or a
dropped parameter there fails the benchmark run itself, long after tier-1
passed.  This guard imports the workloads module in a subprocess, as
``benchmarks/e2e/run.py`` does, and binds each call it makes with
:func:`inspect.signature` against the code as it stands.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BIND = r"""
import inspect, json
import workloads
from repro.core.filters import (
    build_filters, compile_hosting, patch_filters, patch_hosting_compile)
from repro.core.plan import EmbeddingPlan, PlanCache, PreparedSearch
from repro.service import QuerySpec

x = object()
calls = {
    "EmbeddingPlan.execute": (EmbeddingPlan.execute, (x, x),
                              dict(rng=None, parallelism=1)),
    "EmbeddingPlan.execute(budget=)": (EmbeddingPlan.execute, (x,),
                                       dict(budget=x, rng=None,
                                            parallelism=1)),
    "PlanCache.get": (PlanCache.get, (x, x), {}),
    "PlanCache.put": (PlanCache.put, (x, x, x), dict(refresh_mode=None)),
    "PlanCache.put(no mode)": (PlanCache.put, (x, x, x), {}),
    "PlanCache.pop_predecessor": (PlanCache.pop_predecessor, (x, x), {}),
    "PreparedSearch": (PreparedSearch, (), dict(
        filters=x, order=x, prior=x, constraint_evaluations=0,
        filter_entries=0, filter_build_seconds=0.0)),
    "EmbeddingPlan": (EmbeddingPlan, (x, x, x), dict(hosting_epoch=0)),
    "build_filters": (build_filters, (x, x, x), dict(compiled=x)),
    "patch_filters": (patch_filters, (x, x, x, x),
                      dict(compiled=x, delta=x)),
    "compile_hosting": (compile_hosting, (x,), {}),
    "patch_hosting_compile": (patch_hosting_compile, (x, x), {}),
    "QuerySpec": (QuerySpec, (), dict(
        query=x, constraint=x, algorithm="ECF", max_results=1, seed=None,
        reserve=False)),
    "QuerySpec(cache=)": (QuerySpec, (), dict(
        query=x, constraint=x, algorithm="ECF", max_results=1, timeout=1.0,
        cache=False)),
}
failures = []
for name, (function, args, kwargs) in calls.items():
    try:
        inspect.signature(function).bind(*args, **kwargs)
    except TypeError as error:
        failures.append(f"{name}: {error}")
print(json.dumps(failures))
"""


def test_the_benchmark_calls_bind_to_the_library():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "benchmarks" / "e2e"), str(ROOT / "src"),
                      os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", BIND], env=env,
                          cwd=ROOT / "benchmarks" / "e2e",
                          stdout=subprocess.PIPE, text=True, check=True)
    assert json.loads(done.stdout) == []

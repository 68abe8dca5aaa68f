"""Kernel parity: the search kernel vs. the reference engine.

The ECF/RWB kernel (``repro.core.kernel``) must be *byte-identical* to the
set-semantics reference engine (``repro.core.reference``, recursive searches
over its own filter build): same mapping streams in the same dict-key order,
same ``SearchStats`` counters, under result caps, chunk pauses, pickling and
sharded execution.
"""

from __future__ import annotations

import ast
import os
import random
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

import pytest
from conftest import UNCOMPILED_KERNELS, pinned_kernel
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import SearchRequest
from repro.api.request import Budget
from repro.constraints import ConstraintExpression
from repro.core import ECF, RWB
from repro.core import filters as filters_module
from repro.core import kernel, parallel
from repro.core.reference import ReferenceECF, ReferenceRWB, decode_views
from repro.graphs.hosting import HostingNetwork
from repro.graphs.query import QueryNetwork

WINDOW = ConstraintExpression(
    "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay")
SRC = Path(__file__).resolve().parents[1] / "src"


def random_workload(seed: int, min_hosts: int = 6, max_hosts: int = 14):
    """A random embedding problem with delay-window constraints."""
    rng = random.Random(seed)
    num_hosts = rng.randint(min_hosts, max_hosts)
    hosting = HostingNetwork("hosting")
    for i in range(num_hosts):
        hosting.add_node(f"h{i}", name=f"h{i}",
                         osType=rng.choice(["linux", "bsd"]))
    for i in range(num_hosts):
        for j in range(i + 1, num_hosts):
            if rng.random() < 0.45:
                hosting.add_edge(f"h{i}", f"h{j}",
                                 avgDelay=rng.uniform(5.0, 60.0))
    query = QueryNetwork("query")
    num_query = rng.randint(2, 5)
    for i in range(num_query):
        query.add_node(f"q{i}")
    for i in range(num_query - 1):
        query.add_edge(f"q{i}", f"q{i + 1}",
                       minDelay=0.0, maxDelay=rng.uniform(30.0, 70.0))
    if num_query > 2 and rng.random() < 0.5:
        query.add_edge("q0", f"q{num_query - 1}",
                       minDelay=0.0, maxDelay=rng.uniform(30.0, 70.0))
    return query, hosting


def observables(result):
    """Mapping stream (with key order) + search counters."""
    return (
        [list(m.as_dict().items()) for m in result.mappings],
        result.status,
        result.timed_out,
        result.truncated,
        result.stats.nodes_expanded,
        result.stats.candidates_considered,
        result.stats.backtracks,
        result.stats.constraint_evaluations,
    )


def build_request(name: str, query, hosting, cap=None):
    budget = Budget(max_results=cap) if cap else (
        Budget(max_results=10 ** 6) if name == "RWB" else Budget())
    return SearchRequest.build(query, hosting, constraint=WINDOW,
                               budget=budget)


def run(name: str, query, hosting, backend: str, seed: int = 0,
        cap=None, parallelism=None):
    request = build_request(name, query, hosting, cap)
    algo = RWB() if name == "RWB" else ECF()
    rng = seed if name == "RWB" else None
    with pinned_kernel(backend):
        plan = algo.prepare(request)
        if parallelism:
            return plan.execute(parallelism=parallelism, rng=rng)
        return plan.execute(rng=rng)


def run_reference(name: str, query, hosting, seed: int = 0, cap=None):
    """The oracle: a recursive set-semantics search over its own filters."""
    algo = ReferenceRWB(rng=seed) if name == "RWB" else ReferenceECF()
    return algo.request(build_request(name, query, hosting, cap))


# --------------------------------------------------------------------------- #
# Randomized stream/counter parity
# --------------------------------------------------------------------------- #

class TestKernelStreamParity:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10_000),
           name=st.sampled_from(["ECF", "RWB"]))
    def test_random_workloads(self, seed, name):
        query, hosting = random_workload(seed)
        reference = run_reference(name, query, hosting, seed=seed)
        fast = run(name, query, hosting, "python", seed=seed)
        assert observables(reference) == observables(fast)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10_000),
           cap=st.integers(min_value=1, max_value=5),
           name=st.sampled_from(["ECF", "RWB"]))
    def test_result_cap_truncation(self, seed, cap, name):
        """Caps must stop the kernel at exactly the capping leaf."""
        query, hosting = random_workload(seed)
        reference = run_reference(name, query, hosting, seed=seed, cap=cap)
        fast = run(name, query, hosting, "python", seed=seed, cap=cap)
        assert observables(reference) == observables(fast)

    def test_chunk_pause_resume_is_invisible(self, monkeypatch):
        """Tiny chunk budgets force pauses mid-search; results can't change."""
        query, hosting = random_workload(42, min_hosts=10, max_hosts=10)
        baseline = run("ECF", query, hosting, "python")
        monkeypatch.setattr(kernel, "CHUNK_STEPS", 3)
        monkeypatch.setattr(kernel, "CHUNK_LEAVES", 1)
        chunked = run("ECF", query, hosting, "python")
        assert observables(baseline) == observables(chunked)
        assert observables(run_reference("ECF", query, hosting)) \
            == observables(chunked)

    def test_describe_reports_kernel(self):
        query, hosting = random_workload(3)
        request = SearchRequest.build(query, hosting, constraint=WINDOW)
        plan = ECF().prepare(request)
        assert plan.describe()["kernel"] == kernel.active_backend()


# --------------------------------------------------------------------------- #
# Sharded execution (process and thread backends)
# --------------------------------------------------------------------------- #

class TestShardedKernelParity:
    @pytest.mark.parametrize("name", ["ECF", "RWB"])
    def test_process_shards_match_serial(self, name):
        query, hosting = random_workload(11, min_hosts=10, max_hosts=12)
        serial = run(name, query, hosting, "python", seed=5)
        sharded = run(name, query, hosting, "python", seed=5, parallelism=2)
        assert observables(serial) == observables(sharded)

    @pytest.mark.parametrize("seed", [5, 17])
    def test_process_sharded_rwb_matches_the_reference_walk(self, seed):
        """Sharded RWB against an independent walk, not only against its
        own serial run: the root shuffle, the base seed and every
        per-subtree stream must be spent exactly as Fig. 5's recursion
        spends them, whichever worker walks the subtree."""
        query, hosting = random_workload(11, min_hosts=10, max_hosts=12)
        reference = run_reference("RWB", query, hosting, seed=seed)
        sharded = run("RWB", query, hosting, "python", seed=seed,
                      parallelism=2)
        assert len(reference.mappings) > 1
        assert observables(reference) == observables(sharded)

    @pytest.mark.parametrize("name", ["ECF", "RWB"])
    def test_thread_shards_match_serial(self, name):
        """Thread shards are asked for by handing over a thread pool —
        ``run_sharded`` reads the executor's type, nothing else."""
        query, hosting = random_workload(23, min_hosts=10, max_hosts=12)
        reference = run_reference(name, query, hosting, seed=5)
        request = build_request(name, query, hosting)
        algo = RWB() if name == "RWB" else ECF()
        rng = 5 if name == "RWB" else None
        serial = algo.prepare(request).execute(rng=rng)
        with ThreadPoolExecutor(2) as pool:
            sharded = algo.prepare(request).execute(parallelism=2, pool=pool,
                                                    rng=rng)
            assert not parallel._INPROC_GROUPS  # popped when the run ended
        assert observables(serial) == observables(sharded)
        assert observables(reference) == observables(sharded)

    @pytest.mark.parametrize("name", ["ECF", "RWB"])
    def test_thread_shards_on_the_word_kernel_match_the_reference(self, name):
        """The word kernel (its njit sources, uncompiled where numba is not
        installed) under thread shards: the pin is process-wide, so the
        shards run the same kernel the serial walk does."""
        query, hosting = random_workload(23, min_hosts=10, max_hosts=12)
        reference = run_reference(name, query, hosting, seed=5)
        request = build_request(name, query, hosting)
        algo = RWB() if name == "RWB" else ECF()
        rng = 5 if name == "RWB" else None
        with pinned_kernel("numba"), warnings.catch_warnings():
            # uint64 popcount multiplies wrap by design.
            warnings.simplefilter("ignore", RuntimeWarning)
            serial = algo.prepare(request).execute(rng=rng)
            with ThreadPoolExecutor(2) as pool:
                sharded = algo.prepare(request).execute(
                    parallelism=2, pool=pool, rng=rng)
        assert observables(reference) == observables(serial)
        assert observables(reference) == observables(sharded)

    def test_make_pool_is_a_process_pool_whatever_the_environment_says(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_BACKEND", "thread")
        monkeypatch.setenv("REPRO_PARALLEL_START_METHOD", "no-such-method")
        pool = parallel.make_pool(1)
        try:
            assert isinstance(pool, ProcessPoolExecutor)
            assert pool.submit(int, "7").result(timeout=60) == 7
        finally:
            pool.shutdown()


# --------------------------------------------------------------------------- #
# Backend detection
# --------------------------------------------------------------------------- #

def test_the_engine_reads_no_environment_variable():
    """No ``os.environ`` / ``os.getenv`` anywhere under ``src/repro``: what
    the engine does is decided by its inputs and by what it detects."""
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("environ", "getenv", "putenv")) or (
                    isinstance(node, ast.ImportFrom) and node.module == "os"
                    and any(alias.name in ("environ", "getenv")
                            for alias in node.names)):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []



class TestBackendSelection:
    """The backend is a fact — whether the njit table loaded — not a
    setting: nothing selects it, and the environment is never read."""

    def test_env_resolution(self, monkeypatch):
        """``REPRO_KERNEL`` once selected the backend; now no value of it,
        valid or not, takes part in the resolution."""
        detected = kernel.active_backend()
        for value in ("python", "numba", "fortran"):
            monkeypatch.setenv("REPRO_KERNEL", value)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert kernel.active_backend() == detected
                assert "env" not in kernel.describe()

    def test_import_reads_no_environment_and_probes_nothing(self):
        """Importing ``repro`` with a bogus ``REPRO_KERNEL`` warns of nothing
        and leaves the numba probe for the first search to make."""
        env = dict(os.environ, REPRO_KERNEL="bogus", PYTHONPATH=str(SRC))
        code = ("import repro, repro.core.kernel as kernel\n"
                "assert kernel._NUMBA_LOAD_TRIED is False\n"
                "assert kernel._NUMBA is None\n"
                "kernel.active_backend()\n"
                "assert kernel._NUMBA_LOAD_TRIED is True\n")
        done = subprocess.run([sys.executable, "-W", "error", "-c", code],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("backend", ["python", "numba"])
    def test_backend_is_whether_the_table_is_loaded(self, backend):
        with pinned_kernel(backend):
            assert kernel.active_backend() == backend
            assert kernel.numba_available() is (backend == "numba")
            assert (kernel._NUMBA is not None) is (backend == "numba")
            described = kernel.describe()
            assert (described["backend"], described["numba_available"]) \
                == (backend, backend == "numba")

    def test_racing_threads_resolve_once(self, monkeypatch):
        """Threads racing the first resolution make one probe between them
        and all read its answer."""
        loads = []

        def slow_compile(_numba):
            loads.append(threading.get_ident())
            release.wait(timeout=30)
            return UNCOMPILED_KERNELS

        release = threading.Event()
        monkeypatch.setattr(kernel, "_NUMBA", None)
        monkeypatch.setattr(kernel, "_NUMBA_LOAD_TRIED", False)
        monkeypatch.setattr(kernel, "_compile_numba", slow_compile)
        monkeypatch.setitem(sys.modules, "numba", object())
        answers = []
        threads = [threading.Thread(
            target=lambda: answers.append(kernel.active_backend()))
            for _ in range(8)]
        for thread in threads:
            thread.start()
        release.set()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert len(loads) == 1
        assert answers == ["numba"] * 8
        assert kernel._NUMBA is UNCOMPILED_KERNELS

    def test_require_backend(self):
        kernel.require_backend(kernel.active_backend())
        with pinned_kernel("python"):
            kernel.require_backend("python")
            with pytest.raises(RuntimeError):
                kernel.require_backend("numba")

    def test_numba_availability_is_a_call_time_fact(self, monkeypatch):
        """Nothing probes numba at import; whatever the probe finds when it
        is finally made must be believed — availability cannot be frozen when
        the module loads."""
        monkeypatch.setattr(kernel, "_NUMBA", None)
        monkeypatch.setattr(kernel, "_NUMBA_LOAD_TRIED", True)   # probe failed
        assert kernel.numba_available() is False
        assert kernel.describe()["numba_available"] is False
        assert kernel.active_backend() == "python"

        monkeypatch.setattr(kernel, "_NUMBA", UNCOMPILED_KERNELS)  # it worked
        assert kernel.numba_available() is True
        described = kernel.describe()
        assert (described["backend"], described["numba_available"]) \
            == ("numba", True)


# --------------------------------------------------------------------------- #
# Patched filters enumerate their cells like rebuilt ones
# --------------------------------------------------------------------------- #

class TestPatchedWordParity:
    @staticmethod
    def _reorder_workload(flip: bool):
        """Six hosts where h0's only in-window edge swaps under churn."""
        in_delay, out_delay = 10.0, 1000.0
        if flip:
            in_delay, out_delay = out_delay, in_delay
        hosting = HostingNetwork("hosting")
        for i in range(6):
            hosting.add_node(f"h{i}", name=f"h{i}", osType="linux")
        hosting.add_edge("h0", "h1", avgDelay=in_delay)
        hosting.add_edge("h0", "h2", avgDelay=out_delay)
        hosting.add_edge("h1", "h2", avgDelay=10.0)
        hosting.add_edge("h2", "h3", avgDelay=10.0)
        hosting.add_edge("h3", "h4", avgDelay=10.0)
        hosting.add_edge("h4", "h5", avgDelay=10.0)
        query = QueryNetwork("query")
        query.add_node("q0")
        query.add_node("q1")
        query.add_edge("q0", "q1", minDelay=5.0, maxDelay=30.0)
        return query, hosting

    def test_patch_reorder_keeps_word_rows_aligned(self, monkeypatch):
        # One touched row of this patch empties h0's cell and another row
        # of the SAME patch re-fills it.  When cells were dict entries that
        # deleted the key and re-inserted it at the end — identical key
        # set, different enumeration order — and every consumer numbering
        # rows by enumeration had to chase it.  Cells now have one stored
        # form whose views enumerate in canonical order, so a patched
        # snapshot must list its cells exactly as a rebuilt one does, order
        # included.
        from repro.core import build_filters
        from repro.core.filters import patch_filters

        monkeypatch.setattr(filters_module, "PATCH_ROW_FRACTION", 1.0)
        for flip in (False, True):
            query, hosting = self._reorder_workload(flip)
            filters = build_filters(query, hosting, WINDOW, None)
            epoch = hosting.mutation_count
            # Swap which h0 edge satisfies the window.
            hosting.update_edge("h0", "h1",
                                avgDelay=1000.0 if not flip else 10.0)
            hosting.update_edge("h0", "h2",
                                avgDelay=10.0 if not flip else 1000.0)
            delta = hosting.delta_since(epoch)
            assert delta is not None and delta.attrs_only
            patched = patch_filters(filters, query, hosting, WINDOW, None,
                                    delta=delta)
            assert patched is not None
            assert patched.blocks != filters.blocks   # h0 moved
            rebuilt = build_filters(query, hosting, WINDOW, None)
            assert patched.blocks == rebuilt.blocks
            patched_views, rebuilt_views = (decode_views(patched),
                                            decode_views(rebuilt))
            assert (list(patched_views.match.items())
                    == list(rebuilt_views.match.items()))
            assert (list(patched_views.non_match.items())
                    == list(rebuilt_views.non_match.items()))
            assert patched.node_candidate_masks == rebuilt.node_candidate_masks

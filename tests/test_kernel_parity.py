"""Kernel parity: the search kernel vs. the reference engine.

The ECF/RWB kernel (``repro.core.kernel``) must be *byte-identical* to the
set-semantics reference engine (``repro.core.reference``, recursive searches
over its own filter build): same mapping streams in the same dict-key order,
same ``SearchStats`` counters, under result caps, chunk pauses, pickling and
sharded execution.
"""

from __future__ import annotations

import random
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import SearchRequest
from repro.api.request import Budget
from repro.constraints import ConstraintExpression
from repro.core import ECF, RWB
from repro.core import kernel
from repro.core.reference import ReferenceECF, ReferenceRWB
from repro.graphs.hosting import HostingNetwork
from repro.graphs.query import QueryNetwork

WINDOW = ConstraintExpression(
    "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay")
#: What a successful numba load leaves in ``kernel._NUMBA`` (numba is not
#: installable here, so the sources stand in for their compiled forms).
UNCOMPILED_KERNELS = {"ecf": kernel._nb_ecf_chunk,
                      "rwb": kernel._nb_rwb_candidates}


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
    with kernel.forced(backend):
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
    def test_thread_shards_match_serial(self, name, monkeypatch):
        from repro.core import parallel

        monkeypatch.setenv("REPRO_SHARD_BACKEND", "thread")
        assert parallel.shard_backend() == "thread"
        pool = parallel.make_pool(2)
        from concurrent.futures import ThreadPoolExecutor

        assert isinstance(pool, ThreadPoolExecutor)
        try:
            query, hosting = random_workload(23, min_hosts=10, max_hosts=12)
            budget = Budget(max_results=10 ** 6) if name == "RWB" else Budget()
            request = SearchRequest.build(query, hosting, constraint=WINDOW,
                                          budget=budget)
            algo = RWB() if name == "RWB" else ECF()
            rng = 5 if name == "RWB" else None
            serial = algo.prepare(request).execute(rng=rng)
            sharded = algo.prepare(request).execute(parallelism=2, pool=pool,
                                                    rng=rng)
            assert observables(serial) == observables(sharded)
            assert not parallel._INPROC_GROUPS  # popped when the run ended
        finally:
            pool.shutdown()

    def test_invalid_shard_backend_rejected(self, monkeypatch):
        from repro.core import parallel

        monkeypatch.setenv("REPRO_SHARD_BACKEND", "fibers")
        with pytest.raises(ValueError):
            parallel.shard_backend()


# --------------------------------------------------------------------------- #
# Backend selection
# --------------------------------------------------------------------------- #

class TestBackendSelection:
    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "python")
        assert kernel._init_from_env() == "python"
        monkeypatch.delenv("REPRO_KERNEL")
        assert kernel._init_from_env() in ("python", "numba")

    def test_invalid_env_warns_and_uses_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "fortran")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            backend = kernel._init_from_env()
        assert backend in ("python", "numba")
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)

    def test_legacy_is_no_longer_a_backend(self, monkeypatch):
        """``legacy`` once selected a second engine; now it is one more
        unknown value: the env var warns and resolves to ``auto``, the
        programmatic switches raise."""
        monkeypatch.setenv("REPRO_KERNEL", "legacy")
        with pytest.warns(RuntimeWarning, match="unknown REPRO_KERNEL"):
            assert kernel._init_from_env() in ("python", "numba")
        before = kernel.active_backend()
        with pytest.raises(ValueError):
            kernel.set_backend("legacy")
        with pytest.raises(ValueError):
            with kernel.forced("legacy"):
                pass
        assert kernel.active_backend() == before

    def test_forced_restores_previous_backend(self, monkeypatch):
        # The njit sources, uncompiled, stand in for a loaded numba table so
        # the restore has somewhere other than "python" to go back to.
        monkeypatch.setattr(kernel, "_NUMBA", UNCOMPILED_KERNELS)
        monkeypatch.setattr(kernel, "_BACKEND", "numba")
        with kernel.forced("python"):
            assert kernel.active_backend() == "python"
        assert kernel.active_backend() == "numba"

    def test_require_backend(self):
        kernel.require_backend(kernel.active_backend())
        with pytest.raises(RuntimeError):
            with kernel.forced("python"):
                kernel.require_backend("numba")

    @pytest.mark.skipif(kernel.numba_available(), reason="numba is installed")
    def test_numba_request_without_numba_warns_and_falls_back(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with kernel.forced("numba"):
                assert kernel.active_backend() == "python"
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)

    def test_numba_availability_is_a_call_time_fact(self, monkeypatch):
        """Under ``REPRO_KERNEL=python`` nothing probes numba at import; a
        later probe (``set_backend("numba")``, ``describe()``) must still be
        believed — availability cannot be frozen when the module loads."""
        monkeypatch.setattr(kernel, "_BACKEND", "python")
        monkeypatch.setattr(kernel, "_NUMBA", None)
        monkeypatch.setattr(kernel, "_NUMBA_LOAD_TRIED", True)   # probe failed
        assert kernel.numba_available() is False
        assert kernel.describe()["numba_available"] is False
        with pytest.warns(RuntimeWarning):
            assert kernel.set_backend("numba") == "python"

        monkeypatch.setattr(kernel, "_NUMBA", UNCOMPILED_KERNELS)  # it worked
        assert kernel.numba_available() is True
        assert kernel.set_backend("numba") == "numba"
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

    def test_patch_reorder_keeps_word_rows_aligned(self):
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
                                    delta=delta, max_row_fraction=1.0)
            assert patched is not None
            assert patched.match_masks != filters.match_masks   # h0 moved
            rebuilt = build_filters(query, hosting, WINDOW, None)
            assert (list(patched.match_masks.items())
                    == list(rebuilt.match_masks.items()))
            assert (list(patched.non_match_masks.items())
                    == list(rebuilt.non_match_masks.items()))
            assert patched.node_candidate_masks == rebuilt.node_candidate_masks

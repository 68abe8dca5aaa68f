"""Kernel backend parity: compiled search loops vs. the reference engine.

The compiled ECF/RWB kernels (``repro.core.kernel``) must be
*byte-identical* to the legacy explicit-stack/recursive loops: same mapping
streams in the same dict-key order, same ``SearchStats`` counters, under
result caps, chunk pauses, pickling and sharded execution.  The legacy
engine — reachable via ``REPRO_KERNEL=legacy`` — is the oracle here, just
as the set-semantics reference is the oracle for the bitset engine.
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
from repro.graphs.hosting import HostingNetwork
from repro.graphs.query import QueryNetwork

WINDOW = ConstraintExpression(
    "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay")


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


def run(name: str, query, hosting, backend: str, seed: int = 0,
        cap=None, parallelism=None):
    budget = Budget(max_results=cap) if cap else (
        Budget(max_results=10 ** 6) if name == "RWB" else Budget())
    request = SearchRequest.build(query, hosting, constraint=WINDOW,
                                  budget=budget)
    algo = RWB() if name == "RWB" else ECF()
    rng = seed if name == "RWB" else None
    with kernel.forced(backend):
        plan = algo.prepare(request)
        if parallelism:
            return plan.execute(parallelism=parallelism, rng=rng)
        return plan.execute(rng=rng)


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
        legacy = run(name, query, hosting, "legacy", seed=seed)
        fast = run(name, query, hosting, "python", seed=seed)
        assert observables(legacy) == observables(fast)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10_000),
           cap=st.integers(min_value=1, max_value=5),
           name=st.sampled_from(["ECF", "RWB"]))
    def test_result_cap_truncation(self, seed, cap, name):
        """Caps must stop the kernel at exactly the capping leaf."""
        query, hosting = random_workload(seed)
        legacy = run(name, query, hosting, "legacy", seed=seed, cap=cap)
        fast = run(name, query, hosting, "python", seed=seed, cap=cap)
        assert observables(legacy) == observables(fast)

    def test_chunk_pause_resume_is_invisible(self, monkeypatch):
        """Tiny chunk budgets force pauses mid-search; results can't change."""
        query, hosting = random_workload(42, min_hosts=10, max_hosts=10)
        baseline = run("ECF", query, hosting, "python")
        monkeypatch.setattr(kernel, "CHUNK_STEPS", 3)
        monkeypatch.setattr(kernel, "CHUNK_LEAVES", 1)
        chunked = run("ECF", query, hosting, "python")
        assert observables(baseline) == observables(chunked)
        legacy = run("ECF", query, hosting, "legacy")
        assert observables(legacy) == observables(chunked)

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
        monkeypatch.setenv("REPRO_KERNEL", "legacy")
        assert kernel._init_from_env() == "legacy"
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

    def test_forced_restores_previous_backend(self):
        before = kernel.active_backend()
        with kernel.forced("legacy"):
            assert kernel.active_backend() == "legacy"
        assert kernel.active_backend() == before

    def test_require_backend(self):
        kernel.require_backend(kernel.active_backend())
        with pytest.raises(RuntimeError):
            with kernel.forced("legacy"):
                kernel.require_backend("numba")

    @pytest.mark.skipif(kernel.HAVE_NUMBA, reason="numba is installed")
    def test_numba_request_without_numba_warns_and_falls_back(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with kernel.forced("numba"):
                assert kernel.active_backend() == "python"
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)

    def test_legacy_backend_skips_plan(self):
        from repro.core import build_filters
        from repro.core.base import placed_neighbor_plan

        query, hosting = random_workload(3)
        filters = build_filters(query, hosting, WINDOW, None)
        order = sorted(query.nodes(), key=str)
        prior = placed_neighbor_plan(query, order)
        with kernel.forced("legacy"):
            assert kernel.plan_for(filters, order, prior) is None
        with kernel.forced("python"):
            assert kernel.plan_for(filters, order, prior) is not None

    def test_plan_cache_invalidation_on_order_change(self):
        from repro.core import build_filters
        from repro.core.base import placed_neighbor_plan

        query, hosting = random_workload(7)
        filters = build_filters(query, hosting, WINDOW, None)
        order = sorted(query.nodes(), key=str)
        prior = placed_neighbor_plan(query, order)
        with kernel.forced("python"):
            first = kernel.plan_for(filters, order, prior)
            assert kernel.plan_for(filters, order, prior) is first  # cached
            reordered = list(reversed(order))
            re_prior = placed_neighbor_plan(query, reordered)
            second = kernel.plan_for(filters, reordered, re_prior)
            assert second is not first
            assert second.order == tuple(reordered)

    def test_plan_cache_invalidation_on_prior_change(self):
        from repro.core import build_filters
        from repro.core.base import placed_neighbor_plan

        query, hosting = random_workload(7)
        filters = build_filters(query, hosting, WINDOW, None)
        order = sorted(query.nodes(), key=str)
        prior = placed_neighbor_plan(query, order)
        assert any(prior)   # the workload has placed-neighbour slots
        with kernel.forced("python"):
            first = kernel.plan_for(filters, order, prior)
            # Same order, different prior: the cached plan's cell tables
            # would be stale — the cache must miss.
            blank = [tuple()] * len(order)
            second = kernel.plan_for(filters, order, blank)
            assert second is not first
            assert second.prior == tuple(blank)


# --------------------------------------------------------------------------- #
# Patched filters keep their word tables fresh
# --------------------------------------------------------------------------- #

class TestPatchedWordParity:
    def test_patch_carries_word_tables(self):
        from repro.core import build_filters
        from repro.core.filters import patch_filters

        query, hosting = random_workload(9, min_hosts=8, max_hosts=8)
        filters = build_filters(query, hosting, WINDOW, None)
        base_words = filters.words()
        epoch = hosting.mutation_count
        edges = list(hosting.edges())
        u, v = edges[0][0], edges[0][1]
        hosting.update_edge(u, v, avgDelay=1000.0)
        delta = hosting.delta_since(epoch)
        assert delta is not None and delta.attrs_only
        patched = patch_filters(filters, query, hosting, WINDOW, None,
                                delta=delta, max_row_fraction=1.0)
        if patched is None:
            pytest.skip("patch fell back to rebuild on this workload")
        words = patched.words()
        assert words is not base_words
        assert words.match.to_masks() == patched.match_masks
        assert words.non_match.to_masks() == patched.non_match_masks
        assert words.node_candidates.to_masks() == patched.node_candidate_masks

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
        # included, and the word tables follow the same order.
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
            words = patched.words()
            assert tuple(words.match.keys) == tuple(rebuilt.match_masks)
            assert (list(words.match.to_masks().items())
                    == list(patched.match_masks.items()))
            assert (list(words.non_match.to_masks().items())
                    == list(patched.non_match_masks.items()))

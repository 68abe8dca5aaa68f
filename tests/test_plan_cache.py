"""The two-phase prepare/execute API: plans, the plan cache and the service.

Covers the plan-cache semantics end to end: hits on an unchanged model
version, misses after ``registry.touch()`` (monitor refresh) and after direct
network mutation, LRU eviction at capacity, per-entry statistics, the
thread-safety of the model registry under concurrent touch/read traffic, and
the absence of the removed ``search(**kwargs)`` shim.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import Budget, SearchRequest
from repro.core import ECF, PlanCache
from repro.graphs.query import QueryNetwork
from repro.service import NetEmbedService, NetworkModelRegistry, QuerySpec
from repro.utils.timing import Deadline

WINDOW = "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay"


def star_query(name: str = "star", arms: int = 2) -> QueryNetwork:
    query = QueryNetwork(name)
    query.add_node("hub")
    for i in range(arms):
        query.add_node(f"leaf{i}")
        query.add_edge("hub", f"leaf{i}", minDelay=5.0, maxDelay=60.0)
    return query


@pytest.fixture
def service(small_hosting) -> NetEmbedService:
    svc = NetEmbedService(default_timeout=10.0)
    svc.register_network(small_hosting, name="lab")
    return svc


# --------------------------------------------------------------------------- #
# Request fingerprints
# --------------------------------------------------------------------------- #

class TestRequestFingerprint:
    def test_identical_requests_share_a_fingerprint(self, small_hosting, path_query):
        a = SearchRequest.build(path_query, small_hosting, constraint=WINDOW)
        b = SearchRequest.build(path_query, small_hosting, constraint=WINDOW)
        assert a.fingerprint() == b.fingerprint()

    def test_budget_does_not_affect_the_fingerprint(self, small_hosting, path_query):
        a = SearchRequest.build(path_query, small_hosting, constraint=WINDOW)
        b = SearchRequest.build(path_query, small_hosting, constraint=WINDOW,
                                timeout=1.0, max_results=1)
        assert a.fingerprint() == b.fingerprint()

    def test_query_and_constraint_changes_change_it(self, small_hosting,
                                                    path_query, triangle_query):
        base = SearchRequest.build(path_query, small_hosting, constraint=WINDOW)
        other_query = SearchRequest.build(triangle_query, small_hosting,
                                          constraint=WINDOW)
        other_constraint = SearchRequest.build(
            path_query, small_hosting, constraint="rEdge.avgDelay <= 20.0")
        with_node = SearchRequest.build(path_query, small_hosting,
                                        constraint=WINDOW,
                                        node_constraint='rNode.osType == "linux"')
        fingerprints = {base.fingerprint(), other_query.fingerprint(),
                        other_constraint.fingerprint(), with_node.fingerprint()}
        assert len(fingerprints) == 4

    def test_strictness_changes_it(self, small_hosting, path_query):
        """strict changes evaluation semantics (missing attributes raise),
        so strict and lenient constraints must not share a plan."""
        from repro.constraints import ConstraintExpression
        lenient = SearchRequest.build(
            path_query, small_hosting,
            constraint=ConstraintExpression(WINDOW, strict=False),
            node_constraint=ConstraintExpression('rNode.osType == "linux"',
                                                 strict=False))
        strict = SearchRequest.build(
            path_query, small_hosting,
            constraint=ConstraintExpression(WINDOW, strict=False),
            node_constraint=ConstraintExpression('rNode.osType == "linux"',
                                                 strict=True))
        assert lenient.fingerprint() != strict.fingerprint()

    def test_query_attribute_changes_change_it(self, small_hosting, path_query):
        before = SearchRequest.build(path_query, small_hosting,
                                     constraint=WINDOW).fingerprint()
        path_query.update_edge("x", "y", maxDelay=99.0)
        after = SearchRequest.build(path_query, small_hosting,
                                    constraint=WINDOW).fingerprint()
        assert before != after


# --------------------------------------------------------------------------- #
# PlanCache unit semantics
# --------------------------------------------------------------------------- #

class TestPlanCache:
    def _plan(self, small_hosting, query):
        return ECF().prepare(SearchRequest.build(query, small_hosting,
                                                 constraint=WINDOW))

    def test_hit_miss_and_per_entry_stats(self, small_hosting, path_query):
        cache = PlanCache(capacity=4)
        plan = self._plan(small_hosting, path_query)
        assert cache.get("k") is None               # cold miss
        cache.put("k", plan)
        assert cache.get("k") is plan
        assert cache.get("k") is plan
        stats = cache.stats()
        assert stats["hits"] == 2 and stats["misses"] == 1
        (entry,) = cache.entries()
        assert entry.hits == 2 and entry.key == "k"

    def test_lru_eviction_at_capacity(self, small_hosting):
        cache = PlanCache(capacity=2)
        plans = {i: self._plan(small_hosting, star_query(f"q{i}", arms=i + 1))
                 for i in range(3)}
        cache.put(0, plans[0])
        cache.put(1, plans[1])
        assert cache.get(0) is plans[0]             # 0 is now most recent
        cache.put(2, plans[2])                      # evicts 1, the LRU entry
        assert 1 not in cache
        assert cache.get(1) is None
        assert cache.get(0) is plans[0] and cache.get(2) is plans[2]
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 2

    def test_stale_entries_are_dropped_on_get(self, small_hosting, path_query):
        cache = PlanCache(capacity=4)
        cache.put("k", self._plan(small_hosting, path_query))
        small_hosting.update_edge("a", "b", avgDelay=11.0)
        assert cache.get("k") is None
        stats = cache.stats()
        assert stats["invalidations"] == 1 and stats["size"] == 0

    def test_put_purges_unreachable_unpatchable_stale_entries(
            self, small_hosting, path_query, triangle_query):
        """Entries keyed by superseded versions are unreachable by lookups;
        once the patch path cannot revive them (structural delta) the
        cold-path sweep in put() must free them promptly."""
        cache = PlanCache(capacity=8)
        cache.put(("net", 0, "a"), self._plan(small_hosting, path_query))
        cache.put(("net", 0, "b"), self._plan(small_hosting, triangle_query))
        small_hosting.remove_edge("a", "b")   # structural: both unpatchable
        cache.put(("net", 1, "a"), self._plan(small_hosting, path_query))
        assert len(cache) == 1
        assert cache.stats()["invalidations"] == 2

    def test_put_keeps_patchable_stale_entries_for_the_patch_path(
            self, small_hosting, path_query, triangle_query):
        """Attr-only-stale entries are pop_predecessor() material: the sweep
        must keep them so churned traffic can patch instead of recompile."""
        cache = PlanCache(capacity=8)
        stale_plan = self._plan(small_hosting, triangle_query)
        cache.put(("net", 0, ("ECF",), "fp-b"), stale_plan)
        small_hosting.update_edge("a", "b", avgDelay=12.0)   # attr-only stale
        cache.put(("net", 1, ("ECF",), "fp-a"),
                  self._plan(small_hosting, path_query))
        assert len(cache) == 2
        assert cache.pop_predecessor(("net", 1, ("ECF",), "fp-b")) is stale_plan
        assert cache.pop_predecessor(("net", 1, ("ECF",), "fp-b")) is None
        assert len(cache) == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


# --------------------------------------------------------------------------- #
# PlanCache.acquire: the one hit / patch / compile policy
# --------------------------------------------------------------------------- #

class TestAcquire:
    def _key(self, request, version=0):
        return ("net", version, ECF().plan_signature(), request.fingerprint())

    def _request(self, hosting, query):
        return SearchRequest.build(query, hosting, constraint=WINDOW)

    def test_cold_miss_compiles_and_caches_then_hits(self, small_hosting,
                                                     path_query):
        cache = PlanCache(capacity=4)
        request = self._request(small_hosting, path_query)
        plan = cache.acquire(self._key(request), ECF(), request)
        assert plan is not None and not plan.stale
        stats = cache.stats()
        assert (stats["size"], stats["hits"], stats["misses"]) == (1, 0, 1)
        assert stats["patched"] == stats["recompiled"] == 0

        assert cache.acquire(self._key(request), ECF(), request) is plan
        stats = cache.stats()
        assert (stats["size"], stats["hits"], stats["misses"]) == (1, 1, 1)
        assert stats["patched"] == stats["recompiled"] == 0

    def test_attr_only_predecessor_is_patched(self, small_hosting, path_query):
        cache = PlanCache(capacity=4)
        request = self._request(small_hosting, path_query)
        old = cache.acquire(self._key(request, 0), ECF(), request)
        small_hosting.update_edge("a", "b", avgDelay=12.0)   # a monitor tick
        plan = cache.acquire(self._key(request, 1), ECF(), request)
        assert plan is not old and not plan.stale
        assert plan.refresh_mode == "patched"
        assert (plan.execute().mappings
                == ECF().request(request).mappings)
        stats = cache.stats()
        assert (stats["patched"], stats["recompiled"]) == (1, 0)
        assert (stats["size"], stats["hits"], stats["misses"]) == (1, 0, 2)

    def test_predecessor_from_a_replaced_network_is_recompiled(
            self, small_hosting, path_query):
        cache = PlanCache(capacity=4)
        request = self._request(small_hosting, path_query)
        cache.acquire(self._key(request, 0), ECF(), request)
        replacement = small_hosting.copy()          # a re-register
        replaced = self._request(replacement, path_query)
        assert replaced.fingerprint() == request.fingerprint()
        plan = cache.acquire(self._key(replaced, 1), ECF(), replaced)
        assert plan.request.hosting is replacement
        assert plan.refresh_mode is None            # compiled, never patched
        stats = cache.stats()
        assert (stats["patched"], stats["recompiled"]) == (0, 1)
        assert (stats["size"], stats["hits"], stats["misses"]) == (1, 0, 2)

    def test_expired_deadline_returns_none_and_caches_nothing(
            self, small_hosting, path_query, triangle_query):
        cache = PlanCache(capacity=4)
        warm = self._request(small_hosting, triangle_query)
        cache.acquire(self._key(warm), ECF(), warm)
        before = cache.stats()
        request = self._request(small_hosting, path_query)
        plan = cache.acquire(self._key(request), ECF(), request,
                             deadline=Deadline(-1.0))
        assert plan is None
        after = cache.stats()
        assert after["size"] == before["size"] == 1
        assert after["misses"] == before["misses"] + 1
        assert (after["hits"], after["patched"], after["recompiled"]) == (
            before["hits"], 0, 0)
        # A hit needs no compile, so an expired deadline cannot refuse it.
        assert cache.acquire(self._key(warm), ECF(), warm,
                             deadline=Deadline(-1.0)) is not None


# --------------------------------------------------------------------------- #
# Service-level cache routing
# --------------------------------------------------------------------------- #

class TestServicePlanCache:
    def test_hit_on_unchanged_model_version(self, service, small_hosting,
                                            path_query):
        """A warm hit answers exactly what a per-call search answers."""
        per_call = ECF().request(SearchRequest.build(
            path_query, small_hosting, constraint=WINDOW))
        first = service.embed(path_query, constraint=WINDOW, algorithm="ECF")
        second = service.embed(path_query, constraint=WINDOW, algorithm="ECF")
        assert ([m.assignment for m in second.mappings]
                == [m.assignment for m in first.mappings]
                == [m.assignment for m in per_call.mappings])
        stats = service.plans.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_miss_after_registry_touch(self, service, path_query):
        service.embed(path_query, constraint=WINDOW, algorithm="ECF")
        service.registry.touch("lab")
        service.embed(path_query, constraint=WINDOW, algorithm="ECF")
        stats = service.plans.stats()
        assert stats["misses"] == 2 and stats["hits"] == 0

    def test_miss_after_silent_network_mutation(self, service, small_hosting,
                                                path_query):
        """A mutation nobody reported to the registry still invalidates: the
        version key matches but the plan's epoch check drops the entry."""
        first = service.embed(path_query, constraint=WINDOW, algorithm="ECF")
        small_hosting.remove_edge("a", "b")
        second = service.embed(path_query, constraint=WINDOW, algorithm="ECF")
        stats = service.plans.stats()
        assert stats["misses"] == 2 and stats["invalidations"] == 1
        # and the re-prepared plan reflects the mutated network exactly
        fresh = ECF().request(SearchRequest.build(path_query, small_hosting,
                                                  constraint=WINDOW))
        assert [m.assignment for m in second.mappings] \
            == [m.assignment for m in fresh.mappings]
        assert len(second.mappings) < len(first.mappings)

    def test_monitor_tick_invalidates(self, service, small_hosting,
                                      path_query):
        """After a tick the cached plan misses, and the answer is a fresh
        search's on the mutated model."""
        service.embed(path_query, constraint=WINDOW, algorithm="ECF")
        monitor = service.attach_monitor("lab", rng=1)
        monitor.tick()
        after = service.embed(path_query, constraint=WINDOW, algorithm="ECF")
        stats = service.plans.stats()
        assert stats["hits"] == 0 and stats["misses"] == 2
        fresh = ECF().request(SearchRequest.build(path_query, small_hosting,
                                                  constraint=WINDOW))
        assert ([m.assignment for m in after.mappings]
                == [m.assignment for m in fresh.mappings])

    def test_structurally_identical_queries_share_a_plan(self, service):
        """Fingerprints ignore the query's display name: two structurally
        identical queries are the same traffic and share one cached plan."""
        service.embed(star_query("first"), constraint=WINDOW, algorithm="ECF")
        service.embed(star_query("second"), constraint=WINDOW, algorithm="ECF")
        stats = service.plans.stats()
        assert stats["size"] == 1 and stats["hits"] == 1

    def test_eviction_at_service_capacity(self, small_hosting):
        svc = NetEmbedService(default_timeout=10.0, plan_cache_size=2)
        svc.register_network(small_hosting, name="lab")
        for arms in (1, 2, 3):    # structurally distinct queries
            svc.embed(star_query(f"q{arms}", arms=arms), constraint=WINDOW,
                      algorithm="ECF")
        stats = svc.plans.stats()
        assert stats["size"] == 2 and stats["evictions"] == 1

    def test_seeded_rwb_through_cache_is_reproducible(self, service, path_query):
        a = service.embed(path_query, constraint=WINDOW, algorithm="RWB", seed=5)
        b = service.embed(path_query, constraint=WINDOW, algorithm="RWB", seed=5)
        assert a.mappings == b.mappings
        assert service.plans.stats()["hits"] == 1   # one plan, two seeds ok

    def test_stream_routes_through_cache(self, service, path_query):
        spec = QuerySpec(query=path_query, constraint=WINDOW, algorithm="ECF")
        streamed = [m.assignment for m in service.stream(spec)]
        submitted = [m.assignment for m in service.submit(spec).mappings]
        assert streamed == submitted
        assert service.plans.stats()["hits"] == 1

    def test_stream_falls_back_when_plan_goes_stale_unconsumed(
            self, service, small_hosting, path_query):
        """A mutation between stream() and the first next() must degrade to
        the one-shot path, not leak PlanInvalidatedError to the consumer."""
        spec = QuerySpec(query=path_query, constraint=WINDOW, algorithm="ECF")
        service.submit(spec)                      # warm the cache
        generator = service.stream(spec)
        small_hosting.update_edge("a", "b", avgDelay=10.5)
        streamed = [m.assignment for m in generator]
        fresh = ECF().request(SearchRequest.build(path_query, small_hosting,
                                                  constraint=WINDOW))
        assert streamed == [m.assignment for m in fresh.mappings]

    def test_batch_shares_one_plan(self, service, path_query):
        specs = [QuerySpec(query=path_query, constraint=WINDOW, algorithm="ECF")
                 for _ in range(4)]
        responses = service.submit_batch(specs)
        streams = [[m.assignment for m in r.mappings] for r in responses]
        assert all(stream == streams[0] for stream in streams)
        stats = service.plans.stats()
        # Racing workers may each compile the cold plan; afterwards all
        # traffic shares the cached entry.
        assert stats["size"] == 1 and stats["hits"] + stats["misses"] == 4

    def test_non_preparable_algorithms_bypass_the_cache(self, service,
                                                        path_query):
        response = service.embed(path_query, constraint=WINDOW,
                                 algorithm="bruteforce", max_results=1,
                                 timeout=5.0)
        assert response.found
        assert service.plans.stats()["size"] == 0

    def test_cold_compile_respects_the_spec_timeout(self, service, path_query):
        """A cold cache miss must not compile unboundedly: with a tiny
        timeout the compile aborts, the submit falls back to the one-shot
        path and the response is classified as a timeout, and nothing
        half-built lands in the cache."""
        response = service.embed(path_query, constraint=WINDOW,
                                 algorithm="ECF", timeout=1e-9)
        assert response.result.timed_out
        assert response.status.value == "inconclusive"
        assert service.plans.stats()["size"] == 0

    def test_seeded_prepare_reproduces_submit(self, service, path_query):
        """prepare(spec with seed).execute() must match submit(spec): the
        seed binds to a private (uncached) plan instead of being dropped."""
        spec = QuerySpec(query=path_query, constraint=WINDOW, algorithm="RWB",
                         seed=5, max_results=3)
        plan = service.prepare(spec)
        assert plan.execute().mappings == service.submit(spec).mappings

    def test_service_prepare_returns_executable_plan(self, service, path_query):
        plan = service.prepare(QuerySpec(query=path_query, constraint=WINDOW,
                                         algorithm="ECF"))
        result = plan.execute(budget=Budget(max_results=1))
        assert len(result.mappings) == 1
        # the plan is cached: the next embed() for the same traffic hits
        service.embed(path_query, constraint=WINDOW, algorithm="ECF")
        assert service.plans.stats()["hits"] == 1


# --------------------------------------------------------------------------- #
# Registry thread-safety
# --------------------------------------------------------------------------- #

class TestRegistryThreadSafety:
    def test_concurrent_touch_and_reads(self, small_hosting):
        registry = NetworkModelRegistry()
        registry.register(small_hosting, name="lab")
        errors = []
        ticks_per_thread = 200
        threads_count = 4

        def toucher():
            try:
                for _ in range(ticks_per_thread):
                    registry.touch("lab")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader():
            try:
                for _ in range(ticks_per_thread):
                    registry.version("lab")
                    registry.entry("lab")
                    registry.names()
                    assert "lab" in registry
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = ([threading.Thread(target=toucher) for _ in range(threads_count)]
                   + [threading.Thread(target=reader) for _ in range(2)])
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # every touch is accounted for: the lock made increments atomic
        assert registry.version("lab") == threads_count * ticks_per_thread

    def test_register_replacement_bumps_version(self, small_hosting):
        registry = NetworkModelRegistry()
        registry.register(small_hosting, name="lab")
        assert registry.version("lab") == 0
        registry.register(small_hosting.copy(), name="lab")
        assert registry.version("lab") == 1


# --------------------------------------------------------------------------- #
# The keyword shim is gone
# --------------------------------------------------------------------------- #

class TestSearchDeprecation:
    def test_search_is_gone(self):
        """``request()`` / ``prepare()`` are the call surface; the deprecated
        ``search(**kwargs)`` shim is not kept beside them."""
        with pytest.raises(AttributeError):
            ECF().search

    def test_request_and_prepare_do_not_warn(self, small_hosting, path_query,
                                             recwarn):
        request = SearchRequest.build(path_query, small_hosting,
                                      constraint=WINDOW)
        ECF().request(request)
        ECF().prepare(request).execute()
        assert not [w for w in recwarn
                    if issubclass(w.category, DeprecationWarning)]

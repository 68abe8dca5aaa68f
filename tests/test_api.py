"""Tests for the unified embedding API: SearchRequest/Budget, the
capability-based algorithm registry, selection policies and streaming."""

from __future__ import annotations

import dataclasses

import pytest
from conftest import search

from repro.api import (
    AlgorithmRegistry,
    Budget,
    Capability,
    DuplicateAlgorithmError,
    FixedSelectionPolicy,
    PaperSelectionPolicy,
    SearchRequest,
    UnknownAlgorithmError,
    default_registry,
    register_algorithm,
)
from repro.constraints import ConstraintExpression
from repro.core import ECF, LNS, RWB, EmbeddingAlgorithm, make_algorithm
from repro.core.base import SearchContext
from repro.graphs import HostingNetwork, QueryNetwork
from repro.workloads import planetlab_host

WINDOW = "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay"


# --------------------------------------------------------------------------- #
# Budget / SearchRequest
# --------------------------------------------------------------------------- #

class TestBudget:
    def test_defaults_are_unlimited(self):
        budget = Budget()
        assert budget.timeout is None
        assert budget.max_results is None
        assert not budget.wants_single

    def test_validation(self):
        with pytest.raises(ValueError):
            Budget(timeout=0)
        with pytest.raises(ValueError):
            Budget(timeout=-1.0)
        with pytest.raises(ValueError):
            Budget(max_results=0)

    def test_first_match(self):
        budget = Budget.first_match(timeout=2.0)
        assert budget.max_results == 1
        assert budget.timeout == 2.0
        assert budget.wants_single

    def test_with_default_timeout(self):
        assert Budget().with_default_timeout(5.0).timeout == 5.0
        assert Budget(timeout=1.0).with_default_timeout(5.0).timeout == 1.0
        assert Budget().with_default_timeout(None).timeout is None

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Budget().timeout = 3.0


class TestSearchRequest:
    def test_coerces_string_constraints(self, small_hosting, path_query):
        request = SearchRequest.build(path_query, small_hosting, constraint=WINDOW,
                                      node_constraint="vNode.demand <= 1")
        assert isinstance(request.constraint, ConstraintExpression)
        assert isinstance(request.node_constraint, ConstraintExpression)

    def test_none_constraint_becomes_always_true(self, small_hosting, path_query):
        request = SearchRequest.build(path_query, small_hosting)
        assert request.constraint.is_trivial
        assert request.node_constraint is None

    def test_type_validation(self, small_hosting, path_query):
        with pytest.raises(TypeError):
            SearchRequest.build(small_hosting, small_hosting)
        with pytest.raises(TypeError):
            SearchRequest.build(path_query, "not-a-network")
        with pytest.raises(TypeError):
            SearchRequest.build(path_query, small_hosting, constraint=42)

    def test_directedness_must_agree(self, small_hosting):
        directed_query = QueryNetwork("d", directed=True)
        directed_query.add_node("x")
        with pytest.raises(ValueError):
            SearchRequest.build(directed_query, small_hosting)

    def test_budget_and_flat_kwargs_are_exclusive(self, small_hosting, path_query):
        with pytest.raises(ValueError):
            SearchRequest.build(path_query, small_hosting, timeout=1.0,
                                budget=Budget(timeout=2.0))
        request = SearchRequest.build(path_query, small_hosting, timeout=1.5,
                                      max_results=3)
        assert request.timeout == 1.5
        assert request.max_results == 3

    def test_frozen_and_replace(self, small_hosting, path_query):
        request = SearchRequest.build(path_query, small_hosting)
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.budget = Budget()
        tighter = request.replace(budget=Budget.first_match())
        assert tighter.max_results == 1
        assert request.max_results is None

    def test_request_entry_point_matches_search(self, small_hosting, path_query,
                                                window_constraint):
        request = SearchRequest.build(path_query, small_hosting,
                                      constraint=window_constraint)
        via_request = ECF().request(request)
        via_search = search(ECF(), path_query, small_hosting,
                            constraint=window_constraint)
        assert via_request.status == via_search.status
        assert sorted(via_request.mappings, key=repr) == \
            sorted(via_search.mappings, key=repr)

    def test_request_rejects_non_request(self, small_hosting, path_query):
        with pytest.raises(TypeError):
            ECF().request(path_query)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #

class _Fake(EmbeddingAlgorithm):
    name = "fake"

    def _run(self, context: SearchContext) -> bool:
        return True


class TestAlgorithmRegistry:
    def test_register_and_lookup_case_insensitive(self):
        registry = AlgorithmRegistry()
        registry.register("Fake", _Fake, capabilities=[Capability.DETERMINISTIC])
        assert "fake" in registry
        assert "FAKE" in registry
        assert registry.get("fAkE").name == "Fake"
        assert isinstance(registry.create("fake"), _Fake)
        assert len(registry) == 1

    def test_duplicate_name_rejected(self):
        registry = AlgorithmRegistry()
        registry.register("fake", _Fake)
        with pytest.raises(DuplicateAlgorithmError):
            registry.register("FAKE", _Fake)
        registry.register("fake", _Fake, replace=True)   # explicit override OK

    def test_unknown_lookup_lists_available(self):
        registry = AlgorithmRegistry()
        registry.register("fake", _Fake)
        with pytest.raises(UnknownAlgorithmError, match="fake"):
            registry.get("ghost")
        assert issubclass(UnknownAlgorithmError, ValueError)

    def test_capability_queries(self):
        registry = AlgorithmRegistry()
        registry.register("a", _Fake, capabilities=[Capability.DETERMINISTIC])
        registry.register("b", _Fake,
                          capabilities=["deterministic", "complete-enumeration"])
        both = registry.with_capabilities("complete-enumeration")
        assert [info.name for info in both] == ["b"]
        assert len(registry.with_capabilities(Capability.DETERMINISTIC)) == 2

    def test_unknown_capability_string_rejected(self):
        registry = AlgorithmRegistry()
        with pytest.raises(ValueError, match="unknown capability"):
            registry.register("x", _Fake, capabilities=["time-travel"])

    def test_decorator_registers_and_returns_class(self):
        registry = AlgorithmRegistry()

        @register_algorithm("deco", capabilities=[Capability.HEURISTIC],
                            tags=["test"], registry=registry)
        class Deco(_Fake):
            """One-line summary taken from the docstring."""

        assert Deco.__name__ == "Deco"
        info = registry.get("deco")
        assert info.summary.startswith("One-line summary")
        assert info.has(Capability.HEURISTIC)
        assert [i.name for i in registry.with_tag("test")] == ["deco"]

    def test_unregister(self):
        registry = AlgorithmRegistry()
        registry.register("fake", _Fake)
        registry.unregister("fake")
        assert "fake" not in registry
        with pytest.raises(UnknownAlgorithmError):
            registry.unregister("fake")


class TestDefaultRegistry:
    def test_all_seven_builtins_discoverable(self):
        import repro.baselines  # noqa: F401 — ensure baseline registration
        names = set(default_registry().names())
        assert {"ECF", "RWB", "LNS",
                "annealing", "bruteforce", "genetic", "stress"} <= names
        for info in default_registry().infos():
            assert info.capabilities, f"{info.name} declares no capabilities"

    def test_make_algorithm_delegates_to_registry(self):
        import repro.baselines  # noqa: F401
        assert isinstance(make_algorithm("ecf"), ECF)
        assert isinstance(make_algorithm("bruteforce").name, str)
        with pytest.raises(ValueError):
            make_algorithm("quantum")

    def test_core_tags_partition_the_builtins(self):
        import repro.baselines  # noqa: F401
        core = {i.name for i in default_registry().with_tag("core")}
        baseline = {i.name for i in default_registry().with_tag("baseline")}
        assert core == {"ECF", "RWB", "LNS"}
        assert baseline == {"annealing", "bruteforce", "genetic", "stress"}


# --------------------------------------------------------------------------- #
# Selection policies
# --------------------------------------------------------------------------- #

def _sparse_hosting() -> HostingNetwork:
    """An 8-node ring: density 8/28 ≈ 0.29 (< the policy's dense threshold)."""
    hosting = HostingNetwork("ring8")
    nodes = [f"n{i}" for i in range(8)]
    for node in nodes:
        hosting.add_node(node)
    for i, node in enumerate(nodes):
        hosting.add_edge(node, nodes[(i + 1) % 8], avgDelay=10.0)
    return hosting


def _irregular_query() -> QueryNetwork:
    query = QueryNetwork("path3")
    for node in ("x", "y", "z"):
        query.add_node(node)
    query.add_edge("x", "y")
    query.add_edge("y", "z")
    return query


class TestPaperSelectionPolicy:
    def test_dense_single_match_picks_low_memory_searcher(self):
        policy = PaperSelectionPolicy()
        info = policy.select(_irregular_query(), planetlab_host(24, rng=1),
                             max_results=1)
        assert info.name == "LNS"
        assert info.has(Capability.LOW_MEMORY)

    def test_full_enumeration_picks_filtered_enumerator(self, small_hosting):
        policy = PaperSelectionPolicy()
        info = policy.select(_irregular_query(), small_hosting, max_results=None)
        assert info.name == "ECF"
        assert info.has(Capability.COMPLETE_ENUMERATION)

    def test_sparse_irregular_single_match_picks_randomized(self):
        policy = PaperSelectionPolicy()
        info = policy.select(_irregular_query(), _sparse_hosting(), max_results=1)
        assert info.name == "RWB"
        assert info.has(Capability.RANDOMIZED)

    def test_policy_is_capability_driven_not_name_driven(self):
        registry = AlgorithmRegistry()
        registry.register("novel", _Fake, tags=["core"], capabilities=[
            Capability.COMPLETE_ENUMERATION, Capability.LOW_MEMORY,
            Capability.SUPPORTS_DIRECTED])
        info = PaperSelectionPolicy().select(
            _irregular_query(), planetlab_host(24, rng=1), max_results=1,
            registry=registry)
        assert info.name == "novel"

    def test_baselines_excluded_from_auto_selection(self):
        # Every capability combination the policy asks for resolves to a
        # core algorithm, never an incomplete baseline.
        import repro.baselines  # noqa: F401
        policy = PaperSelectionPolicy()
        for max_results in (None, 1, 5):
            info = policy.select(_irregular_query(), _sparse_hosting(),
                                 max_results=max_results)
            assert "core" in info.tags

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            PaperSelectionPolicy(density_threshold=1.5)

    def test_fixed_policy(self, small_hosting):
        info = FixedSelectionPolicy("LNS").select(_irregular_query(), small_hosting)
        assert info.name == "LNS"


# --------------------------------------------------------------------------- #
# RWB seed handling
# --------------------------------------------------------------------------- #

class TestRWBSeed:
    def test_seed_kwarg_matches_int_rng(self, small_hosting, path_query,
                                        window_constraint):
        by_seed = search(RWB(seed=11), path_query, small_hosting,
                         constraint=window_constraint, max_results=1)
        by_rng = search(RWB(rng=11), path_query, small_hosting,
                        constraint=window_constraint, max_results=1)
        assert [m.as_dict() for m in by_seed.mappings] == \
            [m.as_dict() for m in by_rng.mappings]

    def test_seed_and_rng_are_exclusive(self):
        with pytest.raises(ValueError):
            RWB(rng=1, seed=2)

    def test_seed_must_be_int(self):
        with pytest.raises(TypeError):
            RWB(seed="eleven")
        with pytest.raises(TypeError):
            RWB(seed=True)


# --------------------------------------------------------------------------- #
# Streaming
# --------------------------------------------------------------------------- #

class TestStreaming:
    def test_iter_mappings_yields_what_search_finds(self, small_hosting,
                                                    path_query, window_constraint):
        eager = search(ECF(), path_query, small_hosting,
                       constraint=window_constraint)
        lazy = list(ECF().iter_mappings(path_query, small_hosting,
                                        constraint=window_constraint))
        assert sorted(lazy, key=repr) == sorted(eager.mappings, key=repr)

    def test_streaming_respects_max_results(self, small_hosting, path_query,
                                            window_constraint):
        lazy = list(ECF().iter_mappings(path_query, small_hosting,
                                        constraint=window_constraint,
                                        max_results=2))
        assert len(lazy) == 2

    def test_early_close_aborts_the_search(self):
        hosting = planetlab_host(20, rng=2)
        query = _irregular_query()
        stream = LNS().iter_mappings(query, hosting, timeout=30.0)
        first = next(stream)
        assert first is not None
        stream.close()     # must abort the producer thread, not hang

    def test_close_returns_promptly_without_timeout(self):
        # The cancel event must interrupt the search in a barren region,
        # not just between recorded mappings — with no deadline at all the
        # close would otherwise block until the search exhausts.
        import time

        hosting = planetlab_host(40, rng=1)
        query = QueryNetwork("chain")
        labels = [f"n{i}" for i in range(7)]
        for label in labels:
            query.add_node(label)
        for left, right in zip(labels, labels[1:]):
            query.add_edge(left, right)
        stream = ECF().iter_mappings(query, hosting)    # no timeout
        next(stream)
        start = time.monotonic()
        stream.close()
        assert time.monotonic() - start < 2.0

    def test_stream_request_form(self, small_hosting, path_query,
                                 window_constraint):
        request = SearchRequest.build(path_query, small_hosting,
                                      constraint=window_constraint)
        assert len(list(ECF().stream(request))) == \
            ECF().request(request).count

    def test_buffer_size_validation(self, small_hosting, path_query):
        request = SearchRequest.build(path_query, small_hosting)
        with pytest.raises(ValueError):
            ECF().stream(request, buffer_size=0)

    def test_search_errors_reraise_in_consumer(self, small_hosting, path_query):
        class Exploding(EmbeddingAlgorithm):
            name = "exploding"

            def _run(self, context):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            list(Exploding().iter_mappings(path_query, small_hosting))

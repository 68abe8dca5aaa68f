"""Tests for the §VIII extensions: optimisation, path mapping, scheduling,
domain partitioning."""

from __future__ import annotations

import pytest
from conftest import search

from repro.core import ECF, LNS, Mapping
from repro.extensions import (
    EmbeddingCalendar,
    EmbeddingScheduler,
    PathEmbedder,
    best_mapping,
    build_closure_network,
    load_balance_cost,
    partition_balanced,
    partition_by_attribute,
    rank_mappings,
    stress_cost,
    total_delay_cost,
)
from repro.graphs import QueryNetwork


# --------------------------------------------------------------------------- #
# Optimiser
# --------------------------------------------------------------------------- #

class TestOptimizer:
    def test_total_delay_cost(self, small_hosting, path_query):
        mapping = Mapping({"x": "a", "y": "b", "z": "e"})
        # a-b = 10ms, b-e = 20ms.
        assert total_delay_cost(path_query, small_hosting, mapping) == pytest.approx(30.0)

    def test_load_balance_cost(self, small_hosting, path_query):
        mapping = Mapping({"x": "a", "y": "b", "z": "e"})
        # cpuLoad: a=0.2, b=0.5, e=0.4 -> max 0.5.
        assert load_balance_cost(path_query, small_hosting, mapping) == pytest.approx(0.5)

    def test_stress_cost(self, small_hosting, path_query):
        mapping = Mapping({"x": "a", "y": "b", "z": "e"})
        cost = stress_cost({"a": 2, "b": 1})
        assert cost(path_query, small_hosting, mapping) == 3.0

    def test_ranking_orders_by_cost(self, small_hosting, path_query,
                                    window_constraint):
        result = search(ECF(), path_query, small_hosting, constraint=window_constraint)
        ranked = rank_mappings(result, path_query, small_hosting, total_delay_cost)
        assert len(ranked) == result.count
        costs = [entry.cost for entry in ranked]
        assert costs == sorted(costs)
        best = best_mapping(result, path_query, small_hosting, total_delay_cost)
        assert best.cost == costs[0]

    def test_best_of_empty_set_is_none(self, small_hosting, path_query):
        assert best_mapping([], path_query, small_hosting) is None

    def test_rank_accepts_plain_mapping_lists(self, small_hosting, path_query):
        mappings = [Mapping({"x": "a", "y": "b", "z": "e"}),
                    Mapping({"x": "d", "y": "e", "z": "b"})]
        ranked = rank_mappings(mappings, path_query, small_hosting)
        assert len(ranked) == 2


# --------------------------------------------------------------------------- #
# Path mapping
# --------------------------------------------------------------------------- #

class TestPathMapping:
    def test_closure_network_aggregates_delays(self, small_hosting):
        closure, paths = build_closure_network(small_hosting, max_hops=2)
        # a and e are not adjacent but reachable in 2 hops (a-b-e or a-d-e).
        assert closure.has_edge("a", "e")
        hops = closure.get_edge_attr("a", "e", "hopCount")
        assert hops == 2
        delay = closure.get_edge_attr("a", "e", "avgDelay")
        # Cheapest 2-hop path a-b-e costs 10 + 20 = 30ms.
        assert delay == pytest.approx(30.0)
        assert paths[("a", "e")][0] == "a" and paths[("a", "e")][-1] == "e"

    def test_direct_edges_keep_their_delay(self, small_hosting):
        closure, _ = build_closure_network(small_hosting, max_hops=2)
        assert closure.get_edge_attr("a", "b", "avgDelay") == pytest.approx(10.0)
        assert closure.get_edge_attr("a", "b", "hopCount") == 1

    def test_path_embedder_finds_embeddings_plain_search_cannot(self, small_hosting):
        # A triangle query cannot embed edge-to-edge (the host is triangle-free)
        # but can embed when edges may ride 2-hop paths.
        query = QueryNetwork("triangle")
        for node in ("p", "q", "r"):
            query.add_node(node)
        query.add_edge("p", "q", maxDelay=200.0)
        query.add_edge("q", "r", maxDelay=200.0)
        query.add_edge("p", "r", maxDelay=200.0)

        direct = search(ECF(), query, small_hosting,
                        constraint="rEdge.avgDelay <= vEdge.maxDelay")
        assert direct.proved_infeasible

        embedder = PathEmbedder(algorithm=ECF(), max_hops=2)
        result = embedder.search(query, small_hosting,
                                 constraint="rEdge.avgDelay <= vEdge.maxDelay",
                                 max_results=3)
        assert result.found
        for path_mapping in result.path_mappings:
            for query_edge, path in path_mapping.edge_paths.items():
                assert len(path) >= 2
                # Consecutive path nodes must be adjacent in the real host.
                for u, v in zip(path, path[1:]):
                    assert small_hosting.has_edge(u, v) or small_hosting.has_edge(v, u)
            assert path_mapping.total_hops() >= 3

    def test_hop_count_constraint_is_usable(self, small_hosting):
        query = QueryNetwork("pair")
        query.add_node("p")
        query.add_node("q")
        query.add_edge("p", "q")
        embedder = PathEmbedder(algorithm=ECF(), max_hops=3)
        result = embedder.search(query, small_hosting,
                                 constraint="rEdge.hopCount <= 1", max_results=5)
        for path_mapping in result.path_mappings:
            assert all(len(path) == 2 for path in path_mapping.edge_paths.values())

    def test_validation(self, small_hosting):
        with pytest.raises(ValueError):
            build_closure_network(small_hosting, max_hops=0)


# --------------------------------------------------------------------------- #
# Scheduler
# --------------------------------------------------------------------------- #

class TestScheduler:
    def test_calendar_tracks_busy_nodes(self):
        calendar = EmbeddingCalendar()
        booking = calendar.book(Mapping({"x": "a", "y": "b"}), start=2, duration=3)
        assert calendar.busy_nodes(0, 2) == set()
        assert calendar.busy_nodes(2, 3) == {"a", "b"}
        assert calendar.busy_nodes(4, 6) == {"a", "b"}
        assert calendar.busy_nodes(5, 7) == set()
        calendar.cancel(booking.job_id)
        assert calendar.busy_nodes(2, 3) == set()
        with pytest.raises(KeyError):
            calendar.cancel(booking.job_id)

    def test_schedule_immediately_when_free(self, small_hosting, path_query,
                                            window_constraint):
        scheduler = EmbeddingScheduler(small_hosting, algorithm=LNS())
        result = scheduler.schedule(path_query, constraint=window_constraint,
                                    duration=2)
        assert result.scheduled
        assert result.booking.start == 0

    def test_conflicting_jobs_are_deferred_or_displaced(self, small_hosting,
                                                        window_constraint):
        # A query that needs 4 of the 6 hosts; two of them cannot run
        # concurrently once node capacity (uniqueness) is exhausted.
        query = QueryNetwork("big")
        for index in range(4):
            query.add_node(f"q{index}")
        query.add_edge("q0", "q1", minDelay=1.0, maxDelay=100.0)
        query.add_edge("q1", "q2", minDelay=1.0, maxDelay=100.0)
        query.add_edge("q2", "q3", minDelay=1.0, maxDelay=100.0)
        scheduler = EmbeddingScheduler(small_hosting, algorithm=LNS(), horizon=8)
        first = scheduler.schedule(query, constraint=window_constraint, duration=2)
        second = scheduler.schedule(query, constraint=window_constraint, duration=2)
        assert first.scheduled and second.scheduled
        overlap = not (second.booking.start >= first.booking.end
                       or first.booking.start >= second.booking.end)
        if overlap:
            # If they do overlap, they must use disjoint hosting nodes.
            assert not (set(first.booking.mapping.hosting_nodes())
                        & set(second.booking.mapping.hosting_nodes()))

    def test_earliest_parameter_respected(self, small_hosting, path_query,
                                          window_constraint):
        scheduler = EmbeddingScheduler(small_hosting)
        result = scheduler.schedule(path_query, constraint=window_constraint,
                                    earliest=5)
        assert result.scheduled
        assert result.booking.start >= 5

    def test_validation(self, small_hosting, path_query):
        scheduler = EmbeddingScheduler(small_hosting)
        with pytest.raises(ValueError):
            scheduler.schedule(path_query, duration=0)
        with pytest.raises(ValueError):
            scheduler.schedule(path_query, earliest=-1)
        with pytest.raises(ValueError):
            EmbeddingScheduler(small_hosting, horizon=0)


# --------------------------------------------------------------------------- #
# Partitioning helpers
# --------------------------------------------------------------------------- #

class TestHierarchical:
    def test_partition_by_attribute(self, small_hosting):
        domains = partition_by_attribute(small_hosting, "region")
        assert set(domains) == {"east", "west"}
        assert sorted(domains["east"]) == ["a", "b", "d"]

    def test_partition_balanced_covers_all_nodes(self, small_hosting):
        domains = partition_balanced(small_hosting, 3)
        all_nodes = [node for nodes in domains.values() for node in nodes]
        assert sorted(all_nodes) == sorted(small_hosting.nodes())

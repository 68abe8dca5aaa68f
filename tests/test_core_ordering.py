"""Tests for the node-ordering heuristics (Lemma 1) and LNS growth orderings."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import build_filters
from repro.core.ordering import (
    candidate_count_order,
    connectivity_aware_order,
    lns_next_neighbor,
    lns_seed_node,
    natural_order,
    permutation_tree_size,
)
from repro.graphs import QueryNetwork
from repro.topology.regular import star


class TestPermutationTreeSize:
    def test_paper_formula(self):
        # S = n1 + n1*n2 + n1*n2*n3
        assert permutation_tree_size([2, 3, 4]) == 2 + 6 + 24

    def test_single_node(self):
        assert permutation_tree_size([5]) == 5

    def test_empty(self):
        assert permutation_tree_size([]) == 0

    @settings(max_examples=60, deadline=None)
    @given(counts=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5))
    def test_lemma1_ascending_order_minimises_tree_size(self, counts):
        """Lemma 1: the ascending ordering minimises S over all permutations."""
        ascending = permutation_tree_size(sorted(counts))
        for permutation in itertools.permutations(counts):
            assert ascending <= permutation_tree_size(list(permutation))


class TestCandidateCountOrder:
    def test_most_constrained_node_comes_first(self, small_hosting, path_query,
                                               window_constraint):
        filters = build_filters(path_query, small_hosting, window_constraint)
        order = candidate_count_order(path_query, filters)
        counts = [filters.candidate_count(node) for node in order]
        assert counts == sorted(counts)
        assert set(order) == set(path_query.nodes())

    def test_deterministic(self, small_hosting, path_query, window_constraint):
        filters = build_filters(path_query, small_hosting, window_constraint)
        assert candidate_count_order(path_query, filters) == \
            candidate_count_order(path_query, filters)

    def test_natural_order_is_insertion_order(self, small_hosting, path_query,
                                              window_constraint):
        filters = build_filters(path_query, small_hosting, window_constraint)
        assert natural_order(path_query, filters) == path_query.nodes()


class TestConnectivityAwareOrder:
    def test_prefix_stays_connected_when_possible(self, small_hosting,
                                                  window_constraint):
        query = QueryNetwork("chain")
        for node in "abcd":
            query.add_node(node)
        query.add_edge("a", "b", minDelay=1.0, maxDelay=100.0)
        query.add_edge("b", "c", minDelay=1.0, maxDelay=100.0)
        query.add_edge("c", "d", minDelay=1.0, maxDelay=100.0)
        filters = build_filters(query, small_hosting, window_constraint)
        order = connectivity_aware_order(query, filters)
        # After the first node, every node must be adjacent to an earlier one.
        for index in range(1, len(order)):
            assert any(neighbor in order[:index]
                       for neighbor in query.neighbors(order[index]))

    def test_covers_all_nodes_even_if_disconnected(self, small_hosting,
                                                   window_constraint):
        query = QueryNetwork("two-parts")
        for node in "abcd":
            query.add_node(node)
        query.add_edge("a", "b", minDelay=1.0, maxDelay=100.0)
        query.add_edge("c", "d", minDelay=1.0, maxDelay=100.0)
        filters = build_filters(query, small_hosting, window_constraint)
        order = connectivity_aware_order(query, filters)
        assert set(order) == {"a", "b", "c", "d"}


class TestLNSOrderings:
    def test_seed_is_highest_degree(self):
        query = star(4, prefix="s")   # s0 is the hub with degree 4
        assert lns_seed_node(query) == "s0"

    def test_seed_on_empty_query_raises(self):
        with pytest.raises(ValueError):
            lns_seed_node(QueryNetwork("empty"))

    def test_next_neighbor_maximises_links_to_covered(self, triangle_query):
        query = QueryNetwork("q")
        for node in "abcd":
            query.add_node(node)
        query.add_edge("a", "b")
        query.add_edge("a", "c")
        query.add_edge("b", "c")
        query.add_edge("c", "d")
        # Covered = {a, b}; neighbors = {c, d}?  d is not adjacent to covered,
        # so pass only true neighbors {c}. With neighbors {c, d} given anyway,
        # c has 2 links into covered vs d's 0 and must win.
        assert lns_next_neighbor(query, ["a", "b"], ["c", "d"]) == "c"

    def test_next_neighbor_requires_candidates(self, triangle_query):
        with pytest.raises(ValueError):
            lns_next_neighbor(triangle_query, ["p"], [])

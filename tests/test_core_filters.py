"""Tests for the ECF/RWB filter matrices and candidate-set algebra.

The cells are read through :func:`repro.core.reference.decode_views`: the
engine's packed blocks decoded into the oracle's dict-of-set shape, queried
with the oracle's set algebra."""

from __future__ import annotations


from repro.constraints import ConstraintExpression
from repro.core import build_filters, compute_node_candidates
from repro.core.reference import decode_views
from repro.graphs import QueryNetwork


class TestFilterConstruction:
    def test_match_cells_follow_paper_update_rule(self, small_hosting, path_query,
                                                  window_constraint):
        filters = build_filters(path_query, small_hosting, window_constraint)
        # Query edge (x, y) requests [5, 35]; hosting edge (a, b) = 10ms matches,
        # so mapping x->a must list b as a candidate for y, and x<->y symmetric.
        views = decode_views(filters)
        assert "b" in views.cell("x", "a", "y")
        assert "a" in views.cell("y", "b", "x")
        # Hosting edge (b, c) = 50ms does not match (x, y): c must not be a
        # candidate for y when x -> b.
        assert "c" not in views.cell("x", "b", "y")

    def test_non_match_filter_records_rejections(self, small_hosting, path_query,
                                                 window_constraint):
        filters = build_filters(path_query, small_hosting, window_constraint)
        assert "c" in decode_views(filters).non_match_cell("x", "b", "y")

    def test_non_match_filter_can_be_disabled(self, small_hosting, path_query,
                                              window_constraint):
        with_nm = build_filters(path_query, small_hosting, window_constraint,
                                record_non_matches=True)
        without_nm = build_filters(path_query, small_hosting, window_constraint,
                                   record_non_matches=False)
        assert decode_views(without_nm).non_match == {}
        assert without_nm.entry_count < with_nm.entry_count
        # The match side is identical either way.
        assert decode_views(without_nm).match == decode_views(with_nm).match

    def test_trivial_constraint_matches_every_edge_pair(self, small_hosting, path_query):
        filters = build_filters(path_query, small_hosting,
                                ConstraintExpression.always_true())
        # With no constraints, every oriented hosting edge matches every query
        # edge, so every node's candidate set is every non-isolated host.
        for node in path_query.nodes():
            assert (decode_views(filters).node_candidates[node]
                    == set(small_hosting.nodes()))
        assert filters.constraint_evaluations == 0

    def test_constraint_evaluation_count(self, small_hosting, path_query,
                                         window_constraint):
        filters = build_filters(path_query, small_hosting, window_constraint)
        expected = path_query.num_edges * 2 * small_hosting.num_edges
        assert filters.constraint_evaluations == expected

    def test_entry_and_cell_counts_are_consistent(self, small_hosting, path_query,
                                                  window_constraint):
        filters = build_filters(path_query, small_hosting, window_constraint)
        assert filters.entry_count >= filters.cell_count
        assert filters.build_seconds >= 0.0


class TestCandidateSets:
    def test_unplaced_candidates_are_union_over_cells(self, small_hosting, path_query,
                                                      window_constraint):
        filters = decode_views(
            build_filters(path_query, small_hosting, window_constraint))
        unplaced = filters.candidates_unplaced("y")
        # y participates in both query edges; every host that appears in any
        # matching pair for those edges is a candidate.
        assert unplaced
        assert unplaced <= set(small_hosting.nodes())

    def test_candidates_given_intersects_neighbour_cells(self, small_hosting,
                                                         path_query, window_constraint):
        filters = decode_views(
            build_filters(path_query, small_hosting, window_constraint))
        # With x -> a placed, candidates for y must be adjacent to a with a
        # delay in [5, 35]: only b (10ms) and d (30ms).
        candidates = filters.candidates_given("y", [("x", "a")], used_hosts={"a"})
        assert candidates == {"b", "d"}

    def test_candidates_exclude_used_hosts(self, small_hosting, path_query,
                                           window_constraint):
        filters = decode_views(
            build_filters(path_query, small_hosting, window_constraint))
        candidates = filters.candidates_given("y", [("x", "a")], used_hosts={"a", "b"})
        assert candidates == {"d"}

    def test_empty_intersection_prunes_branch(self, small_hosting, path_query,
                                              window_constraint):
        filters = decode_views(
            build_filters(path_query, small_hosting, window_constraint))
        # Host c's only sufficiently fast neighbour for (x, y) is f (15ms)?  No:
        # (b, c)=50 and (c, f)=15; window is [5, 35] so only f qualifies; then
        # using f as "used" leaves nothing.
        candidates = filters.candidates_given("y", [("x", "c")], used_hosts={"c", "f"})
        assert candidates == set()

    def test_multiple_placed_neighbours_intersect(self, small_hosting,
                                                  triangle_query):
        filters = decode_views(build_filters(
            triangle_query, small_hosting, ConstraintExpression.always_true()))
        # p -> b and q -> e placed; r must be adjacent to both b and e.
        candidates = filters.candidates_given("r", [("p", "b"), ("q", "e")],
                                              used_hosts={"b", "e"})
        assert candidates == set()  # no hosting triangle exists through b-e


class TestNodeCandidates:
    def test_node_constraint_restricts_candidates(self, small_hosting, path_query):
        node_constraint = ConstraintExpression('rNode.osType == "linux"')
        allowed = compute_node_candidates(path_query, small_hosting, node_constraint)
        for node in path_query.nodes():
            assert allowed[node] == {"a", "b", "d", "f"}

    def test_no_constraint_allows_all(self, small_hosting, path_query):
        allowed = compute_node_candidates(path_query, small_hosting, None)
        assert allowed["x"] == set(small_hosting.nodes())

    def test_node_constraint_flows_into_filters(self, small_hosting, path_query,
                                                window_constraint):
        node_constraint = ConstraintExpression('rNode.osType == "linux"')
        filters = build_filters(path_query, small_hosting, window_constraint,
                                node_constraint=node_constraint)
        for node, candidates in decode_views(filters).node_candidates.items():
            assert "c" not in candidates and "e" not in candidates

    def test_isolated_query_node_gets_node_level_candidates(self, small_hosting):
        query = QueryNetwork("isolated")
        query.add_node("alone")
        filters = build_filters(query, small_hosting,
                                ConstraintExpression.always_true())
        assert (decode_views(filters).node_candidates["alone"]
                == set(small_hosting.nodes()))

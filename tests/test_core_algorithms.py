"""Behavioural tests for ECF, RWB and LNS on hand-built instances."""

from __future__ import annotations

import pytest
from conftest import search

from repro.constraints import ConstraintExpression
from repro.core import ECF, LNS, RWB, ResultStatus, is_valid_mapping, make_algorithm
from repro.graphs import HostingNetwork, QueryNetwork

ALL_ALGORITHMS = [ECF, RWB, LNS]


def algorithms():
    """Fresh, seeded instances of all three algorithms."""
    return [ECF(), RWB(rng=1234), LNS()]


class TestBasicSearch:
    @pytest.mark.parametrize("algorithm_cls", ALL_ALGORITHMS)
    def test_finds_known_embedding(self, algorithm_cls, small_hosting, path_query,
                                   window_constraint):
        algorithm = algorithm_cls()
        result = search(algorithm, path_query, small_hosting,
                        constraint=window_constraint)
        assert result.found
        for mapping in result.mappings:
            assert is_valid_mapping(mapping, path_query, small_hosting,
                                    window_constraint)

    @pytest.mark.parametrize("algorithm_cls", ALL_ALGORITHMS)
    def test_unconstrained_triangle_has_no_embedding(self, algorithm_cls,
                                                     small_hosting, triangle_query):
        # The small hosting network is triangle-free, so even without
        # attribute constraints the query cannot embed — and each algorithm
        # must *prove* it (complete status, zero mappings).
        result = search(algorithm_cls(), triangle_query, small_hosting)
        assert result.status is ResultStatus.COMPLETE
        assert result.count == 0
        assert result.proved_infeasible

    @pytest.mark.parametrize("algorithm_cls", ALL_ALGORITHMS)
    def test_query_larger_than_host_is_rejected_fast(self, algorithm_cls,
                                                     small_hosting):
        query = QueryNetwork("too-big")
        for index in range(small_hosting.num_nodes + 1):
            query.add_node(f"q{index}")
        result = search(algorithm_cls(), query, small_hosting)
        assert result.proved_infeasible

    @pytest.mark.parametrize("algorithm_cls", ALL_ALGORITHMS)
    def test_empty_query_gets_empty_mapping(self, algorithm_cls, small_hosting):
        result = search(algorithm_cls(), QueryNetwork("empty"), small_hosting)
        assert result.status is ResultStatus.COMPLETE
        assert result.count == 1
        assert len(result.first) == 0

    @pytest.mark.parametrize("algorithm_cls", ALL_ALGORITHMS)
    def test_single_node_query(self, algorithm_cls, small_hosting):
        query = QueryNetwork("one")
        query.add_node("only")
        result = search(algorithm_cls(), query, small_hosting)
        assert result.found
        hosts = {mapping["only"] for mapping in result.mappings}
        if result.status is ResultStatus.COMPLETE and result.count > 1:
            assert hosts <= set(small_hosting.nodes())

    @pytest.mark.parametrize("algorithm_cls", ALL_ALGORITHMS)
    def test_max_results_caps_output(self, algorithm_cls, small_hosting, path_query,
                                     window_constraint):
        result = search(algorithm_cls(), path_query, small_hosting,
                        constraint=window_constraint, max_results=1)
        assert result.count == 1
        assert result.status in (ResultStatus.PARTIAL, ResultStatus.COMPLETE)

    @pytest.mark.parametrize("algorithm_cls", ALL_ALGORITHMS)
    def test_node_constraint_respected(self, algorithm_cls, small_hosting, path_query,
                                       window_constraint):
        node_constraint = ConstraintExpression('rNode.osType == "linux"')
        result = search(algorithm_cls(), path_query, small_hosting,
                        constraint=window_constraint,
                        node_constraint=node_constraint)
        for mapping in result.mappings:
            for host in mapping.hosting_nodes():
                assert small_hosting.get_node_attr(host, "osType") == "linux"

    @pytest.mark.parametrize("algorithm_cls", ALL_ALGORITHMS)
    def test_constraint_as_plain_string(self, algorithm_cls, small_hosting, path_query):
        result = search(
            algorithm_cls(), path_query, small_hosting,
            constraint="rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay")
        assert result.found


class TestECFSpecifics:
    def test_enumerates_all_embeddings(self, small_hosting, path_query,
                                       window_constraint):
        result = search(ECF(), path_query, small_hosting, constraint=window_constraint)
        assert result.status is ResultStatus.COMPLETE
        # Mappings must be pairwise distinct.
        assert len(set(result.mappings)) == result.count
        # The identity-style embedding x->a, y->b, z->e must be among them.
        from repro.core import Mapping
        assert Mapping({"x": "a", "y": "b", "z": "e"}) in result.mappings

    def test_ordering_variants_agree_on_solution_set(self, small_hosting, path_query,
                                                     window_constraint):
        results = {
            ordering: search(ECF(ordering=ordering), path_query, small_hosting,
                             constraint=window_constraint)
            for ordering in ("candidate-count", "connectivity", "natural")
        }
        reference = set(results["candidate-count"].mappings)
        for ordering, result in results.items():
            assert set(result.mappings) == reference, ordering

    def test_invalid_ordering_rejected(self):
        with pytest.raises(ValueError):
            ECF(ordering="alphabetical")

    def test_filter_stats_populated(self, small_hosting, path_query, window_constraint):
        result = search(ECF(), path_query, small_hosting, constraint=window_constraint)
        assert result.stats.filter_entries > 0
        assert result.stats.constraint_evaluations > 0
        assert result.stats.nodes_expanded > 0


class TestRWBSpecifics:
    def test_default_stops_at_first_match(self, small_hosting, path_query,
                                          window_constraint):
        result = search(RWB(rng=7), path_query, small_hosting,
                        constraint=window_constraint)
        assert result.count == 1
        assert result.status is ResultStatus.PARTIAL

    def test_explicit_cap_returns_that_many(self, small_hosting, path_query,
                                            window_constraint):
        result = search(RWB(rng=7), path_query, small_hosting,
                        constraint=window_constraint, max_results=3)
        assert result.count == 3

    def test_seeded_runs_are_reproducible(self, small_hosting, path_query,
                                          window_constraint):
        first = search(RWB(rng=99), path_query, small_hosting,
                       constraint=window_constraint)
        second = search(RWB(rng=99), path_query, small_hosting,
                        constraint=window_constraint)
        assert first.mappings == second.mappings

    def test_different_seeds_can_find_different_embeddings(self, small_hosting,
                                                           path_query,
                                                           window_constraint):
        found = {search(RWB(rng=seed), path_query, small_hosting,
                        constraint=window_constraint).first
                 for seed in range(12)}
        assert len(found) > 1

    def test_proves_infeasibility_by_exhaustion(self, small_hosting, triangle_query):
        result = search(RWB(rng=5), triangle_query, small_hosting)
        assert result.proved_infeasible


class TestLNSSpecifics:
    def test_no_filter_matrices_are_built(self, small_hosting, path_query,
                                          window_constraint):
        result = search(LNS(), path_query, small_hosting, constraint=window_constraint)
        assert result.stats.filter_entries == 0
        assert result.found

    def test_disconnected_query_is_handled(self, small_hosting, window_constraint):
        query = QueryNetwork("two-components")
        for node in ("m", "n", "o", "p"):
            query.add_node(node)
        query.add_edge("m", "n", minDelay=5.0, maxDelay=35.0)
        query.add_edge("o", "p", minDelay=5.0, maxDelay=35.0)
        result = search(LNS(), query, small_hosting, constraint=window_constraint,
                        max_results=1)
        assert result.found
        mapping = result.first
        assert is_valid_mapping(mapping, query, small_hosting, window_constraint)


class TestDirectedNetworks:
    def _directed_pair(self):
        hosting = HostingNetwork("dh", directed=True)
        for node in "abc":
            hosting.add_node(node)
        hosting.add_edge("a", "b", avgDelay=10.0)
        hosting.add_edge("b", "c", avgDelay=10.0)
        hosting.add_edge("c", "a", avgDelay=10.0)
        query = QueryNetwork("dq", directed=True)
        query.add_node("x")
        query.add_node("y")
        query.add_edge("x", "y", maxDelay=20.0)
        return hosting, query

    @pytest.mark.parametrize("algorithm_cls", ALL_ALGORITHMS)
    def test_directed_edges_respected(self, algorithm_cls):
        hosting, query = self._directed_pair()
        result = search(algorithm_cls(), query, hosting,
                        constraint="rEdge.avgDelay <= vEdge.maxDelay")
        assert result.found
        for mapping in result.mappings:
            assert hosting.has_edge(mapping["x"], mapping["y"])

    def test_mismatched_directedness_rejected(self, small_hosting):
        query = QueryNetwork("directed", directed=True)
        query.add_node("x")
        with pytest.raises(ValueError):
            search(ECF(), query, small_hosting)


class TestTimeoutsAndValidation:
    def test_timeout_yields_partial_or_inconclusive(self, small_hosting, path_query,
                                                    window_constraint):
        # An absurdly small timeout forces the deadline path; whichever status
        # comes back must be consistent with the embeddings reported.
        result = search(ECF(), path_query, small_hosting, constraint=window_constraint,
                        timeout=1e-9)
        if result.timed_out:
            assert result.status in (ResultStatus.PARTIAL, ResultStatus.INCONCLUSIVE)
            assert (result.status is ResultStatus.PARTIAL) == result.found

    def test_invalid_arguments(self, small_hosting, path_query):
        with pytest.raises(ValueError):
            search(ECF(), path_query, small_hosting, timeout=-1)
        with pytest.raises(ValueError):
            search(ECF(), path_query, small_hosting, max_results=0)
        with pytest.raises(TypeError):
            search(ECF(), "not a query", small_hosting)
        with pytest.raises(TypeError):
            search(ECF(), path_query, small_hosting, constraint=42)

    def test_find_first_convenience(self, small_hosting, path_query,
                                    window_constraint):
        result = LNS().find_first(path_query, small_hosting,
                                  constraint=window_constraint)
        assert result.count == 1

    def test_make_algorithm_factory(self):
        assert isinstance(make_algorithm("ecf"), ECF)
        assert isinstance(make_algorithm("RWB", rng=1), RWB)
        assert isinstance(make_algorithm("lns"), LNS)
        with pytest.raises(ValueError):
            make_algorithm("quantum")

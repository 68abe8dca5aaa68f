"""Tests for the query/workload generators mirroring §VII's experiment inputs."""

from __future__ import annotations

import pytest
from conftest import search

from repro.core import ECF, LNS
from repro.topology.composite import LEVEL_ATTR, CompositeSpec
from repro.workloads import (
    DELAY_WINDOW_CONSTRAINT,
    SUITES,
    ChurnConfig,
    ChurnProcess,
    brite_host,
    churn_embedding_suite,
    build_clique_suite,
    build_composite_suite,
    build_subgraph_suite,
    clique_query,
    clique_query_series,
    composite_query,
    composite_query_series,
    make_globally_infeasible,
    planetlab_host,
    subgraph_query,
    subgraph_query_series,
    tighten_random_edges,
)


@pytest.fixture(scope="module")
def host():
    return planetlab_host(36, rng=5)


class TestSubgraphQueries:
    def test_query_carries_delay_windows(self, host):
        workload = subgraph_query(host, 6, rng=1)
        assert workload.feasible_by_construction
        assert workload.query.num_nodes == 6
        for u, v in workload.query.edges():
            attrs = workload.query.edge_attrs(u, v)
            assert attrs["minDelay"] < attrs["maxDelay"]

    def test_query_nodes_are_relabeled(self, host):
        workload = subgraph_query(host, 5, rng=2)
        assert all(str(node).startswith("q") for node in workload.query.nodes())
        assert not any(host.has_node(node) for node in workload.query.nodes())

    def test_sampled_query_is_actually_embeddable(self, host):
        workload = subgraph_query(host, 6, rng=3)
        result = search(LNS(), workload.query, host, constraint=workload.constraint,
                        max_results=1)
        assert result.found

    def test_zero_slack_still_feasible(self, host):
        workload = subgraph_query(host, 4, slack=0.0, rng=4)
        result = search(LNS(), workload.query, host, constraint=workload.constraint,
                        max_results=1)
        assert result.found

    def test_negative_slack_rejected(self, host):
        with pytest.raises(ValueError):
            subgraph_query(host, 4, slack=-0.1)

    def test_series_respects_sizes_and_count(self, host):
        series = subgraph_query_series(host, sizes=[4, 6], queries_per_size=3, rng=6)
        assert len(series) == 6
        assert sorted({w.query.num_nodes for w in series}) == [4, 6]

    def test_edge_factor_thins_queries(self, host):
        series = subgraph_query_series(host, sizes=[8], queries_per_size=2,
                                       edge_factor=1.2, rng=7)
        for workload in series:
            assert workload.query.num_edges <= int(1.2 * 8) + 1
            assert workload.query.is_connected()


class TestCliqueQueries:
    def test_structure_and_windows(self):
        workload = clique_query(5, 10.0, 100.0)
        assert workload.query.num_edges == 10
        for u, v in workload.query.edges():
            assert workload.query.get_edge_attr(u, v, "minDelay") == 10.0
            assert workload.query.get_edge_attr(u, v, "maxDelay") == 100.0
        assert not workload.feasible_by_construction

    def test_series(self):
        series = clique_query_series([2, 3, 4])
        assert [w.query.num_nodes for w in series] == [2, 3, 4]

    def test_small_clique_found_on_planetlab_like_host(self, host):
        workload = clique_query(3)
        result = search(LNS(), workload.query, host, constraint=workload.constraint,
                        max_results=1, timeout=10)
        # The 10-100ms band is well populated, so a triangle should exist.
        assert result.found

    def test_validation(self):
        with pytest.raises(ValueError):
            clique_query(1)


class TestCompositeQueries:
    def test_regular_constraints_by_level(self):
        spec = CompositeSpec(root_shape="ring", num_groups=3, group_shape="star",
                             group_size=3)
        workload = composite_query(spec, root_window=(75.0, 350.0),
                                   group_window=(1.0, 75.0))
        for u, v in workload.query.edges():
            attrs = workload.query.edge_attrs(u, v)
            if attrs[LEVEL_ATTR] == 0:
                assert (attrs["minDelay"], attrs["maxDelay"]) == (75.0, 350.0)
            else:
                assert (attrs["minDelay"], attrs["maxDelay"]) == (1.0, 75.0)

    def test_irregular_constraints_fall_in_band(self):
        spec = CompositeSpec(num_groups=3, group_size=3)
        workload = composite_query(spec, irregular_band=(25.0, 175.0), rng=8)
        for u, v in workload.query.edges():
            attrs = workload.query.edge_attrs(u, v)
            assert 25.0 <= attrs["minDelay"] < attrs["maxDelay"] <= 175.0

    def test_series_sizes(self):
        series = composite_query_series([8, 12], group_size=4, rng=9)
        assert [w.query.num_nodes for w in series] == [8, 12]
        irregular = composite_query_series([8], irregular=True, rng=9)
        assert "irregular" in irregular[0].description


class TestInfeasiblePerturbation:
    def test_globally_infeasible_is_proven_infeasible(self, host):
        workload = subgraph_query(host, 5, rng=10)
        infeasible = make_globally_infeasible(workload, host, rng=10)
        # Topology untouched, only attributes changed.
        assert infeasible.query.num_edges == workload.query.num_edges
        assert infeasible.query.num_nodes == workload.query.num_nodes
        result = search(ECF(), infeasible.query, host, constraint=infeasible.constraint)
        assert result.proved_infeasible

    def test_original_workload_is_not_mutated(self, host):
        workload = subgraph_query(host, 5, rng=11)
        before = {edge: dict(workload.query.edge_attrs(*edge))
                  for edge in workload.query.edges()}
        make_globally_infeasible(workload, host, rng=11)
        after = {edge: dict(workload.query.edge_attrs(*edge))
                 for edge in workload.query.edges()}
        assert before == after

    def test_perturbs_requested_number_of_edges(self, host):
        workload = subgraph_query(host, 6, rng=12)
        infeasible = make_globally_infeasible(workload, host, num_edges=3, rng=12)
        delays = [infeasible.query.get_edge_attr(u, v, "maxDelay")
                  for u, v in infeasible.query.edges()]
        global_min = min(host.edge_attribute_values("avgDelay"))
        assert sum(1 for d in delays if d < global_min) == 3

    def test_tighten_random_edges_shrinks_windows(self, host):
        workload = subgraph_query(host, 5, rng=13)
        tightened = tighten_random_edges(workload, factor=0.01, fraction=1.0, rng=13)
        for u, v in tightened.query.edges():
            original = workload.query.edge_attrs(u, v)
            new = tightened.query.edge_attrs(u, v)
            original_width = original["maxDelay"] - original["minDelay"]
            new_width = new["maxDelay"] - new["minDelay"]
            assert new_width <= original_width * 0.02 + 1e-6

    def test_validation(self, host):
        workload = subgraph_query(host, 4, rng=14)
        with pytest.raises(ValueError):
            tighten_random_edges(workload, factor=0.0)
        with pytest.raises(ValueError):
            tighten_random_edges(workload, fraction=2.0)


class TestSuites:
    def test_registry_covers_all_figures(self):
        assert set(SUITES) == {"fig8", "fig10", "fig11", "fig13", "fig14"}
        for suite in SUITES.values():
            assert suite.benchmark.hosting_nodes <= suite.paper.hosting_nodes
            assert max(suite.benchmark.query_sizes) <= max(suite.paper.query_sizes)

    def test_suite_scale_selection(self):
        suite = SUITES["fig8"]
        assert suite.scale(benchmark=True) is suite.benchmark
        assert suite.scale(benchmark=False) is suite.paper

    def test_build_subgraph_suite(self, host):
        scale = SUITES["fig8"].benchmark
        scale = type(scale)(hosting_nodes=host.num_nodes, query_sizes=(4, 6),
                            queries_per_size=2)
        workloads = build_subgraph_suite(host, scale, rng=15)
        assert len(workloads) == 4

    def test_build_clique_and_composite_suites(self):
        scale = SUITES["fig13"].benchmark
        cliques = build_clique_suite(scale)
        assert len(cliques) == len(scale.query_sizes)
        composites = build_composite_suite(SUITES["fig14"].benchmark, irregular=False,
                                           rng=16)
        assert len(composites) == len(SUITES["fig14"].benchmark.query_sizes)

    def test_hosts(self):
        pl = planetlab_host(20, rng=17)
        br = brite_host(20, rng=17)
        assert pl.num_nodes == 20 and br.num_nodes == 20
        assert pl.num_edges > br.num_edges    # near-clique vs power-law sparse

    def test_default_constraint_is_the_window_expression(self):
        assert "vEdge.minDelay" in DELAY_WINDOW_CONSTRAINT.source
        assert "vEdge.maxDelay" in DELAY_WINDOW_CONSTRAINT.source


class TestChurnProcess:
    def test_tick_touches_the_configured_fractions(self, host):
        network = host.copy()
        churn = ChurnProcess(network, ChurnConfig(link_fraction=0.1,
                                                  node_fraction=0.25), rng=1)
        tick = churn.tick()
        assert tick.index == 1 and churn.ticks == 1
        assert len(tick.touched_edges) == round(0.1 * network.num_edges)
        assert 0 < len(tick.touched_nodes) <= round(0.25 * network.num_nodes)
        assert not tick.structural

    def test_ticks_are_journal_replayable_attr_deltas(self, host):
        network = host.copy()
        base = network.mutation_count
        ChurnProcess(network, ChurnConfig(), rng=2).tick()
        delta = network.delta_since(base)
        assert delta is not None and delta.attrs_only and not delta.empty

    def test_delay_jitter_is_baseline_anchored(self, host):
        network = host.copy()
        baselines = {tuple(sorted(e, key=str)):
                     network.get_edge_attr(*e, "avgDelay")
                     for e in network.edges()}
        churn = ChurnProcess(network, ChurnConfig(link_fraction=1.0,
                                                  delay_jitter=0.2), rng=3)
        for _ in range(25):
            churn.tick()
        for u, v in network.edges():
            baseline = baselines[tuple(sorted((u, v), key=str))]
            delay = network.get_edge_attr(u, v, "avgDelay")
            assert baseline * 0.8 - 0.001 <= delay <= baseline * 1.2 + 0.001

    def test_same_seed_replays_the_same_trace(self, host):
        ticks_a = ChurnProcess(host.copy(), ChurnConfig(), rng=4).run(5)
        ticks_b = ChurnProcess(host.copy(), ChurnConfig(), rng=4).run(5)
        assert [(t.touched_edges, t.touched_nodes) for t in ticks_a] \
            == [(t.touched_edges, t.touched_nodes) for t in ticks_b]

    def test_structural_churn_removes_and_restores_links(self, host):
        network = host.copy()
        edges_before = network.num_edges
        churn = ChurnProcess(network, ChurnConfig(
            link_fraction=0.0, node_fraction=0.0,
            edge_failure_probability=1.0, edge_recovery_probability=1.0),
            rng=5)
        first = churn.tick()
        assert len(first.removed_edges) == 1 and first.structural
        assert network.num_edges == edges_before - 1
        second = churn.tick()
        assert len(second.restored_edges) == 1
        # The restored link carries its original attributes.
        (u, v) = second.restored_edges[0]
        assert network.get_edge_attr(u, v, "avgDelay") is not None

    def test_up_down_flags_are_attributes_not_removals(self, host):
        network = host.copy()
        nodes_before = network.num_nodes
        churn = ChurnProcess(network, ChurnConfig(node_fraction=1.0,
                                                  failure_probability=1.0),
                             rng=6)
        tick = churn.tick()
        assert network.num_nodes == nodes_before
        assert tick.went_down
        assert all(network.get_node_attr(n, "up") is False
                   for n in tick.went_down)

    def test_suite_queries_are_feasible_by_construction(self, host):
        workloads = churn_embedding_suite(host, num_queries=2, query_size=5,
                                          rng=7)
        assert len(workloads) == 2
        for workload in workloads:
            assert workload.feasible_by_construction
            result = ECF().find_first(workload.query, host,
                                      constraint=workload.constraint)
            assert result.found

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChurnConfig(link_fraction=1.5)

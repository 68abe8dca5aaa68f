"""End-to-end integration tests crossing module boundaries.

These exercise the realistic flows a NETEMBED user would run: GraphML in →
service → embeddings out; monitored models; reservations shrinking the
candidate space; the full experiment harness feeding the reporting layer.
"""

from __future__ import annotations

import pytest
from conftest import search

from repro import (
    ECF,
    ConstraintExpression,
    NetEmbedService,
    QueryNetwork,
    is_valid_mapping,
    read_graphml,
    write_graphml,
)
from repro.analysis import aggregate_series, format_figure, run_workloads
from repro.analysis.experiments import default_algorithms
from repro.constraints.builder import (
    all_of,
    host_delay_within_query_window,
    node_attribute_binding,
)
from repro.extensions import best_mapping, total_delay_cost
from repro.service import MonitorConfig, NegotiationSession
from repro.workloads import (
    SuiteScale,
    build_subgraph_suite,
    planetlab_host,
    subgraph_query,
)


@pytest.fixture(scope="module")
def hosting():
    return planetlab_host(32, rng=77)


class TestGraphmlToServiceFlow:
    def test_full_pipeline(self, hosting, tmp_path):
        """GraphML file -> service registration -> query -> valid embeddings."""
        host_path = write_graphml(hosting, tmp_path / "planetlab.graphml")

        # The query also travels through GraphML, as a real client would send it.
        workload = subgraph_query(hosting, 6, rng=1)
        query_path = write_graphml(workload.query, tmp_path / "query.graphml")

        service = NetEmbedService(rng=5)
        service.register_network_from_graphml(host_path, name="planetlab")
        query = read_graphml(query_path, cls=QueryNetwork)

        response = service.embed(query, constraint=workload.constraint,
                                 algorithm="ECF", max_results=5)
        assert response.found
        reloaded_host = service.registry.get("planetlab")
        for mapping in response.mappings:
            assert is_valid_mapping(mapping, query, reloaded_host,
                                    workload.constraint)

    def test_os_binding_constraint_through_service(self, hosting):
        """A query with OS requirements only lands on hosts with that OS."""
        workload = subgraph_query(hosting, 4, rng=3)
        query = workload.query
        for node in query.nodes():
            query.update_node(node, osType="linux-2.6")
        constraint = ConstraintExpression(all_of(
            host_delay_within_query_window(),
            node_attribute_binding("osType", "vSource", "rSource"),
            node_attribute_binding("osType", "vTarget", "rTarget"),
        ))
        service = NetEmbedService()
        service.register_network(hosting)
        response = service.embed(query, constraint=constraint, algorithm="ECF",
                                 max_results=3)
        for mapping in response.mappings:
            for host in mapping.hosting_nodes():
                assert hosting.get_node_attr(host, "osType") == "linux-2.6"


class TestMonitoredServiceFlow:
    def test_node_failures_exclude_hosts(self, hosting):
        service = NetEmbedService(rng=2)
        service.register_network(hosting, name="pl")
        monitor = service.attach_monitor(
            "pl", config=MonitorConfig(failure_probability=0.3,
                                       recovery_probability=0.0), rng=11)
        monitor.tick()
        down = set(monitor.down_nodes())
        assert down, "expected some nodes to fail with probability 0.3"

        workload = subgraph_query(hosting, 5, rng=4)
        response = service.embed(workload.query, constraint=workload.constraint,
                                 node_constraint="rNode.up == true",
                                 algorithm="LNS", max_results=1)
        if response.found:
            assert not (set(response.first.hosting_nodes()) & down)

    def test_negotiation_after_monitor_shift(self, hosting):
        service = NetEmbedService(rng=2)
        service.register_network(hosting, name="pl")
        workload = subgraph_query(hosting, 5, slack=0.10, rng=9)
        # Jitter the delays so the tight windows may stop matching, then let
        # the negotiation session relax them until they match again.  Each
        # relaxation round widens every window by `relaxation_step` times its
        # width on both sides, so two rounds (±0.2·d on top of the ±0.1·d
        # window) are guaranteed to re-cover the ±20% monitor jitter.
        service.attach_monitor("pl", config=MonitorConfig(delay_jitter=0.2,
                                                          failure_probability=0.0),
                               rng=13).run(2)
        session = NegotiationSession(service, relaxation_step=1.0, max_rounds=5)
        outcome = session.negotiate(workload.query, constraint=workload.constraint,
                                    algorithm="ECF")
        assert outcome.succeeded


class TestReservationFlow:
    def test_capacity_shrinks_candidate_space_across_requests(self, hosting):
        for node in hosting.nodes():
            hosting.set_capacity(node, 1.0)
        service = NetEmbedService(rng=6)
        service.register_network(hosting, name="pl")

        from repro.service import CAPACITY_NODE_CONSTRAINT, with_default_demand

        first = subgraph_query(hosting, 5, rng=21)
        with_default_demand(first.query)
        response_a = service.embed(first.query, constraint=first.constraint,
                                   node_constraint=CAPACITY_NODE_CONSTRAINT,
                                   algorithm="ECF", max_results=1, reserve=True)
        assert response_a.found and response_a.reservation_id

        second = subgraph_query(hosting, 5, rng=22)
        with_default_demand(second.query)
        response_b = service.embed(second.query, constraint=second.constraint,
                                   node_constraint=CAPACITY_NODE_CONSTRAINT,
                                   algorithm="ECF", max_results=1, reserve=True)
        if response_b.found:
            # The second embedding cannot reuse any host held by the first.
            assert not (set(response_a.first.hosting_nodes())
                        & set(response_b.first.hosting_nodes()))


class TestOptimisationFlow:
    def test_min_delay_embedding_is_selected(self, hosting):
        workload = subgraph_query(hosting, 5, rng=31)
        result = search(ECF(), workload.query, hosting, constraint=workload.constraint,
                        max_results=25)
        assert result.found
        best = best_mapping(result, workload.query, hosting, total_delay_cost)
        costs = [total_delay_cost(workload.query, hosting, m) for m in result.mappings]
        assert best.cost == pytest.approx(min(costs))


class TestHarnessToReportingFlow:
    def test_rows_aggregate_and_render(self, hosting):
        scale = SuiteScale(hosting_nodes=hosting.num_nodes, query_sizes=(4, 6),
                           queries_per_size=2)
        workloads = build_subgraph_suite(hosting, scale, rng=41)
        rows = run_workloads(hosting, workloads, default_algorithms(42), timeout=5,
                             max_results=1)
        series = aggregate_series(rows, value_field="total_ms")
        rendered = format_figure(series, title="integration smoke")
        assert "integration smoke" in rendered
        assert "ECF" in rendered and "LNS" in rendered
        sizes_in_series = {row["size"] for row in series}
        assert sizes_in_series == {4, 6}

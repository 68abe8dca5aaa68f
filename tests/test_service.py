"""Tests for the NETEMBED service layer: registry, monitor, reservations,
negotiation sessions and the facade."""

from __future__ import annotations

import pytest
from conftest import search

from repro.graphs import QueryNetwork, write_graphml
from repro.service import (
    CAPACITY_NODE_CONSTRAINT,
    MonitorConfig,
    NegotiationSession,
    NetEmbedService,
    NetworkModelRegistry,
    QuerySpec,
    ReservationError,
    ReservationManager,
    SimulatedMonitor,
    UnknownNetworkError,
    with_default_demand,
)
from repro.workloads import planetlab_host


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #

class TestRegistry:
    def test_register_and_get(self, small_hosting):
        registry = NetworkModelRegistry()
        name = registry.register(small_hosting)
        assert name == "small-host"
        assert registry.get() is small_hosting
        assert registry.get("small-host") is small_hosting
        assert "small-host" in registry
        assert len(registry) == 1

    def test_first_network_becomes_default(self, small_hosting):
        registry = NetworkModelRegistry()
        registry.register(small_hosting, name="one")
        other = small_hosting.copy(name="two")
        registry.register(other, name="two")
        assert registry.default_name == "one"
        registry.register(other, name="three", default=True)
        assert registry.default_name == "three"

    def test_reregistering_bumps_version(self, small_hosting):
        registry = NetworkModelRegistry()
        registry.register(small_hosting, name="net")
        assert registry.version("net") == 0
        registry.register(small_hosting.copy(), name="net")
        assert registry.version("net") == 1
        registry.touch("net")
        assert registry.version("net") == 2

    def test_unknown_network_raises(self):
        registry = NetworkModelRegistry()
        with pytest.raises(UnknownNetworkError):
            registry.get("ghost")

    def test_only_hosting_networks_accepted(self):
        registry = NetworkModelRegistry()
        with pytest.raises(TypeError):
            registry.register(QueryNetwork("q"))

    def test_unregister(self, small_hosting):
        registry = NetworkModelRegistry()
        registry.register(small_hosting, name="net")
        registry.unregister("net")
        assert len(registry) == 0
        assert registry.default_name is None
        with pytest.raises(UnknownNetworkError):
            registry.unregister("net")


# --------------------------------------------------------------------------- #
# Monitor
# --------------------------------------------------------------------------- #

class TestMonitor:
    def test_tick_bumps_model_version_and_jitters_delays(self, small_hosting):
        registry = NetworkModelRegistry()
        registry.register(small_hosting, name="net")
        monitor = SimulatedMonitor(registry, "net",
                                   config=MonitorConfig(delay_jitter=0.5,
                                                        failure_probability=0.0),
                                   rng=3)
        before = {edge: small_hosting.get_edge_attr(*edge, "avgDelay")
                  for edge in small_hosting.edges()}
        version = monitor.tick()
        assert version == 1
        assert monitor.ticks == 1
        after = {edge: small_hosting.get_edge_attr(*edge, "avgDelay")
                 for edge in small_hosting.edges()}
        assert any(before[edge] != after[edge] for edge in before)
        # min <= avg <= max is preserved.
        for u, v in small_hosting.edges():
            attrs = small_hosting.edge_attrs(u, v)
            assert attrs["minDelay"] <= attrs["avgDelay"] <= attrs["maxDelay"]

    def test_jitter_stays_bounded_around_baseline(self, small_hosting):
        registry = NetworkModelRegistry()
        registry.register(small_hosting, name="net")
        monitor = SimulatedMonitor(registry, "net",
                                   config=MonitorConfig(delay_jitter=0.1,
                                                        failure_probability=0.0),
                                   rng=4)
        monitor.run(cycles=20)
        # After many cycles the delay must stay within ±10% of the baseline
        # (jitter is applied to the baseline, not compounded).
        assert small_hosting.get_edge_attr("a", "b", "avgDelay") == pytest.approx(
            10.0, rel=0.11)

    def test_failures_and_recoveries(self, small_hosting):
        registry = NetworkModelRegistry()
        registry.register(small_hosting, name="net")
        monitor = SimulatedMonitor(registry, "net",
                                   config=MonitorConfig(failure_probability=1.0,
                                                        recovery_probability=1.0),
                                   rng=5)
        monitor.tick()
        assert len(monitor.down_nodes()) == small_hosting.num_nodes
        monitor.tick()
        assert len(monitor.down_nodes()) == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MonitorConfig(delay_jitter=1.5)

    def test_run_negative_cycles_rejected(self, small_hosting):
        registry = NetworkModelRegistry()
        registry.register(small_hosting, name="net")
        monitor = SimulatedMonitor(registry, "net")
        with pytest.raises(ValueError):
            monitor.run(-1)


# --------------------------------------------------------------------------- #
# Reservations
# --------------------------------------------------------------------------- #

class TestReservations:
    def _prepared_host(self, small_hosting):
        for node in small_hosting.nodes():
            small_hosting.set_capacity(node, 2.0)
        return small_hosting

    def test_reserve_and_release(self, small_hosting, path_query, window_constraint):
        from repro.core import ECF
        hosting = self._prepared_host(small_hosting)
        result = search(ECF(), path_query, hosting, constraint=window_constraint,
                        max_results=1)
        manager = ReservationManager()
        reservation = manager.reserve(hosting, "net", result.first)
        assert len(manager) == 1
        for host in result.first.hosting_nodes():
            assert hosting.available_capacity(host) == pytest.approx(1.0)
        manager.release(reservation.reservation_id, hosting)
        for host in result.first.hosting_nodes():
            assert hosting.available_capacity(host) == pytest.approx(2.0)
        assert len(manager) == 0

    def test_insufficient_capacity_is_atomic(self, small_hosting):
        hosting = self._prepared_host(small_hosting)
        hosting.update_node("b", available_capacity=0.5)
        from repro.core import Mapping
        manager = ReservationManager()
        with pytest.raises(ReservationError):
            manager.reserve(hosting, "net", Mapping({"x": "a", "y": "b"}))
        # Node a must not have been charged.
        assert hosting.available_capacity("a") == pytest.approx(2.0)

    def test_missing_capacity_attribute_rejected(self, small_hosting):
        from repro.core import Mapping
        manager = ReservationManager()
        with pytest.raises(ReservationError):
            manager.reserve(small_hosting, "net", Mapping({"x": "a"}))

    def test_double_release_rejected(self, small_hosting):
        hosting = self._prepared_host(small_hosting)
        from repro.core import Mapping
        manager = ReservationManager()
        reservation = manager.reserve(hosting, "net", Mapping({"x": "a"}))
        manager.release(reservation.reservation_id, hosting)
        with pytest.raises(ReservationError):
            manager.release(reservation.reservation_id, hosting)

    def test_capacity_node_constraint_excludes_full_hosts(self, small_hosting,
                                                          path_query,
                                                          window_constraint):
        from repro.core import ECF
        hosting = self._prepared_host(small_hosting)
        hosting.update_node("a", available_capacity=0.0)
        with_default_demand(path_query, demand=1.0)
        result = search(ECF(), path_query, hosting, constraint=window_constraint,
                        node_constraint=CAPACITY_NODE_CONSTRAINT)
        assert result.found
        for mapping in result.mappings:
            assert "a" not in mapping.hosting_nodes()


# --------------------------------------------------------------------------- #
# Service facade
# --------------------------------------------------------------------------- #

class TestNetEmbedService:
    @pytest.fixture
    def service(self, small_hosting):
        service = NetEmbedService(rng=7)
        service.register_network(small_hosting, name="lab")
        return service

    def test_embed_returns_valid_mappings(self, service, path_query,
                                          window_constraint, small_hosting):
        from repro.core import is_valid_mapping
        response = service.embed(path_query, constraint=window_constraint)
        assert response.found
        assert response.network_name == "lab"
        for mapping in response.mappings:
            assert is_valid_mapping(mapping, path_query, small_hosting,
                                    window_constraint)

    def test_submit_full_spec(self, service, path_query, window_constraint):
        spec = QuerySpec(query=path_query, constraint=window_constraint,
                         algorithm="ECF", max_results=2)
        response = service.submit(spec)
        assert response.algorithm_used == "ECF"
        assert 1 <= len(response.mappings) <= 2

    def test_algorithm_selection_explicit(self, service, path_query,
                                          window_constraint):
        for name in ("ECF", "RWB", "LNS"):
            response = service.embed(path_query, constraint=window_constraint,
                                     algorithm=name, max_results=1)
            assert response.algorithm_used == name

    def test_auto_selection_uses_lns_for_dense_single_match(self, path_query,
                                                            window_constraint):
        service = NetEmbedService()
        service.register_network(planetlab_host(24, rng=1), name="dense")
        response = service.embed(path_query, constraint=window_constraint,
                                 max_results=1)
        assert response.algorithm_used == "LNS"

    def test_auto_selection_uses_ecf_for_full_enumeration(self, service, path_query,
                                                          window_constraint):
        response = service.embed(path_query, constraint=window_constraint)
        assert response.algorithm_used == "ECF"

    def test_unknown_network_raises(self, service, path_query):
        with pytest.raises(UnknownNetworkError):
            service.embed(path_query, network="ghost")

    def test_no_network_registered_raises(self, path_query):
        with pytest.raises(ValueError):
            NetEmbedService().embed(path_query)

    def test_invalid_algorithm_rejected_at_spec_level(self, path_query):
        with pytest.raises(ValueError):
            QuerySpec(query=path_query, algorithm="magic")

    def test_register_from_graphml(self, tmp_path, small_hosting, path_query,
                                   window_constraint):
        path = write_graphml(small_hosting, tmp_path / "host.graphml")
        service = NetEmbedService()
        service.register_network_from_graphml(path, name="from-file")
        response = service.embed(path_query, constraint=window_constraint,
                                 algorithm="LNS", max_results=1)
        assert response.network_name == "from-file"
        assert response.found

    def test_reserve_through_service(self, small_hosting, path_query,
                                     window_constraint):
        for node in small_hosting.nodes():
            small_hosting.set_capacity(node, 1.0)
        service = NetEmbedService()
        service.register_network(small_hosting, name="lab")
        response = service.embed(path_query, constraint=window_constraint,
                                 algorithm="ECF", max_results=1, reserve=True)
        assert response.reservation_id is not None
        used = response.first.hosting_nodes()
        assert all(small_hosting.available_capacity(h) == 0.0 for h in used)
        service.release(response.reservation_id)
        assert all(small_hosting.available_capacity(h) == 1.0 for h in used)

    def test_monitor_attachment_and_reembedding(self, service, path_query,
                                                window_constraint):
        monitor = service.attach_monitor("lab", config=MonitorConfig(
            delay_jitter=0.05, failure_probability=0.0), rng=9)
        assert service.monitor("lab") is monitor
        before = service.registry.version("lab")
        monitor.run(3)
        assert service.registry.version("lab") == before + 3
        response = service.embed(path_query, constraint=window_constraint,
                                 algorithm="LNS", max_results=1)
        assert response.found

    def test_default_timeout_validation(self):
        with pytest.raises(ValueError):
            NetEmbedService(default_timeout=0)


# --------------------------------------------------------------------------- #
# Negotiation
# --------------------------------------------------------------------------- #

class TestNegotiation:
    def test_feasible_query_succeeds_without_relaxation(self, small_hosting,
                                                        path_query,
                                                        window_constraint):
        service = NetEmbedService()
        service.register_network(small_hosting)
        session = NegotiationSession(service)
        outcome = session.negotiate(path_query, constraint=window_constraint,
                                    algorithm="ECF")
        assert outcome.succeeded
        assert outcome.relaxation_used == 0.0
        assert len(outcome.rounds) == 1

    def test_tight_query_needs_relaxation(self, small_hosting, window_constraint):
        query = QueryNetwork("tight")
        query.add_node("x")
        query.add_node("y")
        # No hosting link has avgDelay in [11, 12], but widening the window
        # far enough eventually reaches 10ms (edge a-b).
        query.add_edge("x", "y", minDelay=11.0, maxDelay=12.0)
        service = NetEmbedService()
        service.register_network(small_hosting)
        session = NegotiationSession(service, relaxation_step=1.0, max_rounds=4)
        outcome = session.negotiate(query, constraint=window_constraint,
                                    algorithm="ECF")
        assert outcome.succeeded
        assert outcome.relaxation_used > 0.0
        # The caller's query object must not have been modified.
        assert query.get_edge_attr("x", "y", "minDelay") == 11.0

    def test_impossible_query_fails_after_max_rounds(self, small_hosting,
                                                     window_constraint):
        query = QueryNetwork("impossible")
        for node in ("x", "y", "z"):
            query.add_node(node)
        query.add_edge("x", "y", minDelay=1.0, maxDelay=2.0)
        query.add_edge("y", "z", minDelay=1.0, maxDelay=2.0)
        query.add_edge("x", "z", minDelay=1.0, maxDelay=2.0)   # triangle: impossible
        service = NetEmbedService()
        service.register_network(small_hosting)
        session = NegotiationSession(service, relaxation_step=0.1, max_rounds=2)
        outcome = session.negotiate(query, constraint=window_constraint)
        assert not outcome.succeeded
        assert len(outcome.rounds) == 2

    def test_parameter_validation(self, small_hosting):
        service = NetEmbedService()
        service.register_network(small_hosting)
        with pytest.raises(ValueError):
            NegotiationSession(service, relaxation_step=0)
        with pytest.raises(ValueError):
            NegotiationSession(service, max_rounds=0)

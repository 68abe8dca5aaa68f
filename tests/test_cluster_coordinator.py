"""Two-level cluster search: differential oracle vs the monolithic engine."""

from __future__ import annotations

import random

import pytest

from repro.cluster import ClusterCoordinator, ClusterService, split_query
from repro.core.ecf import ECF
from repro.core.mapping import validate_mapping
from repro.api.request import SearchRequest
from repro.service import QuerySpec
from repro.workloads import (
    DELAY_WINDOW_CONSTRAINT,
    cross_partition_query,
    federated_planetlab,
    make_globally_infeasible,
    planetlab_host,
    subgraph_query,
)


@pytest.fixture(scope="module")
def hosting():
    return planetlab_host(48, rng=11)


@pytest.fixture(scope="module")
def coordinator(hosting):
    return ClusterCoordinator(hosting, attribute="region")


class TestSinglePartition:
    def test_feasible_by_construction_found_and_valid(self, hosting, coordinator):
        # Sample the query from inside the largest partition, so a
        # single-partition placement is guaranteed to exist.
        largest = max(coordinator.partition_map.names,
                      key=lambda p: len(coordinator.partition_map.nodes_of(p)))
        interior = hosting.subnetwork(coordinator.partition_map.nodes_of(largest))
        workload = subgraph_query(interior, 5, rng=3)
        result = coordinator.embed(workload.query,
                                   constraint=workload.constraint, seed=7)
        assert result.verdict == "feasible"
        mapping = result.first
        assert not validate_mapping(mapping, workload.query, hosting,
                                    workload.constraint)
        if not result.used_cross_partition:
            # The fragment assignment pins every node to the one partition.
            assert set(result.fragment_assignment.values()) == {result.partition}
            for host in mapping.hosting_nodes():
                assert (coordinator.partition_map.partition_of(host)
                        == result.partition)

    def test_plan_cache_reused_on_repeat(self, hosting, coordinator):
        workload = subgraph_query(hosting, 4, rng=5)
        before = coordinator.plans.stats()["hits"]
        coordinator.embed(workload.query, constraint=workload.constraint, seed=1)
        coordinator.embed(workload.query, constraint=workload.constraint, seed=1)
        assert coordinator.plans.stats()["hits"] > before

    def test_unknown_partition_order_raises(self, coordinator, path_query):
        with pytest.raises(KeyError):
            coordinator.embed(path_query, partition_order=["atlantis"])

    def test_bounded_working_set(self, hosting, coordinator):
        stats = coordinator.stats()
        assert stats["max_partition_nodes"] < hosting.num_nodes
        for worker in coordinator.workers.values():
            assert worker.network.num_nodes < hosting.num_nodes
        # Boundary structure is the only cross-partition state and is a
        # strict sub-network too.
        assert stats["boundary_nodes"] <= hosting.num_nodes
        assert stats["quotient_edges"] <= len(coordinator.workers) ** 2


class TestDifferentialOracle:
    """Partitioned verdicts must agree with the monolithic engine."""

    def test_feasible_workloads_agree(self, hosting, coordinator):
        for seed in (2, 9, 17):
            workload = subgraph_query(hosting, 5, rng=seed)
            mono = ECF().request(SearchRequest.build(
                workload.query, hosting, constraint=workload.constraint,
                timeout=10.0, max_results=1))
            cluster = coordinator.embed(workload.query,
                                        constraint=workload.constraint,
                                        timeout=10.0, seed=seed)
            assert mono.found
            assert cluster.verdict in ("feasible", "unknown")
            if cluster.verdict == "feasible":
                assert not validate_mapping(cluster.first, workload.query,
                                            hosting, workload.constraint)

    def test_infeasible_refutation_agrees(self, hosting, coordinator):
        workload = make_globally_infeasible(
            subgraph_query(hosting, 4, rng=21), hosting, rng=21)
        cluster = coordinator.embed(workload.query,
                                    constraint=workload.constraint,
                                    timeout=10.0)
        assert cluster.verdict == "infeasible"
        mono = ECF().request(SearchRequest.build(
            workload.query, hosting, constraint=workload.constraint,
            timeout=10.0))
        assert mono.proved_infeasible

    def test_never_feasible_when_oracle_refutes(self, hosting, coordinator):
        # Sweep a few sizes: whenever the cluster claims feasibility the
        # mapping must survive the monolithic validator (checked above), and
        # whenever it claims infeasibility the monolithic engine must agree.
        for size, seed in ((3, 31), (6, 32), (8, 33)):
            workload = subgraph_query(hosting, size, rng=seed)
            cluster = coordinator.embed(workload.query,
                                        constraint=workload.constraint,
                                        timeout=10.0, seed=seed)
            if cluster.verdict == "infeasible":
                mono = ECF().request(SearchRequest.build(
                    workload.query, hosting, constraint=workload.constraint,
                    timeout=10.0))
                assert mono.proved_infeasible


class TestCrossPartition:
    @pytest.fixture(scope="class")
    def federated(self):
        host = federated_planetlab(4, 30, rng=random.Random(3))
        coordinator = ClusterCoordinator(host, attribute="zone")
        return host, coordinator

    def test_split_query_contiguous_cover(self, federated):
        host, coordinator = federated
        workload = cross_partition_query(host, coordinator.partition_map,
                                         num_nodes=6, rng=random.Random(7))
        fragments = split_query(workload.query, 2)
        covered = [n for frag in fragments for n in frag]
        assert sorted(covered) == sorted(workload.query.nodes())
        assert len(fragments) == 2

    def test_wide_area_query_stitched_across_partitions(self, federated):
        host, coordinator = federated
        workload = cross_partition_query(host, coordinator.partition_map,
                                         num_nodes=6, rng=random.Random(7))
        result = coordinator.embed(workload.query,
                                   constraint=workload.constraint,
                                   timeout=30.0, seed=11)
        assert result.verdict == "feasible"
        assert result.used_cross_partition
        mapping = result.first
        assert not validate_mapping(mapping, workload.query, host,
                                    workload.constraint)
        spanned = {coordinator.partition_map.partition_of(r)
                   for r in mapping.hosting_nodes()}
        assert len(spanned) >= 2
        assert set(result.fragment_assignment.values()) == spanned

    def test_stitched_mapping_respects_boundary(self, federated):
        host, coordinator = federated
        workload = cross_partition_query(host, coordinator.partition_map,
                                         num_nodes=6, rng=random.Random(19))
        result = coordinator.embed(workload.query,
                                   constraint=workload.constraint,
                                   timeout=30.0, seed=5)
        if not result.used_cross_partition or not result.found:
            pytest.skip("this draw embedded without crossing partitions")
        mapping = result.first
        assignment = coordinator.partition_map.assignment
        for u, v in workload.query.edges():
            ru, rv = mapping[u], mapping[v]
            if assignment[ru] != assignment[rv]:
                # Every cut query edge landed on a real boundary edge.
                assert coordinator.boundary.has_edge(ru, rv)


class TestReplicationRefresh:
    def test_attribute_delta_refresh(self):
        hosting = planetlab_host(30, rng=4)
        coordinator = ClusterCoordinator(hosting, attribute="region")
        assert coordinator.refresh() == {"changed": False, "mode": "noop"}
        u, v = hosting.edges()[0]
        hosting.update_edge(u, v, avgDelay=123.0)
        report = coordinator.refresh()
        assert report["mode"] == "delta"
        part = coordinator.partition_map.assignment[u]
        worker = coordinator.workers[part]
        if worker.network.has_edge(u, v):
            assert worker.network.get_edge_attr(u, v, "avgDelay") == 123.0

    def test_structural_churn_resyncs_and_places_new_nodes(self):
        hosting = planetlab_host(30, rng=4)
        coordinator = ClusterCoordinator(hosting, attribute="region")
        victim = hosting.nodes()[0]
        hosting.remove_node(victim)
        hosting.add_node("fresh-site", region="asia")
        report = coordinator.refresh()
        assert report["mode"] in ("structural-resync", "overflow-resync")
        assert victim not in coordinator.partition_map.assignment
        assert coordinator.partition_map.partition_of("fresh-site") == "asia"


class _SpyECF(ECF):
    """ECF that records the deadline each prepare was given."""

    def __init__(self):
        super().__init__()
        self.deadlines = []

    def prepare(self, request, deadline=None):
        self.deadlines.append(deadline)
        return super().prepare(request, deadline=deadline)


class TestPartitionWorkerPlanPath:
    @pytest.fixture
    def worker_and_workload(self, hosting):
        # A private coordinator: these tests count plan-cache entries.
        coordinator = ClusterCoordinator(hosting, attribute="region")
        largest = max(coordinator.partition_map.names,
                      key=lambda p: len(coordinator.partition_map.nodes_of(p)))
        worker = coordinator.workers[largest]
        return worker, subgraph_query(worker.network, 4, rng=3)

    def test_cold_compile_runs_under_the_requests_timeout(
            self, worker_and_workload):
        worker, workload = worker_and_workload
        spy = _SpyECF()
        result = worker.search(workload.query, spy, workload.constraint, None,
                               timeout=5.0, max_results=1)
        assert result.found
        (deadline,) = spy.deadlines
        assert deadline is not None and deadline.seconds == 5.0
        assert worker.plans.stats()["size"] == 1

    def test_expired_compile_times_out_and_caches_nothing(
            self, worker_and_workload):
        worker, workload = worker_and_workload
        spy = _SpyECF()
        result = worker.search(workload.query, spy, workload.constraint, None,
                               timeout=1e-9, max_results=1)
        assert result.timed_out and not result.found
        (deadline,) = spy.deadlines     # the one-shot path does not prepare()
        assert deadline.expired()
        stats = worker.plans.stats()
        assert (stats["size"], stats["misses"]) == (0, 1)

    def test_cache_false_is_the_one_shot_path(self, worker_and_workload):
        worker, workload = worker_and_workload
        spy = _SpyECF()
        cached = worker.search(workload.query, spy, workload.constraint, None,
                               timeout=5.0, max_results=3)
        before = worker.plans.stats()
        uncached = worker.search(workload.query, spy, workload.constraint,
                                 None, timeout=5.0, max_results=3,
                                 cache=False)
        assert uncached.mappings == cached.mappings
        assert len(spy.deadlines) == 1
        assert worker.plans.stats() == before


class TestClusterService:
    def test_submit_reserve_release(self):
        # Own hosting instance: reservations charge capacity, which the
        # shared module fixture deliberately does not declare.
        hosting = planetlab_host(48, rng=11)
        for node in hosting.nodes():
            hosting.set_capacity(node, 4.0)
        probe = ClusterCoordinator(hosting, attribute="region")
        largest = max(probe.partition_map.names,
                      key=lambda p: len(probe.partition_map.nodes_of(p)))
        interior = hosting.subnetwork(probe.partition_map.nodes_of(largest))
        with ClusterService(default_timeout=10.0, attribute="region") as service:
            service.register_network(hosting, name="pl", default=True)
            workload = subgraph_query(interior, 4, rng=13)
            response = service.submit(QuerySpec(
                query=workload.query, constraint=workload.constraint,
                reserve=True, seed=2))
            assert response.found
            assert response.algorithm_used.startswith("cluster+")
            assert response.reservation_id is not None
            stats = service.stats()
            assert "pl" in stats["cluster"]
            assert stats["cluster"]["pl"]["partitions"] >= 2
            service.release(response.reservation_id)

    def test_submit_batch_order(self, hosting, coordinator):
        largest = max(coordinator.partition_map.names,
                      key=lambda p: len(coordinator.partition_map.nodes_of(p)))
        interior = hosting.subnetwork(coordinator.partition_map.nodes_of(largest))
        with ClusterService(default_timeout=10.0, attribute="region") as service:
            service.register_network(hosting, default=True)
            workloads = [subgraph_query(interior, 4, rng=s) for s in (1, 2, 3)]
            responses = service.submit_batch([
                QuerySpec(query=w.query, constraint=w.constraint)
                for w in workloads])
            assert len(responses) == 3
            for workload, response in zip(workloads, responses):
                assert response.spec.query is workload.query
                assert response.found

    def test_monitor_churn_flows_through_replication(self):
        hosting = planetlab_host(30, rng=8)
        with ClusterService(default_timeout=10.0, attribute="region") as service:
            service.register_network(hosting, default=True)
            monitor = service.attach_monitor(rng=5)
            pmap = service.coordinator().partition_map
            largest = max(pmap.names, key=lambda p: len(pmap.nodes_of(p)))
            interior = hosting.subnetwork(pmap.nodes_of(largest))
            workload = subgraph_query(interior, 4, rng=6)
            first = service.submit(QuerySpec(query=workload.query,
                                             constraint=workload.constraint))
            assert first.found
            monitor.tick()
            second = service.submit(QuerySpec(query=workload.query,
                                              constraint=workload.constraint))
            assert second.found
            replication = service.stats()["cluster"][
                first.network_name]["replication"]
            assert (replication["deltas_applied"] > 0
                    or replication["full_resyncs"] > 0)


def test_cli_partition_command(tmp_path):
    from repro.cli import main
    from repro.graphs import write_graphml

    host = planetlab_host(30, rng=2)
    host_path = tmp_path / "host.graphml"
    write_graphml(host, host_path)
    workload = subgraph_query(host, 4, rng=3)
    query_path = tmp_path / "query.graphml"
    write_graphml(workload.query, query_path)
    code = main(["partition", "--hosting", str(host_path),
                 "--attribute", "region",
                 "--query", str(query_path),
                 "--constraint", DELAY_WINDOW_CONSTRAINT.source,
                 "--seed", "4", "--json"])
    assert code == 0

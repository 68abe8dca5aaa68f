"""The inherited service surface, held to one contract on both engines.

:class:`~repro.service.NetEmbedService` and
:class:`~repro.cluster.ClusterService` are the same
:class:`~repro.service.EmbeddingService` shell over different engines, so
everything the shell owns — WAL attach / replay, ``stream`` and ``release``,
network resolution, the repair ticket checks, batch ordering, the ``stats()``
skeleton, the context manager, the ``spec.cache`` opt-out and the per-service
algorithm registry — must behave identically whichever engine answers.  Every
test here runs once per engine.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.api.registry import (
    AlgorithmRegistry,
    Capability,
    UnknownAlgorithmError,
)
from repro.cluster import ClusterService, PartitionMap
from repro.core.ecf import ECF
from repro.core.mapping import validate_mapping
from repro.graphs.query import QueryNetwork
from repro.service import (
    EmbeddingService,
    NetEmbedService,
    QuerySpec,
    ReservationError,
    UnknownNetworkError,
)
from repro.service.wal import WALError
from repro.workloads import (
    Workload,
    planetlab_host,
    subgraph_query,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
NETWORK = "pl"


def capacity_hosting():
    """A 30-site scene with uniform host capacity (fresh object per call)."""
    hosting = planetlab_host(30, rng=8)
    for node in hosting.nodes():
        hosting.set_capacity(node, 4.0)
    return hosting


def interior_workload(seed: int, size: int = 4):
    """A feasible query sampled inside the largest region, so both engines
    can place it (the partitioned one without crossing a cut)."""
    hosting = capacity_hosting()
    pmap = PartitionMap.by_attribute(hosting, "region")
    largest = max(pmap.names, key=lambda p: (len(pmap.nodes_of(p)), p))
    return subgraph_query(hosting.subnetwork(pmap.nodes_of(largest)), size,
                          rng=seed)


def make_service(kind: str, **kwargs) -> EmbeddingService:
    if kind == "monolith":
        service = NetEmbedService(default_timeout=10.0, **kwargs)
    else:
        service = ClusterService(default_timeout=10.0, attribute="region",
                                 **kwargs)
    service.register_network(capacity_hosting(), name=NETWORK, default=True)
    return service


@pytest.fixture(params=["monolith", "cluster"])
def kind(request) -> str:
    return request.param


@pytest.fixture
def service(kind):
    with make_service(kind) as svc:
        yield svc


def spec_for(workload, **kwargs) -> QuerySpec:
    kwargs.setdefault("algorithm", "ECF")
    kwargs.setdefault("max_results", 1)
    return QuerySpec(query=workload.query, constraint=workload.constraint,
                     **kwargs)


def capacities(service) -> list:
    network = service.registry.get(NETWORK)
    return [(node, network.available_capacity(node))
            for node in sorted(network.nodes(), key=str)]


def shape(document):
    """Keys and nesting of a stats document, values dropped.  Per-name maps
    (networks, partitions) keep their names: the scene is the same."""
    if isinstance(document, dict):
        return {key: shape(value) for key, value in document.items()}
    return None


# --------------------------------------------------------------------------- #
# WAL attach / replay
# --------------------------------------------------------------------------- #

CHILD_SCRIPT = textwrap.dedent("""\
    import sys, time
    sys.path.insert(0, sys.argv[1])
    from test_service_contract import interior_workload, make_service, spec_for

    service = make_service(sys.argv[2])
    service.attach_wal(sys.argv[3])
    for seed in (1, 2, 3):
        response = service.submit(spec_for(interior_workload(seed),
                                           reserve=True))
        print(f"COMMIT {response.reservation_id}", flush=True)
    time.sleep(60)
""")


class TestWal:
    def test_fresh_log_report_shape(self, service, tmp_path):
        wal = tmp_path / "rsv.wal"
        report = service.attach_wal(wal)
        assert report == {
            "path": str(wal), "records": 0,
            "applied": {"reserve": 0, "rebind": 0, "release": 0},
            "active": 0, "skipped": 0,
        }
        assert service.stats()["wal"] == {"path": str(wal), "fsync_batch": 1}

    def test_replay_after_a_kill(self, kind, tmp_path):
        wal = tmp_path / "rsv.wal"
        child = tmp_path / "child.py"
        child.write_text(CHILD_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, str(child), os.path.dirname(__file__), kind,
             str(wal)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        committed = []
        try:
            while len(committed) < 3:
                line = proc.stdout.readline()
                assert line, f"child exited early: {proc.stderr.read()}"
                if line.startswith("COMMIT "):
                    committed.append(line.split()[1])
            proc.send_signal(signal.SIGKILL)
            proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:     # pragma: no cover - cleanup path
                proc.kill()
                proc.communicate()

        # The same deterministic grants, made by a service that lived.
        with make_service(kind) as reference:
            for seed in (1, 2, 3):
                reference.submit(spec_for(interior_workload(seed),
                                          reserve=True))
            expected = json.dumps(reference.reservations.snapshot(),
                                  sort_keys=True)
            expected_capacity = capacities(reference)

        with make_service(kind) as recovered:
            report = recovered.attach_wal(wal)
            assert report["applied"] == {"reserve": 3, "rebind": 0,
                                         "release": 0}
            assert report["active"] == 3 and report["skipped"] == 0
            assert [r["id"] for r in recovered.reservations.snapshot()
                    ] == sorted(committed)
            assert json.dumps(recovered.reservations.snapshot(),
                              sort_keys=True) == expected
            assert capacities(recovered) == expected_capacity

    def test_context_manager_closes_the_wal(self, kind, tmp_path):
        with make_service(kind) as service:
            service.attach_wal(tmp_path / "rsv.wal")
            wal = service.reservations.wal
            service.submit_batch([spec_for(interior_workload(1))])
            assert service.executor is not None
        with pytest.raises(WALError, match="is closed"):
            wal.append({})
        assert service.executor is None


# --------------------------------------------------------------------------- #
# Submit / stream / release
# --------------------------------------------------------------------------- #

class TestRequestLifecycle:
    def test_stream_refuses_reserve_and_yields_valid_mappings(self, service):
        workload = interior_workload(4)
        with pytest.raises(ValueError, match="reserve=True"):
            service.stream(spec_for(workload, reserve=True))
        mappings = list(service.stream(spec_for(workload)))
        assert mappings
        hosting = service.registry.get(NETWORK)
        for mapping in mappings:
            assert not validate_mapping(mapping, workload.query, hosting,
                                        workload.constraint)

    def test_release_restores_capacity(self, service):
        before = capacities(service)
        response = service.submit(spec_for(interior_workload(5),
                                           reserve=True))
        assert response.reservation_id is not None
        assert capacities(service) != before
        service.release(response.reservation_id)
        assert capacities(service) == before
        assert service.stats()["reservations"]["active"] == 0

    def test_unknown_network_is_a_lookup_error(self, service):
        with pytest.raises(UnknownNetworkError):
            service.submit(spec_for(interior_workload(1), network="nowhere"))

    def test_embed_keywords_reach_submit(self, service):
        workload = interior_workload(2)
        response = service.embed(workload.query,
                                 constraint=workload.constraint,
                                 algorithm="ECF", max_results=1)
        assert response.found and response.network_name == NETWORK

    def test_batch_keeps_order_and_collects_per_slot_errors(self, service):
        workloads = [interior_workload(seed) for seed in (1, 2, 3)]
        specs = [spec_for(workloads[0]),
                 spec_for(workloads[1], network="nowhere"),
                 spec_for(workloads[2])]
        results = service.submit_batch(specs, return_exceptions=True)
        assert isinstance(results[1], UnknownNetworkError)
        for index in (0, 2):
            assert results[index].spec is specs[index]
            assert results[index].found
        with pytest.raises(UnknownNetworkError):
            service.submit_batch(specs)


# --------------------------------------------------------------------------- #
# Repair
# --------------------------------------------------------------------------- #

class TestRepair:
    def test_ticket_without_query_context_is_rejected(self, service):
        response = service.submit(spec_for(interior_workload(6)))
        bare = service.reservations.reserve(service.registry.get(NETWORK),
                                            NETWORK, response.first)
        with pytest.raises(ReservationError, match="no query context"):
            service.repair(bare.reservation_id)

    def test_released_ticket_is_rejected_and_intact_is_reported(self, service):
        response = service.submit(spec_for(interior_workload(6),
                                           reserve=True))
        assert service.repair(response.reservation_id).status == "intact"
        service.release(response.reservation_id)
        with pytest.raises(ReservationError, match="no longer active"):
            service.repair(response.reservation_id)

    def test_broken_link_is_repaired_and_rebound(self, service):
        # Any measured link fits these windows, so a single broken link
        # always leaves somewhere to move to.
        query = QueryNetwork("loose-path")
        for node in ("x", "y", "z"):
            query.add_node(node)
        query.add_edge("x", "y", minDelay=0.0, maxDelay=1e5)
        query.add_edge("y", "z", minDelay=0.0, maxDelay=1e5)
        workload = Workload(query=query)
        response = service.submit(spec_for(workload, reserve=True))
        hosting = service.registry.get(NETWORK)
        u, v = "x", "y"
        mapping = response.first
        hosting.update_edge(mapping[u], mapping[v], avgDelay=1e6)
        held = sum(4.0 - free for _, free in capacities(service))

        repaired = service.repair(response.reservation_id)
        assert repaired.status == "repaired" and repaired.error is None
        rebound = service.reservations.get(response.reservation_id).mapping
        assert rebound == repaired.result.mapping and rebound != mapping
        assert not validate_mapping(rebound, workload.query, hosting,
                                    workload.constraint)
        # Capacity moved with the placements; none was leaked or minted.
        assert sum(4.0 - free for _, free in capacities(service)) == held


# --------------------------------------------------------------------------- #
# Plan-cache opt-out and the per-service algorithm registry
# --------------------------------------------------------------------------- #

class TestEngineKnobsTheShellPassesDown:
    def test_cache_false_answers_the_same_and_leaves_the_cache_alone(
            self, service):
        workload = interior_workload(3)
        cached = service.submit(spec_for(workload))
        before = service.plans.stats()
        assert before["size"] >= 1
        uncached = service.submit(spec_for(workload, cache=False))
        assert uncached.mappings == cached.mappings
        assert uncached.status == cached.status
        after = service.plans.stats()
        assert after == before      # size, misses, hits: nothing moved

    def test_cache_false_from_cold_caches_nothing(self, service):
        response = service.submit(spec_for(interior_workload(3),
                                           cache=False))
        assert response.found
        stats = service.plans.stats()
        assert stats["size"] == 0 and stats["misses"] == 0

    def test_names_resolve_through_the_services_own_registry(self, kind):
        custom = AlgorithmRegistry()
        custom.register("house-ecf", ECF,
                        capabilities=[Capability.COMPLETE_ENUMERATION])
        with make_service(kind, algorithms=custom) as service:
            workload = interior_workload(3)
            response = service.submit(spec_for(
                workload, algorithm="house-ecf", registry=custom))
            assert response.found
            assert response.algorithm_used.endswith("ECF")
            # Valid process-wide, absent from this service's registry.
            with pytest.raises(UnknownAlgorithmError):
                service.submit(spec_for(workload, algorithm="RWB"))


# --------------------------------------------------------------------------- #
# stats()
# --------------------------------------------------------------------------- #

COMMON_SHAPE = {
    "default_timeout": None,
    "plan_cache": {key: None for key in (
        "capacity", "size", "hits", "misses", "evictions", "invalidations",
        "patched", "recompiled")},
    "reservations": None,       # filled from the ledger's own snapshot below
    "networks": {NETWORK: {
        "version": None, "nodes": None, "edges": None, "mutation_epoch": None,
        "journal": {"entries": None, "capacity": None, "floor_epoch": None},
        "monitor_ticks": None}},
    "pools": {"batch_threads": {"created": None, "max_workers": None}},
    "wal": None,
    "faults": None,
}


class TestStats:
    def test_golden_shape(self, kind, service):
        golden = dict(COMMON_SHAPE)
        golden["reservations"] = shape(service.reservations.stats())
        golden["pools"] = dict(golden["pools"])
        if kind == "monolith":
            golden["pools"]["shard_processes"] = {"created": None,
                                                 "max_workers": None}
            golden["pools"]["supervisor"] = shape(
                service.stats()["pools"]["supervisor"])
        else:
            golden["cluster"] = {NETWORK: shape(
                service.coordinator().stats())}
        document = service.stats()
        assert shape(document) == golden
        json.dumps(document)        # plain JSON-serialisable values only

    def test_common_keys_have_one_shape_on_both_engines(self):
        with make_service("monolith") as a, make_service("cluster") as b:
            for svc in (a, b):
                svc.attach_monitor(rng=5).tick()
            left, right = shape(a.stats()), shape(b.stats())
        assert set(right) - set(left) == {"cluster"}
        assert set(left) - set(right) == set()
        assert (set(left["pools"]) - set(right["pools"])
                == {"shard_processes", "supervisor"})
        del right["cluster"]
        left["pools"] = {"batch_threads": left["pools"]["batch_threads"]}
        assert left == right

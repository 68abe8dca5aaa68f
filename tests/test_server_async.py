"""End-to-end tests for the asyncio serving tier.

Each test spins up a real :class:`EmbeddingServer` on a loopback socket
(port 0) inside ``asyncio.run`` and talks to it with the real
:class:`AsyncNetEmbedClient` — the full protocol path, not mocks.  Tests
that need to control timing inject a stub service whose ``submit`` blocks
on an event, so overload scenarios are deterministic rather than sleep-based.
"""

from __future__ import annotations

import asyncio
import threading
from types import SimpleNamespace

import pytest

from repro.server import (
    AdmissionConfig,
    AsyncNetEmbedClient,
    EmbeddingServer,
    ServerConfig,
    ServiceRegistry,
    TenantPolicy,
    mapping_payload,
)
from repro.service import NetEmbedService, QuerySpec


def run(coro):
    return asyncio.run(coro)


def make_registry(small_hosting, **admission_kwargs) -> ServiceRegistry:
    service = NetEmbedService(default_timeout=5.0)
    service.register_network(small_hosting)
    config = ServerConfig(default_timeout=5.0, engine_workers=1,
                          admission=AdmissionConfig(**admission_kwargs))
    return ServiceRegistry(config=config, service=service)


class StubAlgorithms:
    def names(self):
        return ["stub"]

    def __contains__(self, name):
        return name == "stub"


class BlockingService:
    """A stand-in engine whose ``submit`` blocks until released.

    Lets overload tests decide exactly when the (single) engine worker
    frees up, instead of racing against real search latency.
    """

    def __init__(self) -> None:
        self.release = threading.Event()
        self.calls = []
        self.algorithms = StubAlgorithms()

    def submit(self, spec):
        self.calls.append(spec)
        self.release.wait(timeout=10.0)
        return SimpleNamespace(status=SimpleNamespace(value="ok"),
                               algorithm_used="stub", network_name="stub-net",
                               mappings=[], elapsed_seconds=0.0)

    def stats(self):
        return {"calls": len(self.calls)}


def blocking_registry(**admission_kwargs) -> tuple:
    service = BlockingService()
    config = ServerConfig(engine_workers=1,
                          admission=AdmissionConfig(**admission_kwargs))
    registry = ServiceRegistry(config=config, service=service)
    return registry, service


# --------------------------------------------------------------------------- #
# Round trips and parity
# --------------------------------------------------------------------------- #

class TestRoundTrip:
    def test_ping(self, small_hosting):
        async def scenario():
            async with EmbeddingServer(make_registry(small_hosting)) as server:
                async with await AsyncNetEmbedClient.connect(
                        server.host, server.port) as client:
                    return await client.ping()

        pong = run(scenario())
        assert pong["kind"] == "pong" and pong["protocol"] == 1

    def test_embed_matches_direct_service_call(self, small_hosting,
                                               path_query):
        """Accepted responses are byte-identical to direct engine calls."""
        constraint = "rEdge.avgDelay <= vEdge.maxDelay"
        spec = QuerySpec(query=path_query, constraint=constraint,
                         algorithm="ecf", seed=7)

        async def scenario():
            async with EmbeddingServer(make_registry(small_hosting)) as server:
                async with await AsyncNetEmbedClient.connect(
                        server.host, server.port) as client:
                    return await client.embed(
                        path_query, constraint=constraint,
                        algorithm="ecf", seed=7)

        response = run(scenario())
        direct = NetEmbedService(default_timeout=5.0)
        direct.register_network(small_hosting)
        expected = direct.submit(spec)
        assert response["kind"] == "result"
        assert response["status"] == expected.status.value
        assert response["algorithm"] == expected.algorithm_used
        assert response["mappings"] == [mapping_payload(m)
                                        for m in expected.mappings]
        assert response["mappings"]  # the scenario actually finds embeddings

    def test_concurrent_requests_correlated_by_id(self, small_hosting,
                                                  path_query, triangle_query):
        """Interleaved requests come back matched to their callers."""
        async def scenario():
            async with EmbeddingServer(make_registry(small_hosting)) as server:
                async with await AsyncNetEmbedClient.connect(
                        server.host, server.port) as client:
                    return await asyncio.gather(*[
                        client.embed(path_query if i % 2 == 0
                                     else triangle_query,
                                     algorithm="ecf")
                        for i in range(6)
                    ])

        responses = run(scenario())
        assert all(r["kind"] == "result" for r in responses)
        # Every path-query answer found mappings; the triangle has none on
        # this hosting graph — so a mix-up would be visible immediately.
        for i, response in enumerate(responses):
            if i % 2 == 0:
                assert response["mappings"]
            else:
                assert response["mappings"] == []


# --------------------------------------------------------------------------- #
# Overload: bounded queue, structured sheds
# --------------------------------------------------------------------------- #

class TestOverload:
    def test_burst_beyond_queue_sheds_rest(self, path_query):
        """1 worker + depth-2 queue + 5 requests = 3 served, 2 shed."""
        registry, engine = blocking_registry(max_queue_depth=2)

        async def scenario():
            async with EmbeddingServer(registry) as server:
                async with await AsyncNetEmbedClient.connect(
                        server.host, server.port) as client:
                    tasks = [asyncio.ensure_future(
                        client.embed(path_query, algorithm="stub"))
                        for _ in range(5)]
                    # Wait until the sheds have answered and the engine is
                    # busy with the first request before releasing it.
                    while sum(t.done() for t in tasks) < 2:
                        await asyncio.sleep(0.01)
                    engine.release.set()
                    responses = await asyncio.gather(*tasks)
                    metrics = await client.metrics()
                    return responses, metrics

        responses, metrics = run(scenario())
        kinds = [r["kind"] for r in responses]
        assert kinds.count("result") == 3
        assert kinds.count("shed") == 2
        assert all(r["reason"] == "queue-full" for r in responses
                   if r["kind"] == "shed")
        admission = metrics["admission"]
        assert admission["offered"] == 5
        assert admission["admitted"] == 3
        assert admission["shed"]["queue-full"] == 2
        assert len(engine.calls) == 3

    def test_tenant_rate_limit_over_the_wire(self, path_query):
        registry, engine = blocking_registry(
            default_policy=TenantPolicy(rate=0.001, burst=1))
        engine.release.set()  # no need to block for this one

        async def scenario():
            async with EmbeddingServer(registry) as server:
                async with await AsyncNetEmbedClient.connect(
                        server.host, server.port) as client:
                    first = await client.embed(path_query, algorithm="stub",
                                               tenant="t")
                    second = await client.embed(path_query, algorithm="stub",
                                                tenant="t")
                    return first, second

        first, second = run(scenario())
        assert first["kind"] == "result"
        assert second["kind"] == "shed"
        assert second["reason"] == "tenant-rate"
        assert second["tenant"] == "t"
        assert second["retry_after"] > 0

    def test_shutdown_sheds_queued_answers_inflight(self, path_query):
        """stop() answers queued work as shed and finishes inflight work."""
        registry, engine = blocking_registry(max_queue_depth=4)

        async def scenario():
            server = await EmbeddingServer(registry).start()
            client = await AsyncNetEmbedClient.connect(
                server.host, server.port)
            inflight = asyncio.ensure_future(
                client.embed(path_query, algorithm="stub"))
            queued = asyncio.ensure_future(
                client.embed(path_query, algorithm="stub"))
            while not engine.calls or registry.admission.queued < 1:
                await asyncio.sleep(0.01)
            engine.release.set()
            await server.stop()
            responses = await asyncio.gather(inflight, queued)
            await client.close()
            return responses

        inflight_resp, queued_resp = run(scenario())
        assert inflight_resp["kind"] == "result"
        assert queued_resp["kind"] == "shed"
        assert queued_resp["reason"] == "server-shutdown"


# --------------------------------------------------------------------------- #
# Deadlines: expired requests never reach the engine
# --------------------------------------------------------------------------- #

class TestDeadlines:
    def test_dead_on_arrival_never_reaches_engine(self, path_query):
        registry, engine = blocking_registry()

        async def scenario():
            async with EmbeddingServer(registry) as server:
                async with await AsyncNetEmbedClient.connect(
                        server.host, server.port) as client:
                    return await client.embed(path_query, algorithm="stub",
                                              deadline=1e-9)

        response = run(scenario())
        assert response["kind"] == "shed"
        assert response["reason"] == "deadline-expired"
        assert engine.calls == []

    def test_predicted_miss_shed_by_cost_model(self, path_query):
        registry, engine = blocking_registry()
        engine.release.set()
        # Prime the model: this workload is known to cost ~10s.
        cost_key = (None, "stub", path_query.name, path_query.num_nodes,
                    path_query.num_edges, None, None)
        registry.cost_model.observe(cost_key, 10.0)

        async def scenario():
            async with EmbeddingServer(registry) as server:
                async with await AsyncNetEmbedClient.connect(
                        server.host, server.port) as client:
                    hopeless = await client.embed(
                        path_query, algorithm="stub", deadline=0.5)
                    fine = await client.embed(
                        path_query, algorithm="stub", deadline=60.0)
                    return hopeless, fine

        hopeless, fine = run(scenario())
        assert hopeless["kind"] == "shed"
        assert hopeless["reason"] == "deadline-unreachable"
        assert fine["kind"] == "result"
        assert len(engine.calls) == 1  # only the feasible request ran

    def test_expired_in_queue_shed_at_dispatch(self, path_query):
        """A deadline that dies while queued is answered, never executed."""
        registry, engine = blocking_registry(max_queue_depth=4)

        async def scenario():
            async with EmbeddingServer(registry) as server:
                async with await AsyncNetEmbedClient.connect(
                        server.host, server.port) as client:
                    blocker = asyncio.ensure_future(
                        client.embed(path_query, algorithm="stub"))
                    while not engine.calls:
                        await asyncio.sleep(0.01)
                    doomed = asyncio.ensure_future(
                        client.embed(path_query, algorithm="stub",
                                     deadline=0.05))
                    while registry.admission.queued < 1:
                        await asyncio.sleep(0.01)
                    await asyncio.sleep(0.08)  # let the deadline lapse
                    engine.release.set()
                    return await asyncio.gather(blocker, doomed)

        blocker_resp, doomed_resp = run(scenario())
        assert blocker_resp["kind"] == "result"
        assert doomed_resp["kind"] == "shed"
        assert doomed_resp["reason"] == "deadline-expired"
        assert len(engine.calls) == 1  # the doomed request never executed


# --------------------------------------------------------------------------- #
# Metrics endpoint
# --------------------------------------------------------------------------- #

class TestMetrics:
    def test_metrics_folds_service_admission_and_transport(self, small_hosting,
                                                           path_query):
        async def scenario():
            registry = make_registry(small_hosting)
            async with EmbeddingServer(registry) as server:
                async with await AsyncNetEmbedClient.connect(
                        server.host, server.port) as client:
                    for _ in range(2):  # second hit warms the plan cache
                        await client.embed(path_query, algorithm="ecf")
                    return await client.metrics(), registry

        metrics, registry = run(scenario())
        assert set(metrics) == {"service", "admission", "server"}
        # The service block is NetEmbedService.stats() verbatim.
        assert metrics["service"]["plan_cache"]["hits"] == 1
        assert metrics["service"]["plan_cache"]["misses"] == 1
        assert "small-host" in metrics["service"]["networks"]
        # Admission accounting is consistent with what was offered.
        admission = metrics["admission"]
        assert admission["offered"] == 2
        assert admission["admitted"] + admission["shed_total"] == 2
        assert admission["completed"] == 2
        # Transport counters come from the server itself.
        server_block = metrics["server"]
        assert server_block["requests"]["embed"] == 2
        assert server_block["connections_total"] == 1
        assert server_block["engine_slots_free"] == 1

    def test_metrics_marks_cache_bypass_for_over_quota_tenant(
            self, small_hosting, path_query, triangle_query):
        """Beyond its plan quota a tenant is served via the one-shot path."""
        async def scenario():
            registry = make_registry(
                small_hosting,
                tenants={"t": TenantPolicy(max_plans=1)})
            async with EmbeddingServer(registry) as server:
                async with await AsyncNetEmbedClient.connect(
                        server.host, server.port) as client:
                    first = await client.embed(path_query, algorithm="ecf",
                                               tenant="t")
                    second = await client.embed(triangle_query,
                                                algorithm="ecf", tenant="t")
                    return first, second, await client.metrics()

        first, second, metrics = run(scenario())
        assert first["kind"] == second["kind"] == "result"
        assert first["cache_allowed"] is True
        assert second["cache_allowed"] is False
        assert metrics["admission"]["cache_bypassed"] == 1
        # Only the first workload's plan entered the cache.
        assert metrics["service"]["plan_cache"]["size"] == 1


# --------------------------------------------------------------------------- #
# Protocol errors
# --------------------------------------------------------------------------- #

class TestErrors:
    def test_bad_op(self, small_hosting):
        async def scenario():
            async with EmbeddingServer(make_registry(small_hosting)) as server:
                async with await AsyncNetEmbedClient.connect(
                        server.host, server.port) as client:
                    return await client.request({"op": "teleport"})

        response = run(scenario())
        assert response["kind"] == "error" and response["error"] == "bad-op"

    def test_unknown_algorithm_is_bad_request(self, small_hosting,
                                              path_query):
        async def scenario():
            async with EmbeddingServer(make_registry(small_hosting)) as server:
                async with await AsyncNetEmbedClient.connect(
                        server.host, server.port) as client:
                    return await client.embed(path_query,
                                              algorithm="quantum-annealer")

        response = run(scenario())
        assert response["kind"] == "error"
        assert response["error"] == "bad-request"
        assert "quantum-annealer" in response["message"]

    @pytest.mark.parametrize("field", [{"max_results": 0}, {"seed": "abc"},
                                       {"timeout": -1}],
                             ids=["max_results", "seed", "timeout"])
    def test_malformed_spec_field_is_refused_before_admission(
            self, small_hosting, path_query, field):
        """A frame the QuerySpec would reject is answered ``bad-request``
        on arrival: it is never offered to admission, let alone run."""
        async def scenario():
            async with EmbeddingServer(make_registry(small_hosting)) as server:
                async with await AsyncNetEmbedClient.connect(
                        server.host, server.port) as client:
                    response = await client.embed(path_query, **field)
                    return response, server.stats()["admission"]

        response, admission = run(scenario())
        assert response["kind"] == "error"
        assert response["error"] == "bad-request"
        assert next(iter(field)) in response["message"]
        assert admission["offered"] == 0

    def test_bad_query_payload_is_bad_request(self, small_hosting):
        async def scenario():
            async with EmbeddingServer(make_registry(small_hosting)) as server:
                async with await AsyncNetEmbedClient.connect(
                        server.host, server.port) as client:
                    return await client.request(
                        {"op": "embed", "query": {"nodes": "oops"}})

        response = run(scenario())
        assert response["kind"] == "error"
        assert response["error"] == "bad-request"

    def test_malformed_json_answers_then_hangs_up(self, small_hosting):
        async def scenario():
            async with EmbeddingServer(make_registry(small_hosting)) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                writer.write(b"this is not json\n")
                await writer.drain()
                line = await reader.readline()
                eof = await reader.readline()
                writer.close()
                await writer.wait_closed()
                return line, eof, server.stats()

        line, eof, stats = run(scenario())
        assert b'"error": "protocol"' in line or b'"error":"protocol"' in line
        assert eof == b""  # server hung up after answering
        assert stats["server"]["protocol_errors"] == 1

    def test_engine_exception_becomes_error_response(self, path_query):
        class ExplodingService(BlockingService):
            def submit(self, spec):
                raise RuntimeError("engine on fire")

        service = ExplodingService()
        registry = ServiceRegistry(config=ServerConfig(engine_workers=1),
                                   service=service)

        async def scenario():
            async with EmbeddingServer(registry) as server:
                async with await AsyncNetEmbedClient.connect(
                        server.host, server.port) as client:
                    response = await client.embed(path_query,
                                                  algorithm="stub")
                    follow_up = await client.ping()
                    return response, follow_up

        response, follow_up = run(scenario())
        assert response["kind"] == "error"
        assert response["error"] == "RuntimeError"
        assert "engine on fire" in response["message"]
        assert follow_up["kind"] == "pong"  # the server survived

    def test_deadline_must_be_positive_number(self, small_hosting,
                                              path_query):
        async def scenario():
            async with EmbeddingServer(make_registry(small_hosting)) as server:
                async with await AsyncNetEmbedClient.connect(
                        server.host, server.port) as client:
                    return await client.embed(path_query, deadline=-1.0)

        response = run(scenario())
        assert response["kind"] == "error"
        assert response["error"] == "bad-request"
        assert "deadline" in response["message"]


# --------------------------------------------------------------------------- #
# Priorities over the wire
# --------------------------------------------------------------------------- #

class TestPriorities:
    def test_interactive_dispatches_before_batch(self, path_query):
        registry, engine = blocking_registry(max_queue_depth=8)

        async def scenario():
            order = []
            async with EmbeddingServer(registry) as server:
                async with await AsyncNetEmbedClient.connect(
                        server.host, server.port) as client:
                    async def tracked(priority):
                        response = await client.embed(
                            path_query, algorithm="stub", priority=priority)
                        order.append(priority)
                        return response

                    blocker = asyncio.ensure_future(tracked("standard"))
                    while not engine.calls:
                        await asyncio.sleep(0.01)
                    order.clear()
                    batch = asyncio.ensure_future(tracked("batch"))
                    while registry.admission.queued < 1:
                        await asyncio.sleep(0.01)
                    vip = asyncio.ensure_future(tracked("interactive"))
                    while registry.admission.queued < 2:
                        await asyncio.sleep(0.01)
                    engine.release.set()
                    await asyncio.gather(blocker, batch, vip)
            return order

        order = run(scenario())
        # The interactive request arrived last but finished first.
        assert order.index("interactive") < order.index("batch")

    def test_unknown_priority_is_bad_request(self, small_hosting, path_query):
        async def scenario():
            async with EmbeddingServer(make_registry(small_hosting)) as server:
                async with await AsyncNetEmbedClient.connect(
                        server.host, server.port) as client:
                    return await client.embed(path_query, priority="vip")

        response = run(scenario())
        assert response["kind"] == "error"
        assert response["error"] == "bad-request"
        assert "priority" in response["message"]


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))

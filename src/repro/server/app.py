"""The asyncio front door over :class:`~repro.service.netembed.NetEmbedService`.

One event loop accepts newline-delimited-JSON connections (see
:mod:`repro.server.protocol`), runs every request through the
:class:`~repro.server.admission.AdmissionController`, and offloads admitted
searches onto a bounded thread pool of ``engine_workers`` synchronous
engine executions.  The pool never backs up: queueing happens only in the
admission controller's bounded priority queue, so overload turns into
structured ``shed`` responses instead of unbounded memory growth or silent
client timeouts.

Deadlines are enforced twice: at admission (dead-on-arrival and
cost-model-predicted misses are shed immediately) and at dispatch (a
request whose deadline expired while queued is shed without ever reaching
the engine; one that is still alive runs under its *remaining* deadline via
:meth:`~repro.api.request.Budget.clamped`).
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from collections import OrderedDict
from typing import Any, Dict, Optional

from repro import faults
from repro.api.request import Budget
from repro.server.admission import Shed, Ticket
from repro.server.protocol import (
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    mapping_payload,
    query_from_payload,
    read_message,
    write_message,
)
from repro.server.registry import ServiceRegistry
from repro.service.spec import QuerySpec
from repro.utils.timing import Deadline


class EmbeddingServer:
    """A long-running NETEMBED serving process.

    Parameters
    ----------
    registry:
        The composition root holding the service, admission controller and
        cost model this server fronts.
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    """

    def __init__(self, registry: Optional[ServiceRegistry] = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.registry = registry if registry is not None else ServiceRegistry()
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._engine: Optional[Any] = None
        self._slots = self.registry.config.engine_workers
        self._tasks: set = set()
        self._conn_tasks: set = set()
        self._writers: set = set()
        self._stopping = False
        # Transport-level counters, folded into the metrics payload.
        self._connections_total = 0
        self._connections_open = 0
        self._requests: Dict[str, int] = {}
        self._protocol_errors = 0
        # Idempotency: completed results by client key (LRU-bounded) plus
        # in-flight keys, so a retry of a request whose answer was lost on
        # the wire replays the answer instead of re-executing (and
        # re-reserving) it.
        self._idempotency_done: "OrderedDict[str, Dict[str, Any]]" = \
            OrderedDict()
        self._idempotency_pending: Dict[str, asyncio.Future] = {}
        self._idempotency_limit = 1024
        self._idempotent_hits = 0
        self._injected_drops = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> "EmbeddingServer":
        """Bind the listening socket and start accepting connections."""
        from concurrent.futures import ThreadPoolExecutor

        if self._server is not None:
            raise RuntimeError("server already started")
        self._engine = ThreadPoolExecutor(
            max_workers=self.registry.config.engine_workers,
            thread_name_prefix="netembed-serve")
        self._server = await asyncio.start_server(
            self._on_connection, host=self.host, port=self.port,
            limit=MAX_MESSAGE_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def address(self) -> str:
        """``host:port`` the server is bound to."""
        return f"{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        """Serve until cancelled (the CLI's blocking mode)."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, shed the queue, and wait for inflight work.

        Order matters: queued tickets are answered as shed first, inflight
        executions are allowed to finish and answer, and only then are the
        connections closed and the engine pool torn down.
        """
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for ticket in self.registry.admission.drain():
            self._resolve(ticket, self._shed_payload(ticket, ticket.shed))
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        for writer in list(self._writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks),
                                 return_exceptions=True)
        if self._engine is not None:
            self._engine.shutdown(wait=True)
            self._engine = None

    async def __aenter__(self) -> "EmbeddingServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self._connections_total += 1
        self._connections_open += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        pending: set = set()
        try:
            while True:
                try:
                    message = await read_message(reader)
                except (ConnectionError, OSError):
                    break  # forcibly closed (our stop() or the client's crash)
                except ProtocolError as exc:
                    # The stream is desynchronised; answer once and hang up.
                    self._protocol_errors += 1
                    await self._safe_write(writer, write_lock, {
                        "id": None, "kind": "error",
                        "error": "protocol", "message": str(exc)})
                    break
                if message is None:
                    break
                task = asyncio.ensure_future(
                    self._handle_message(message, writer, write_lock))
                pending.add(task)
                task.add_done_callback(pending.discard)
            if pending:
                # Let queued embeds finish answering before the writer dies.
                await asyncio.gather(*list(pending), return_exceptions=True)
        finally:
            self._connections_open -= 1
            self._writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _handle_message(self, message: Dict[str, Any],
                              writer: asyncio.StreamWriter,
                              write_lock: asyncio.Lock) -> None:
        op = message.get("op")
        self._requests[str(op)] = self._requests.get(str(op), 0) + 1
        message_id = message.get("id")
        if op == "ping":
            payload = {"id": message_id, "kind": "pong",
                       "protocol": PROTOCOL_VERSION}
        elif op == "metrics":
            payload = {"id": message_id, "kind": "metrics",
                       "stats": self.stats()}
        elif op in ("health", "ready"):
            payload = {"id": message_id, "kind": "health",
                       "protocol": PROTOCOL_VERSION,
                       "status": "draining" if self._stopping else "ok",
                       "ready": (self._server is not None
                                 and not self._stopping),
                       "address": self.address}
        elif op == "embed":
            payload = await self._handle_embed(message)
            if not self._stopping:
                # The connection-drop fault site: request-path replies only.
                # Shutdown-drain answers deliberately bypass injection so
                # stop() semantics stay fault-plan-independent — a queued
                # ticket is always answered `shed/server-shutdown`.
                try:
                    faults.fire("server.reply")
                except faults.InjectedConnectionDrop:
                    self._injected_drops += 1
                    writer.close()
                    return
        else:
            payload = {"id": message_id, "kind": "error", "error": "bad-op",
                       "message": f"unknown op {op!r} "
                                  f"(expected embed/metrics/ping/health)"}
        await self._safe_write(writer, write_lock, payload)

    async def _safe_write(self, writer: asyncio.StreamWriter,
                          write_lock: asyncio.Lock,
                          payload: Dict[str, Any]) -> None:
        try:
            async with write_lock:
                await write_message(writer, payload)
        except (ConnectionError, OSError):
            pass  # client went away; the work is already accounted for

    # ------------------------------------------------------------------ #
    # The embed path
    # ------------------------------------------------------------------ #

    async def _handle_embed(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Deduplicate by idempotency key, then admit/execute.

        Successful results are cached per key (LRU-bounded): a client retry
        whose first attempt executed but lost its answer on the wire gets
        the recorded result — including its ``reservation_id`` — instead of
        a second execution and a double reservation.  Sheds and errors are
        *not* cached; retrying those is exactly what a client should do.
        """
        message_id = message.get("id")
        key = message.get("idempotency_key")
        if key is None:
            return await self._execute_embed(message)
        if not isinstance(key, str) or not key:
            return {"id": message_id, "kind": "error", "error": "bad-request",
                    "message": "idempotency_key must be a non-empty string"}
        cached = self._idempotency_done.get(key)
        if cached is not None:
            self._idempotency_done.move_to_end(key)
            self._idempotent_hits += 1
            return dict(cached, id=message_id, idempotent_replay=True)
        pending = self._idempotency_pending.get(key)
        if pending is not None:
            # A duplicate racing its original: share the original's answer.
            self._idempotent_hits += 1
            payload = await asyncio.shield(pending)
            return dict(payload, id=message_id, idempotent_replay=True)
        waiter: asyncio.Future = asyncio.get_running_loop().create_future()
        self._idempotency_pending[key] = waiter
        try:
            payload = await self._execute_embed(message)
        except BaseException:
            self._idempotency_pending.pop(key, None)
            if not waiter.done():
                waiter.cancel()
            raise
        self._idempotency_pending.pop(key, None)
        if payload.get("kind") == "result":
            self._idempotency_done[key] = dict(payload)
            while len(self._idempotency_done) > self._idempotency_limit:
                self._idempotency_done.popitem(last=False)
        if not waiter.done():
            waiter.set_result(dict(payload))
        return payload

    async def _execute_embed(self, message: Dict[str, Any]) -> Dict[str, Any]:
        message_id = message.get("id")
        try:
            ticket = self._ticket_from(message)
        except (ProtocolError, TypeError, ValueError) as exc:
            return {"id": message_id, "kind": "error", "error": "bad-request",
                    "message": str(exc)}
        ticket.future = asyncio.get_running_loop().create_future()
        decision = self.registry.admission.admit(ticket)
        for evicted in self.registry.admission.take_evicted():
            self._resolve(evicted, self._shed_payload(evicted, evicted.shed))
        if decision is not None:
            return self._shed_payload(ticket, decision)
        self._kick()
        return await ticket.future

    def _ticket_from(self, message: Dict[str, Any]) -> Ticket:
        """Validate an embed message into an admission ticket.

        Every field is checked here, on arrival: the ticket carries a
        validated :class:`QuerySpec`, so a malformed frame is answered
        ``bad-request`` without being admitted.
        """
        deadline = message.get("deadline")
        if deadline is not None and (not isinstance(deadline, (int, float))
                                     or deadline <= 0):
            raise ProtocolError(
                f"deadline must be a positive number of seconds, "
                f"got {deadline!r}")
        spec = QuerySpec(
            query=query_from_payload(message.get("query")),
            constraint=message.get("constraint"),
            node_constraint=message.get("node_constraint"),
            algorithm=message.get("algorithm", "auto"),
            timeout=message.get("timeout"),
            max_results=message.get("max_results"),
            network=message.get("network"),
            seed=message.get("seed"),
            reserve=bool(message.get("reserve", False)),
            registry=self.registry.service.algorithms,
        )
        query = spec.query
        cost_key = (spec.network, spec.algorithm, query.name, query.num_nodes,
                    query.num_edges, spec.constraint, spec.node_constraint)
        return Ticket(
            tenant=str(message.get("tenant", "default")),
            priority=str(message.get("priority", "standard")),
            deadline=(Deadline(float(deadline)) if deadline is not None
                      else Deadline.unlimited()),
            cost_key=cost_key,
            payload={"id": message.get("id"), "spec": spec},
        )

    def _kick(self) -> None:
        """Dispatch queued tickets onto free engine slots."""
        admission = self.registry.admission
        while self._slots > 0 and not self._stopping:
            ticket = admission.pop_ready()
            if ticket is None:
                return
            if ticket.shed is not None:
                # Expired while queued: answer, never execute.
                self._resolve(ticket, self._shed_payload(ticket, ticket.shed))
                continue
            self._slots -= 1
            task = asyncio.ensure_future(self._run_ticket(ticket))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _run_ticket(self, ticket: Ticket) -> None:
        cost: Optional[float] = None
        try:
            spec = self._spec_for(ticket)
            started = time.perf_counter()
            response = await asyncio.get_running_loop().run_in_executor(
                self._engine, self.registry.service.submit, spec)
            cost = time.perf_counter() - started
            payload = self._result_payload(ticket, response)
        except Exception as exc:  # noqa: BLE001 — reported per-request
            payload = {"id": ticket.payload["id"], "kind": "error",
                       "error": type(exc).__name__, "message": str(exc)}
        finally:
            self.registry.admission.finish(ticket, cost)
            self._slots += 1
            self._kick()
        self._resolve(ticket, payload)

    def _spec_for(self, ticket: Ticket) -> QuerySpec:
        """The ticket's spec with its timeout clamped to the deadline left."""
        spec = ticket.payload["spec"]
        budget = (Budget(timeout=spec.timeout)
                  .with_default_timeout(self.registry.config.default_timeout)
                  .clamped(ticket.deadline.remaining))
        return dataclasses.replace(spec, timeout=budget.timeout,
                                   cache=ticket.cache)

    def _result_payload(self, ticket: Ticket, response) -> Dict[str, Any]:
        queue_seconds = None
        if ticket.enqueued_at is not None and ticket.dispatched_at is not None:
            queue_seconds = ticket.dispatched_at - ticket.enqueued_at
        return {
            "id": ticket.payload["id"],
            "kind": "result",
            "tenant": ticket.tenant,
            "priority": ticket.priority,
            "status": response.status.value,
            "algorithm": response.algorithm_used,
            "network": response.network_name,
            "mappings": [mapping_payload(m) for m in response.mappings],
            "elapsed_seconds": response.elapsed_seconds,
            "queue_seconds": queue_seconds,
            "cache_allowed": ticket.cache,
            "reservation_id": getattr(response, "reservation_id", None),
        }

    def _shed_payload(self, ticket: Ticket, decision: Shed) -> Dict[str, Any]:
        payload = {
            "id": ticket.payload["id"] if ticket.payload else None,
            "kind": "shed",
            "tenant": ticket.tenant,
            "priority": ticket.priority,
            "reason": decision.reason,
            "message": decision.message,
        }
        if decision.retry_after is not None:
            payload["retry_after"] = decision.retry_after
        return payload

    @staticmethod
    def _resolve(ticket: Ticket, payload: Dict[str, Any]) -> None:
        future = ticket.future
        if future is not None and not future.done():
            future.set_result(payload)

    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, Any]:
        """The metrics document: service + admission + transport counters."""
        stats = self.registry.stats()
        stats["server"] = {
            "protocol": PROTOCOL_VERSION,
            "address": self.address,
            "engine_workers": self.registry.config.engine_workers,
            "engine_slots_free": self._slots,
            "connections_total": self._connections_total,
            "connections_open": self._connections_open,
            "requests": dict(self._requests),
            "protocol_errors": self._protocol_errors,
            "idempotent_hits": self._idempotent_hits,
            "idempotency_entries": len(self._idempotency_done),
            "injected_connection_drops": self._injected_drops,
        }
        return stats

"""The four workloads of the end-to-end benchmark.

Each workload draws its inputs from the run's seed, sets the service up,
and runs *rounds* of identical work: the untraced round goes through the
public entry point a caller would use (``NetEmbedService.submit``, or the
wire for ``serve_wire``); the traced round replays the same inputs through
:class:`StagedServer`, one public stage call at a time, each under a span.

Inputs are drawn by rejection on the engine's own deterministic counters
(``nodes_expanded``, ``constraint_evaluations``, mappings found), never on
time: the search stage is heavy-tailed — one unlucky query costs 15 s where
its neighbours cost 1 ms — so a query class is only a *class* once the
work of its members is pinned.  That is what lets two seeds agree.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.api.request import Budget, SearchRequest
from repro.core.base import placed_neighbor_plan
from repro.core.ecf import ECF
from repro.core.filters import (
    build_filters,
    compile_hosting,
    patch_filters,
    patch_hosting_compile,
)
from repro.core.lns import LNS
from repro.core.ordering import ORDERINGS
from repro.core.plan import EmbeddingPlan, PlanCache, PreparedSearch
from repro.core.rwb import RWB
from repro.graphs.graphml import write_graphml
from repro.server.admission import AdmissionController, Ticket
from repro.server.protocol import (
    decode_message,
    encode_message,
    mapping_payload,
    network_payload,
    query_from_payload,
)
from repro.service import NetEmbedService, QuerySpec
from repro.service.wal import ReservationWAL
from repro.topology.planetlab import synthetic_planetlab_trace
from repro.workloads.churn import ChurnConfig, ChurnProcess
from repro.workloads.queries import DELAY_WINDOW_CONSTRAINT, subgraph_query

from calibrate import NOMINAL_SECONDS, probe
from tracing import Tracer

NETWORK = "planetlab"
FULL_SITES = 296
CONSTRAINT = DELAY_WINDOW_CONSTRAINT
#: Window half-width of every query edge.  Twice the churn jitter, so the
#: sampled placement of a held query stays feasible under any tick.
SLACK = 0.30
#: Search-only budget of a candidate trial.  The counter caps below are met
#: within a few milliseconds, so this only cuts the pathological draws short.
TRIAL_SECONDS = 0.25
_clock = time.perf_counter


class InputError(RuntimeError):
    """The seed did not yield inputs inside the workload's work bands."""


def build_scene(seed: int, sites: int):
    """The PlanetLab-like hosting network of this run."""
    return synthetic_planetlab_trace(num_sites=sites, rng=seed, name=NETWORK)


# --------------------------------------------------------------------------- #
# Answers and the oracle
# --------------------------------------------------------------------------- #

@dataclass
class Expected:
    """The oracle's answer to one spec: a direct ``submit`` during set-up."""

    status: str
    assignments: List[dict]
    #: The mapping stream exactly as the wire carries it.
    wire: bytes


def wire_mappings(mappings) -> bytes:
    return json.dumps([mapping_payload(m) for m in mappings],
                      separators=(",", ":")).encode()


def expect(response) -> Expected:
    return Expected(status=response.status.value,
                    assignments=[m.assignment for m in response.mappings],
                    wire=wire_mappings(response.mappings))


def agrees(result, expected: Expected, strict: bool) -> bool:
    """Whether an engine result is the oracle's answer.

    The warm-up round compares the stringified mapping stream (*strict*);
    timed rounds compare status and the assignment dicts, which costs a
    fraction of an op instead of more than one.
    """
    if result.status.value != expected.status:
        return False
    if strict:
        return wire_mappings(result.mappings) == expected.wire
    return [m.assignment for m in result.mappings] == expected.assignments


@dataclass
class Round:
    """What one round of identical work produced.

    The round is cut into *stretches* of work with a calibration probe
    before the first and after each, so that every duration can be scaled
    by the machine's speed at that moment (see :mod:`calibrate`).
    """

    #: Seconds one caller waited for one answer, per op.
    latencies: List[float] = field(default_factory=list)
    #: The stretch each op ran in.
    where: List[int] = field(default_factory=list)
    #: Back-to-back stretches; their sum is the time the system spent on
    #: the round.  Usually one op each, but callers may overlap
    #: (``serve_wire``) and work may happen that no caller waits for (the
    #: monitor ticks of ``churn_refresh``).
    stretches: List[float] = field(default_factory=list)
    probes: List[float] = field(default_factory=lambda: [probe()])
    #: Ops with a wrong, refused or missing answer.
    failed: int = 0
    #: Deterministic work counters; must repeat exactly round over round.
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def busy(self) -> float:
        return sum(self.stretches)

    def add(self, latency: float, ok: bool) -> None:
        """One answered op, inside the stretch that is recorded next."""
        self.latencies.append(latency)
        self.where.append(len(self.stretches))
        self.failed += not ok

    def stretch(self, seconds: float) -> None:
        self.stretches.append(seconds)
        self.probes.append(probe())

    def op(self, latency: float, ok: bool) -> None:
        """A stretch that is exactly one op."""
        self.add(latency, ok)
        self.stretch(latency)

    def count(self, **amounts: int) -> None:
        for key, amount in amounts.items():
            self.counts[key] = self.counts.get(key, 0) + amount

    def count_result(self, result) -> None:
        stats = result.stats
        self.count(nodes_expanded=stats.nodes_expanded,
                   mappings_found=len(result.mappings),
                   constraint_evaluations=stats.constraint_evaluations,
                   entries=stats.filter_entries)


# --------------------------------------------------------------------------- #
# Drawing inputs
# --------------------------------------------------------------------------- #

def draw(scene, rng: random.Random, size: int, edges: int,
         accept: Callable, tries: int = 500):
    """One feasible-by-construction query of exactly (*size*, *edges*) that
    *accept* takes; returns ``(query, accept's verdict)``."""
    for _ in range(tries):
        query = subgraph_query(scene, size, num_edges=edges, slack=SLACK,
                               rng=rng).query
        if query.num_edges != edges:
            continue
        verdict = accept(query)
        # Compiled filters sit in a reference cycle with their kernel plan;
        # unswept, the rejected draws would set the run's peak RSS.
        gc.collect()
        if verdict is not None:
            return query, verdict
    raise InputError(f"no {size}-node/{edges}-edge query accepted "
                     f"in {tries} draws")


def try_plan(plan, max_results: int, seed=None):
    """Execute a candidate's compiled plan under the trial budget."""
    return plan.execute(Budget(timeout=TRIAL_SECONDS, max_results=max_results),
                        rng=seed, parallelism=1)


def cheap_search(service, max_results: int) -> Callable:
    """Accepts a query whose first *max_results* embeddings ECF finds within
    a few expansions per node; the verdict is its spec."""
    def accept(query):
        spec = spec_for(query, "ECF", max_results)
        result = try_plan(service.prepare(spec), max_results)
        if (len(result.mappings) != max_results
                or result.stats.nodes_expanded > 8 * query.num_nodes):
            return None
        return spec
    return accept


def spec_for(query, algorithm: str, max_results: int, seed=None,
             reserve: bool = False) -> QuerySpec:
    return QuerySpec(query=query, constraint=CONSTRAINT, algorithm=algorithm,
                     max_results=max_results, seed=seed, reserve=reserve)


def embed_line(spec: QuerySpec, message_id: int) -> bytes:
    """The wire frame of *spec*, as ``AsyncNetEmbedClient.embed`` builds it."""
    message = {"op": "embed", "id": message_id,
               "query": network_payload(spec.query),
               "algorithm": spec.algorithm, "tenant": "default",
               "priority": "standard", "constraint": CONSTRAINT.source,
               "max_results": spec.max_results}
    if spec.seed is not None:
        message["seed"] = spec.seed
    return encode_message(message)


# --------------------------------------------------------------------------- #
# The staged request path of the traced run
# --------------------------------------------------------------------------- #

SEARCH_SPAN = {"ECF": "core.kernel.search", "RWB": "core.rwb.search",
               "LNS": "core.lns.search"}


class StagedServer:
    """One embed request, stage by stage, through the layers' public calls.

    Mirrors ``EmbeddingServer._execute_embed`` → ``NetEmbedService.submit``
    → ``_cached_plan`` → ``ECF._prepare``, but every stage is its own call
    under its own span, so self times add up to a request.
    """

    def __init__(self, tracer: Tracer, hosting, version: int = 0) -> None:
        self.tracer = tracer
        self.hosting = hosting
        self.version = version
        self.cache = PlanCache(capacity=128)
        self.admission = AdmissionController(workers=1, clock=_clock)
        self.algorithms = {"ECF": ECF(), "RWB": RWB(), "LNS": LNS()}
        self.queue_wait = 0.0
        self.bytes_in = 0
        self.bytes_out = 0
        self.requests = 0

    def seed(self, specs) -> None:
        """Compile the plans of *specs* into the cache, as a warm server
        holds them."""
        for spec in specs:
            algorithm = self.algorithms[spec.algorithm]
            request = spec.to_request(self.hosting, default_timeout=30.0)
            key = (NETWORK, self.version, algorithm.plan_signature(),
                   request.fingerprint())
            self.cache.put(key, algorithm.prepare(request))

    def handle(self, line: bytes, round_: Round):
        """Answer one wire frame; returns ``(reply frame, engine result)``."""
        span = self.tracer.span
        self.tracer.request_id = self.requests
        self.requests += 1
        self.bytes_in += len(line)
        with span("request"):
            with span("server.protocol.decode"):
                message = decode_message(line)
                query = query_from_payload(message["query"])
            ticket = Ticket(payload=message)
            with span("server.admission.admit"):
                self.admission.admit(ticket)
                ticket = self.admission.pop_ready()
            self.queue_wait += ticket.dispatched_at - ticket.enqueued_at
            algorithm = self.algorithms[message["algorithm"]]
            with span("server.app.lower"):
                request = SearchRequest.build(
                    query, self.hosting, constraint=message["constraint"],
                    budget=Budget(timeout=30.0,
                                  max_results=message["max_results"]))
            with span("core.plan.cache_lookup"):
                key = (NETWORK, self.version, algorithm.plan_signature(),
                       request.fingerprint())
                plan = self.cache.get(key)
                predecessor = (self.cache.pop_predecessor(key)
                               if plan is None else None)
            if plan is None:
                plan = self._compile(key, algorithm, request, predecessor,
                                     round_)
            started = _clock()
            with span(SEARCH_SPAN[algorithm.name]):
                result = plan.execute(budget=request.budget,
                                      rng=message.get("seed"), parallelism=1)
            with span("server.admission.finish"):
                self.admission.finish(ticket, _clock() - started)
            with span("server.protocol.encode"):
                reply = encode_message({
                    "id": message["id"], "kind": "result",
                    "status": result.status.value, "algorithm": algorithm.name,
                    "network": NETWORK,
                    "mappings": [mapping_payload(m) for m in result.mappings],
                    "elapsed_seconds": result.elapsed_seconds})
        # Without the digits of the one timing field, so the count repeats.
        self.bytes_out += len(reply) - len(repr(result.elapsed_seconds))
        return reply, result

    def _compile(self, key, algorithm, request, predecessor, round_: Round):
        """The plan-cache miss path: patch the predecessor, else build."""
        span = self.tracer.span
        query, hosting = request.query, self.hosting
        filters = None
        if predecessor is not None:
            with span("core.filters.patch_hosting"):
                compiled = compile_hosting(hosting)
                if compiled.stale:
                    patch_hosting_compile(
                        compiled, hosting.delta_since(compiled.epoch))
            delta = hosting.delta_since(predecessor.hosting_epoch)
            with span("core.filters.patch"):
                filters = patch_filters(
                    predecessor.prepared.filters, query, hosting,
                    request.constraint, compiled=compiled, delta=delta)
        if filters is not None:
            epoch = delta.target_epoch
            mode = "patched"
            round_.count(patched=1)
        else:
            epoch = hosting.mutation_count
            mode = "recompiled" if predecessor is not None else None
            with span("core.filters.compile_hosting"):
                compiled = compile_hosting(hosting)
            with span("core.filters.build"):
                filters = build_filters(query, hosting, request.constraint,
                                        compiled=compiled)
            round_.count(rebuilt=1)
        with span("core.ordering.order"):
            order = ORDERINGS["connectivity"](query, filters)
            prior = placed_neighbor_plan(query, order)
        plan = EmbeddingPlan(
            algorithm, request,
            PreparedSearch(filters=filters, order=order, prior=prior,
                           constraint_evaluations=filters.constraint_evaluations,
                           filter_entries=filters.entry_count,
                           filter_build_seconds=filters.build_seconds),
            hosting_epoch=epoch)
        self.cache.put(key, plan, refresh_mode=mode)
        return plan


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #

class Workload:
    """Inputs from a seed, a set-up, and rounds of identical work."""

    name = ""
    #: Round wall time over the busy process's CPU time above which a round
    #: counts as disturbed.
    disturbed_above = 1.10
    #: Whether the work is done by a child process (whose CPU time only
    #: covers the part of a round it was driven in).
    out_of_process = False

    def __init__(self, seed: int, sites: int, out_dir: Path) -> None:
        self.seed = seed
        self.sites = sites
        self.out_dir = out_dir
        self.rng = random.Random(f"{self.name}:{seed}")
        #: The work bands are sized for the full scene; a smoke-sized scene
        #: only checks that answers exist.
        self.banded = sites >= FULL_SITES
        self.scene = None
        #: ``compile_hosting`` time of each set-up repeat.
        self.compile_seconds: List[float] = []
        self.service: Optional[NetEmbedService] = None
        self.staged: Optional[StagedServer] = None

    def fit(self, size: int) -> int:
        """A query size that a *sites*-node scene can host."""
        return max(3, min(size, self.sites // 4))

    def scratch(self, scene) -> NetEmbedService:
        # A few plans at a time: what drawing inputs allocates must stay
        # below what the measured rounds do, or it sets ``peak_rss_mb``.
        service = NetEmbedService(plan_cache_size=4)
        service.register_network(scene, name=NETWORK)
        return service

    def generate(self, scene) -> None:
        """Draw the inputs and their oracle answers (once, on a scratch scene)."""
        raise NotImplementedError

    def set_up(self, scene) -> None:
        """Compile, register and warm; timed, and repeated for ``setup_s``."""
        self.scene = scene
        started = _clock()
        compile_hosting(scene)
        self.compile_seconds.append(_clock() - started)
        self.service = NetEmbedService()
        self.service.register_network(scene, name=NETWORK)
        self.warm()

    def warm(self) -> None:
        raise NotImplementedError

    def start(self) -> None:
        """Bring the set-up system to the state the rounds repeat from."""

    def start_tracing(self, tracer: Tracer) -> None:
        self.staged = StagedServer(tracer, self.scene)

    def run_round(self, strict: bool) -> Round:
        raise NotImplementedError

    def run_traced_round(self) -> Round:
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self) -> Dict[str, float]:
        """Release resources; returns extra diagnostics."""
        return {}

    # -- helpers shared by the in-process workloads ----------------------- #

    def timed_submit(self, spec: QuerySpec, expected: Expected, strict: bool,
                     round_: Round) -> Tuple[float, bool]:
        """Seconds one caller waited for ``submit``, and whether it agreed."""
        started = _clock()
        response = self.service.submit(spec)
        elapsed = _clock() - started
        round_.count_result(response.result)
        return elapsed, agrees(response.result, expected, strict)

    def staged_submit(self, line: bytes, expected: Expected,
                      round_: Round) -> Tuple[float, bool]:
        started = _clock()
        reply, result = self.staged.handle(line, round_)
        elapsed = _clock() - started
        round_.count_result(result)
        return elapsed, (agrees(result, expected, True)
                         and expected.wire in reply)


class ColdEmbed(Workload):
    """Every request is a query the service has not seen: the plan cache
    misses and filter construction is most of the answer time (Figs 8/9)."""

    name = "cold_embed"
    QUERIES = 64
    SIZES = (6, 7, 8, 9, 10, 11, 12)
    MAX_RESULTS = 4

    def generate(self, scene) -> None:
        service = self.scratch(scene)
        self.specs: List[QuerySpec] = []
        self.expected: List[Expected] = []
        for index in range(self.QUERIES):
            size = self.fit(self.SIZES[index % len(self.SIZES)])
            _query, spec = draw(scene, self.rng, size, size * 3 // 2,
                                cheap_search(service, self.MAX_RESULTS))
            self.specs.append(spec)
            self.expected.append(expect(service.submit(spec)))
        self.lines = [embed_line(spec, i) for i, spec in enumerate(self.specs)]

    def warm(self) -> None:
        # Fills the hosting compile's attribute columns; plans are not kept
        # (every round starts from a fresh service).
        for spec in self.specs[:4]:
            self.service.submit(spec)

    def run_round(self, strict: bool) -> Round:
        round_ = Round()
        self.service = NetEmbedService()
        self.service.register_network(self.scene, name=NETWORK)
        for spec, expected in zip(self.specs, self.expected):
            round_.op(*self.timed_submit(spec, expected, strict, round_))
        return round_

    def run_traced_round(self) -> Round:
        round_ = Round()
        self.staged.cache = PlanCache(capacity=128)
        for line, expected in zip(self.lines, self.expected):
            round_.op(*self.staged_submit(line, expected, round_))
        return round_


class WarmEnum(Workload):
    """The same eight queries against a warm plan cache: filter build is
    bypassed and the search stage (kernel, ECF, RWB, LNS) does the work.

    One op is one refresh of a held query: enumerate up to 2000 embeddings
    with ECF, sample one with seeded RWB, first-fit one with LNS.
    """

    name = "warm_enum"
    #: Duplicated sizes put the median op and the p95 op inside a size
    #: class, not on the boundary between two.
    SIZES = (8, 12, 12, 16, 16, 16, 20, 24)
    ENUMERATE = 2000
    PASSES = 16
    #: LNS evaluates constraints lazily; its time is ~6 us per evaluation.
    LNS_EVALUATIONS_PER_NODE = 58

    def generate(self, scene) -> None:
        service = self.scratch(scene)
        self.ops: List[List[Tuple[QuerySpec, Expected]]] = []
        for size in map(self.fit, self.SIZES):
            _query, specs = draw(scene, self.rng, size, size + 3,
                                 lambda query: self._accept(service, query, size))
            self.ops.append([(spec, expect(service.submit(spec)))
                             for spec in specs])
        self.lines = [[embed_line(spec, i) for spec, _ in op]
                      for i, op in enumerate(self.ops)]

    def _accept(self, service, query, size: int):
        """The three specs of a refresh of *query*, or ``None``.

        Cheapest screen first: LNS compiles no filters.
        """
        lns = spec_for(query, "LNS", 1)
        result = try_plan(service.prepare(lns), 1)
        target = self.LNS_EVALUATIONS_PER_NODE * size
        if not result.found or result.stats.nodes_expanded > 2 * size:
            return None
        if self.banded and not (0.95 * target
                                <= result.stats.constraint_evaluations
                                <= 1.05 * target):
            return None
        ecf = spec_for(query, "ECF", self.ENUMERATE)
        result = try_plan(service.prepare(ecf), self.ENUMERATE)
        if self.banded and (len(result.mappings) != self.ENUMERATE
                            or result.stats.nodes_expanded > 500):
            return None
        if result.timed_out or not result.found:
            return None
        plan = service.prepare(spec_for(query, "RWB", 1))
        for seed in range(8):
            result = try_plan(plan, 1, seed=seed)
            if result.found and result.stats.nodes_expanded <= 2 * size:
                return [ecf, spec_for(query, "RWB", 1, seed=seed), lns]
        return None

    def warm(self) -> None:
        for op in self.ops:
            for spec, _ in op:
                self.service.submit(spec)

    def start_tracing(self, tracer: Tracer) -> None:
        super().start_tracing(tracer)
        self.staged.seed(spec for op in self.ops for spec, _ in op)

    def run_round(self, strict: bool) -> Round:
        round_ = Round()
        for _ in range(self.PASSES):
            for op in self.ops:
                answers = [self.timed_submit(spec, expected, strict, round_)
                           for spec, expected in op]
                round_.op(sum(t for t, _ in answers),
                          all(ok for _, ok in answers))
        return round_

    def run_traced_round(self) -> Round:
        round_ = Round()
        for _ in range(self.PASSES):
            for op, lines in zip(self.ops, self.lines):
                answers = [self.staged_submit(line, expected, round_)
                           for line, (_, expected) in zip(lines, op)]
                round_.op(sum(t for t, _ in answers),
                          all(ok for _, ok in answers))
        return round_


class ChurnRefresh(Workload):
    """Writes beside reads: a monitor tick re-measures 5 % of the links,
    then the held queries are re-submitted (their plans patched, not
    rebuilt) and one is reserved and released through the WAL.

    One op is one re-submitted query: that is what a caller waits for.  The
    tick is the monitor's write; nobody waits for it, but the service is
    busy with it, so it counts in the round's throughput.

    Delay jitter is anchored to first-observed baselines, so with the churn
    stream reseeded every round the network walks the same states from the
    second round on: rounds are identical work and one oracle pass serves
    them all.
    """

    name = "churn_refresh"
    HELD = 4
    #: Candidates answered per walk of the round.  About one in eight does
    #: not stay cheap under churn, so one batch falls short of ``HELD`` for
    #: one seed in thirty; further batches are answered only then.
    POOL = 6
    BATCHES = 4
    SIZE = 6
    TICKS = 12
    MAX_RESULTS = 4
    CHURN = ChurnConfig(link_fraction=0.05, node_fraction=0.05,
                        delay_jitter=SLACK / 2)

    def _churn(self, scene) -> Tuple[ChurnProcess, random.Random]:
        stream = random.Random()
        return ChurnProcess(scene, self.CHURN, rng=stream), stream

    def generate(self, scene) -> None:
        """Walk a scratch scene through the first (transient) round, then
        answer a batch of candidates at every state of the round from
        scratch (``cache=False``: no plan, no patch), and keep the first
        ``HELD`` that stay cheap at every state.  Every candidate is drawn
        on the pristine scene; later rounds walk the same states, so a
        further batch is answered on a further walk."""
        service = self.scratch(scene)
        size = self.fit(self.SIZE)
        pool = [draw(scene, self.rng, size, size * 3 // 2,
                     lambda query: spec_for(query, "ECF", self.MAX_RESULTS))[1]
                for _ in range(self.POOL * self.BATCHES)]
        churn, stream = self._churn(scene)
        stream.seed(self.seed)
        churn.run(self.TICKS)
        held: List[Tuple[QuerySpec, List[Expected]]] = []
        while pool and len(held) < self.HELD:
            batch, pool = pool[:self.POOL], pool[self.POOL:]
            stream.seed(self.seed)
            held += self._steady(service, churn, batch, size)
        if len(held) < self.HELD:
            raise InputError(f"only {len(held)} of {self.POOL * self.BATCHES} "
                             f"held queries stay cheap under churn")
        self.specs = [spec for spec, _ in held[:self.HELD]]
        self.expected = [column for _, column in held[:self.HELD]]
        self.reserving = spec_for(self.specs[0].query, "ECF",
                                  self.MAX_RESULTS, reserve=True)
        self.lines = [embed_line(spec, i) for i, spec in enumerate(self.specs)]

    def _steady(self, service, churn: ChurnProcess, batch: List[QuerySpec],
                size: int) -> List[Tuple[QuerySpec, List[Expected]]]:
        """Walk one round; the specs of *batch* that reach the result cap
        within a few expansions per node at every state, each with its
        answer per state."""
        answers: List[List[Optional[Expected]]] = [[] for _ in batch]
        for _ in range(self.TICKS):
            churn.tick()
            gc.collect()
            for spec, column in zip(batch, answers):
                if column and column[-1] is None:
                    continue
                response = service.submit(
                    QuerySpec(query=spec.query, constraint=CONSTRAINT,
                              algorithm="ECF", max_results=self.MAX_RESULTS,
                              timeout=TRIAL_SECONDS * 4, cache=False))
                result = response.result
                steady = (len(result.mappings) == self.MAX_RESULTS
                          and result.stats.nodes_expanded <= 16 * size)
                column.append(expect(response) if steady else None)
        return [(spec, column) for spec, column in zip(batch, answers)
                if column[-1] is not None]

    def set_up(self, scene) -> None:
        for node in scene.nodes():
            scene.set_capacity(node, 1e6)
        super().set_up(scene)
        self.wal_path = self.out_dir / f"reservations-{os.getpid()}.wal"
        self.wal_path.unlink(missing_ok=True)
        # Appends are written and flushed per commit but synced only at
        # close: the sandbox disk's fsync latency is not the program's cost.
        self.service.attach_wal(self.wal_path, fsync_batch=1 << 20)
        self.churn, self.stream = self._churn(scene)

    def warm(self) -> None:
        for spec in self.specs:
            self.service.submit(spec)

    def start(self) -> None:
        # Walk the transient first round; every later round repeats it.
        self.stream.seed(self.seed)
        self.churn.run(self.TICKS)

    def start_tracing(self, tracer: Tracer) -> None:
        self.staged = StagedServer(tracer, self.scene,
                                   version=self.service.registry.version(NETWORK))
        # The staged path patches its own plans, from this epoch on.
        self.staged.seed(self.specs)
        self.wal = TracedWAL(self.service.reservations.wal, tracer)
        self.service.reservations.attach_wal(self.wal)

    def run_round(self, strict: bool) -> Round:
        round_ = Round()
        self.stream.seed(self.seed)
        service = self.service
        for tick in range(self.TICKS):
            journal = self.scene.mutation_count
            started = _clock()
            self.churn.tick()
            service.registry.touch(NETWORK)
            round_.stretch(_clock() - started)
            round_.count(journal_entries=self.scene.mutation_count - journal)
            for index, spec in enumerate(self.specs):
                started = _clock()
                response = service.submit(self.reserving if index == 0 else spec)
                if index == 0:
                    service.release(response.reservation_id)
                elapsed = _clock() - started
                result = response.result
                round_.op(elapsed,
                          agrees(result, self.expected[index][tick], strict))
                round_.count(nodes_expanded=result.stats.nodes_expanded,
                             mappings_found=len(result.mappings))
        return round_

    def run_traced_round(self) -> Round:
        round_ = Round()
        self.stream.seed(self.seed)
        tracer = self.staged.tracer
        span = tracer.span
        reservations = self.service.reservations
        for tick in range(self.TICKS):
            tracer.request_id = None
            journal = self.scene.mutation_count
            started = _clock()
            with span("workloads.churn.tick"):
                self.churn.tick()
            self.staged.version += 1
            round_.stretch(_clock() - started)
            round_.count(journal_entries=self.scene.mutation_count - journal)
            for index, line in enumerate(self.lines):
                expected = self.expected[index][tick]
                started = _clock()
                reply, result = self.staged.handle(line, round_)
                if index == 0:
                    with span("service.reservation.reserve"):
                        ticket = reservations.reserve(
                            self.scene, NETWORK, result.first,
                            query=self.specs[0].query, constraint=CONSTRAINT)
                    with span("service.reservation.release"):
                        reservations.release(ticket.reservation_id, self.scene)
                elapsed = _clock() - started
                round_.op(elapsed, (expected.wire in reply
                                    and agrees(result, expected, True)))
                round_.count(nodes_expanded=result.stats.nodes_expanded,
                             mappings_found=len(result.mappings))
        round_.count(wal_bytes=self.wal.take_bytes())
        return round_

    def close(self) -> Dict[str, float]:
        if self.service is not None:
            self.service.shutdown()
            self.service = None
            self.wal_path.unlink(missing_ok=True)
        return {}


class TracedWAL:
    """The service's WAL with a span around every append."""

    def __init__(self, wal: ReservationWAL, tracer: Tracer) -> None:
        self._wal = wal
        self._tracer = tracer
        self._mark = wal.path.stat().st_size

    def append(self, record) -> None:
        with self._tracer.span("service.wal.append"):
            self._wal.append(record)

    def take_bytes(self) -> int:
        """Bytes appended since the last call."""
        size = self._wal.path.stat().st_size
        grown, self._mark = size - self._mark, size
        return grown

    def __getattr__(self, name):
        return getattr(self._wal, name)


class ServeWire(Workload):
    """``python -m repro serve`` as a child process, driven closed loop over
    two persistent connections with small warm queries: wire decode/encode,
    admission and the event loop dominate; the engine is minor."""

    name = "serve_wire"
    QUERIES = 16
    SIZES = (4, 5, 6, 7)
    MAX_RESULTS = 4
    CONNECTIONS = 2
    PASSES = 100
    #: The server child is the busy process; its loop and engine threads
    #: share one GIL, and hand-offs leave it a little short of a full core.
    disturbed_above = 1.25
    out_of_process = True
    server: Optional[subprocess.Popen] = None
    answered = 0

    def generate(self, scene) -> None:
        service = self.scratch(scene)
        self.specs: List[QuerySpec] = []
        self.expected: List[Expected] = []
        for index in range(self.QUERIES):
            size = self.fit(self.SIZES[index % len(self.SIZES)])
            _query, spec = draw(scene, self.rng, size, size + 1,
                                cheap_search(service, self.MAX_RESULTS))
            self.specs.append(spec)
            self.expected.append(expect(service.submit(spec)))
        self.lines = [embed_line(spec, i) for i, spec in enumerate(self.specs)]

    def warm(self) -> None:
        for spec in self.specs:
            self.service.submit(spec)

    def start_tracing(self, tracer: Tracer) -> None:
        super().start_tracing(tracer)
        self.staged.seed(self.specs)

    # -- the server child -------------------------------------------------- #

    def start(self) -> None:
        """Start the server on the scene and connect the callers."""
        scene_path = self.out_dir / f"scene-{os.getpid()}.graphml"
        write_graphml(self.scene, scene_path)
        self.scene_path = scene_path
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[2] / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        started = _clock()
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--hosting",
             str(scene_path), "--port", "0", "--workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
        announce = self.server.stdout.readline().decode()
        if " on " not in announce:
            raise RuntimeError(f"server did not announce: {announce!r}")
        self.address = announce.rsplit(" on ", 1)[1].strip().rsplit(":", 1)
        self.ready_seconds = _clock() - started
        self.loop = asyncio.new_event_loop()
        self.streams = [self.loop.run_until_complete(asyncio.open_connection(
            self.address[0], int(self.address[1]), limit=1 << 23))
            for _ in range(self.CONNECTIONS)]

    def child_cpu(self) -> float:
        """CPU seconds the server child has used so far."""
        fields = Path(f"/proc/{self.server.pid}/stat").read_text() \
            .rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def run_round(self, strict: bool) -> Round:
        """Passes of one request per query, split between the callers; each
        caller sends its next request when its previous one is answered,
        and the callers meet at the end of a pass (a stretch)."""
        round_ = Round()
        shares = [range(k, self.QUERIES, self.CONNECTIONS)
                  for k in range(self.CONNECTIONS)]
        waits = [0.0] * self.QUERIES
        replies: List[Tuple[int, bytes]] = []

        async def caller(reader, writer, indices):
            for index in indices:
                started = _clock()
                writer.write(self.lines[index])
                await writer.drain()
                reply = await reader.readline()
                waits[index] = _clock() - started
                replies.append((index, reply))

        async def one_pass():
            await asyncio.gather(*(
                caller(reader, writer, indices)
                for (reader, writer), indices in zip(self.streams, shares)))

        for _ in range(self.PASSES):
            started = _clock()
            self.loop.run_until_complete(one_pass())
            elapsed = _clock() - started
            for wait in waits:
                round_.add(wait, True)      # answers are checked below
            round_.stretch(elapsed)
        self.answered += len(replies)
        for index, reply in replies:
            expected = self.expected[index]
            if (b'"kind":"result"' not in reply
                    or f'"status":"{expected.status}"'.encode() not in reply
                    or expected.wire not in reply):
                round_.failed += 1
        round_.count(bytes_in=self.PASSES * sum(map(len, self.lines)))
        return round_

    def run_traced_round(self) -> Round:
        round_ = Round()
        for _ in range(self.PASSES):
            elapsed = 0.0
            for line, expected in zip(self.lines, self.expected):
                wait, ok = self.staged_submit(line, expected, round_)
                round_.add(wait, ok)
                elapsed += wait
            round_.stretch(elapsed)
        return round_

    def inprocess_latency(self) -> float:
        """Mean ``submit`` time of the specs in nominal seconds, for the
        wire overhead."""
        before = probe()
        started = _clock()
        for _ in range(20):
            for spec in self.specs:
                self.service.submit(spec)
        elapsed = _clock() - started
        slowdown = (before + probe()) / 2 / NOMINAL_SECONDS
        return elapsed / slowdown / (20 * self.QUERIES)

    def close(self) -> Dict[str, float]:
        """Check offered == admitted + shed == answered, then stop the child."""
        extra: Dict[str, float] = {}
        if self.server is None:
            return extra
        try:
            if self.server.poll() is None:
                reader, writer = self.streams[0]
                writer.write(encode_message({"op": "metrics", "id": "m"}))
                reply = self.loop.run_until_complete(reader.readline())
                admission = decode_message(reply)["stats"]["admission"]
                extra = {"offered": admission["offered"],
                         "admitted": admission["admitted"],
                         "shed": admission["shed_total"],
                         "answered": self.answered}
                for _reader, writer in self.streams:
                    writer.close()
                self.loop.run_until_complete(asyncio.sleep(0))
        finally:
            self.loop.close()
            if self.server.poll() is None:
                self.server.send_signal(signal.SIGINT)
            try:
                self.server.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
            self.server = None
            self.scene_path.unlink(missing_ok=True)
        return extra


WORKLOADS = {cls.name: cls
             for cls in (ColdEmbed, WarmEnum, ServeWire, ChurnRefresh)}

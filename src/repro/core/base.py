"""Common infrastructure shared by the three NETEMBED search algorithms.

Every algorithm — ECF, RWB, LNS, and the baselines in :mod:`repro.baselines`
— exposes the same interface: :meth:`EmbeddingAlgorithm.request` consumes a
validated :class:`~repro.api.request.SearchRequest` and returns an
:class:`~repro.core.result.EmbeddingResult`, and
:meth:`EmbeddingAlgorithm.prepare` compiles the same request into a reusable
:class:`~repro.core.plan.EmbeddingPlan` whose
:meth:`~repro.core.plan.EmbeddingPlan.execute` amortises the compile stage
across repeated runs.  ``request()`` is itself a thin prepare-and-execute
under one deadline.  :meth:`iter_mappings` streams embeddings lazily instead
of materializing the full result list.

The :class:`SearchContext` object carries the per-search mutable state
(deadline, statistics, the embeddings discovered so far, time-to-first
bookkeeping) so the algorithm implementations stay small and uniform, and so
every algorithm classifies its outcome (complete / partial / inconclusive)
with exactly the same rules.
"""

from __future__ import annotations

import abc
import queue as queue_module
import random
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.api.request import Budget, ConstraintLike, SearchRequest
from repro.constraints import ConstraintExpression, edge_context
from repro.core.mapping import Mapping
from repro.core.plan import EmbeddingPlan, PreparedSearch
from repro.core.result import EmbeddingResult, SearchStats, classify
from repro.graphs.network import Edge, Network, NodeId
from repro.graphs.query import QueryNetwork
from repro.utils.rng import as_rng
from repro.utils.timing import Deadline, Stopwatch, TimeoutExpired


class StreamClosed(Exception):
    """Internal control-flow signal: the consumer of a lazy mapping stream
    went away, so the producing search should unwind immediately."""


def pump_mapping_stream(run: Callable, name: str, buffer_size: int
                        ) -> Iterator[Mapping]:
    """Turn a callback-style search into a lazy, backpressured generator.

    *run* is invoked as ``run(push, closed)`` on a background thread — it must
    call ``push(mapping)`` for every embedding and honour *closed* (a
    :class:`threading.Event`) as a cancellation signal, which is exactly the
    ``on_mapping``/``cancel`` contract of :meth:`EmbeddingAlgorithm.request`
    and :meth:`EmbeddingPlan.execute`.  The hand-off queue holds at most
    *buffer_size* mappings, so the producer pauses when the consumer is slow
    and aborts when the generator is closed; exceptions raised by the search
    re-raise in the consuming thread when the stream is drained.
    """
    handoff: queue_module.Queue = queue_module.Queue(maxsize=buffer_size)
    closed = threading.Event()
    sentinel = object()
    failure: List[BaseException] = []

    def push(item) -> None:
        # Bounded blocking put that notices a departed consumer.
        while True:
            if closed.is_set():
                raise StreamClosed()
            try:
                handoff.put(item, timeout=0.05)
                return
            except queue_module.Full:
                continue

    def worker() -> None:
        try:
            run(push, closed)
        except StreamClosed:
            pass
        except BaseException as exc:   # re-raised on the consumer side
            failure.append(exc)
        finally:
            try:
                push(sentinel)
            except StreamClosed:
                pass

    thread = threading.Thread(target=worker, name=name, daemon=True)
    thread.start()
    try:
        while True:
            item = handoff.get()
            if item is sentinel:
                break
            yield item
    finally:
        closed.set()
        # Unblock a producer stuck on a full queue, then reap the thread.
        while thread.is_alive():
            try:
                handoff.get_nowait()
            except queue_module.Empty:
                pass
            thread.join(timeout=0.05)
    if failure:
        raise failure[0]


def placed_neighbor_plan(query: QueryNetwork, order: List[NodeId]
                         ) -> List[Tuple[NodeId, ...]]:
    """Per-depth tuple of ``order[d]``'s neighbours placed at earlier depths.

    ECF and RWB place query nodes strictly in *order*, so the set of placed
    neighbours at depth ``d`` is a function of the order alone; hoisting it
    out of the search loop (one adjacency scan per node, total) replaces the
    per-expansion ``query.neighbors(...)`` + membership filtering the
    recursive implementations paid at every step.
    """
    seen: set = set()
    plan: List[Tuple[NodeId, ...]] = []
    for node in order:
        plan.append(tuple(neighbor for neighbor in query.neighbors(node)
                          if neighbor in seen))
        seen.add(node)
    return plan


def hosting_orientation(hosting: Network, r_source: NodeId, r_target: NodeId
                        ) -> Optional[Edge]:
    """The hosting edge orientation covering ``r_source -> r_target``, or
    ``None`` — the engine's one scalar statement of the rule (LNS's lazy
    checks and mapping repair both read it; LNS's batched checks apply it to
    a whole arc row at a time in :func:`repro.core.filters._placed_host_arcs`;
    the validity oracle in :mod:`repro.core.mapping` keeps its own copy on
    purpose).  Directed hosting networks require the edge itself; undirected
    ones accept either stored orientation and report it as
    ``(r_source, r_target)`` because edge attributes are shared."""
    if hosting.has_edge(r_source, r_target):
        return (r_source, r_target)
    if not hosting.directed and hosting.has_edge(r_target, r_source):
        return (r_source, r_target)
    return None


@dataclass
class SearchContext:
    """Mutable per-search state shared between an algorithm and its helpers."""

    query: QueryNetwork
    hosting: Network
    constraint: ConstraintExpression
    node_constraint: Optional[ConstraintExpression]
    deadline: Deadline
    max_results: Optional[int]
    stats: SearchStats = field(default_factory=SearchStats)
    mappings: List[Mapping] = field(default_factory=list)
    time_to_first: Optional[float] = None
    #: Observer invoked with each feasible Mapping as it is recorded; used by
    #: the streaming entry point.  It may raise to abort the search.
    on_mapping: Optional[Callable[[Mapping], None]] = None
    #: When set, the next deadline check raises StreamClosed, aborting the
    #: search promptly even in barren regions that record no mappings.
    cancel: Optional[threading.Event] = None
    #: Per-run randomness override.  A cached :class:`EmbeddingPlan` is shared
    #: across requests that may each carry their own seed; seedable algorithms
    #: (RWB) consult this before falling back to their construction-time
    #: source.  ``None`` for deterministic algorithms and direct requests.
    rng: Optional[random.Random] = None
    _stopwatch: Stopwatch = field(default_factory=Stopwatch)

    def __post_init__(self) -> None:
        self._stopwatch.start()

    # -- bookkeeping ------------------------------------------------------ #

    @property
    def elapsed(self) -> float:
        """Seconds since the search started."""
        return self._stopwatch.elapsed

    def check_deadline(self) -> None:
        """Raise :class:`TimeoutExpired` if the search budget is exhausted."""
        if self.cancel is not None and self.cancel.is_set():
            raise StreamClosed()
        self.deadline.check()

    def record_mapping(self, assignment: Dict[NodeId, NodeId]) -> bool:
        """Record a feasible embedding.

        Returns ``True`` when the search should stop because the result cap
        has been reached.
        """
        mapping = Mapping(assignment)
        self.mappings.append(mapping)
        if self.time_to_first is None:
            self.time_to_first = self.elapsed
        if self.on_mapping is not None:
            self.on_mapping(mapping)
        return self.max_results is not None and len(self.mappings) >= self.max_results

    @property
    def reached_cap(self) -> bool:
        """Whether the result cap has been reached."""
        return self.max_results is not None and len(self.mappings) >= self.max_results

    # -- compatibility checks used by the on-the-fly (LNS) search ---------- #

    def edge_pair_matches(self, query_edge: Edge, hosting_edge: Edge) -> bool:
        """Whether the constraint accepts mapping *query_edge* onto *hosting_edge*.

        The hosting edge must already be known to exist (in the given
        orientation for directed hosting networks).
        """
        if self.constraint.is_trivial:
            return True
        self.stats.constraint_evaluations += 1
        return self.constraint.evaluate(
            edge_context(self.query, query_edge, self.hosting, hosting_edge))

    def query_edge_supported(self, q_source: NodeId, q_target: NodeId,
                             r_source: NodeId, r_target: NodeId) -> bool:
        """Topology + constraint check for a single query edge under a partial mapping."""
        oriented = hosting_orientation(self.hosting, r_source, r_target)
        if oriented is None:
            return False
        return self.edge_pair_matches((q_source, q_target), oriented)


class EmbeddingAlgorithm(abc.ABC):
    """Base class for all embedding search algorithms.

    Subclasses implement :meth:`_run`, which performs the actual search and
    returns whether the search space was exhausted.  The base class handles
    the timeout, statistics and result classification so all algorithms
    behave identically at the interface level; argument validation lives in
    :class:`~repro.api.request.SearchRequest`.
    """

    #: Human-readable algorithm name used in results and experiment reports.
    name: str = "abstract"

    # ------------------------------------------------------------------ #
    # Primary entry point: the request/response model
    # ------------------------------------------------------------------ #

    #: Whether :meth:`prepare` compiles reusable artifacts for this algorithm.
    #: ``False`` means plans still work but re-run the whole search on every
    #: execute (no amortisation); the service only routes such algorithms
    #: through its plan cache when this is ``True``.
    supports_prepare: bool = False

    def request(self, request: SearchRequest,
                on_mapping: Optional[Callable[[Mapping], None]] = None,
                cancel: Optional[threading.Event] = None,
                pool=None) -> EmbeddingResult:
        """Search for feasible embeddings described by *request*.

        Equivalent to preparing a plan and executing it once, except that the
        request's timeout spans both phases (compilation happens under the
        search deadline, exactly as the one-shot engine always behaved).

        Parameters
        ----------
        request:
            The validated request object (query, hosting, constraints,
            budget).  A request carrying ``parallelism > 1`` runs its search
            stage on the sharded process-pool engine
            (:mod:`repro.core.parallel`); the mapping stream is identical to
            a serial run.
        on_mapping:
            Optional observer called with each embedding as it is found;
            this is how :meth:`iter_mappings` streams results.
        cancel:
            Optional event aborting the search (via :class:`StreamClosed`)
            at its next deadline check; set by a departing stream consumer.
        pool:
            Optional executor for the sharded engine (``None`` = the
            module-wide shared process pool; a
            :class:`~concurrent.futures.ThreadPoolExecutor` gets thread
            shards); only consulted when the request asks for parallelism.

        Returns
        -------
        EmbeddingResult
        """
        self._require_request(request)
        return self._drive(request, prepared=None, budget=request.budget,
                           on_mapping=on_mapping, cancel=cancel, rng=None,
                           pool=pool)

    # ------------------------------------------------------------------ #
    # The two-phase prepare/execute API
    # ------------------------------------------------------------------ #

    def prepare(self, request: SearchRequest,
                deadline: Optional[Deadline] = None) -> EmbeddingPlan:
        """Compile *request* into a reusable :class:`EmbeddingPlan`.

        The plan captures everything that does not depend on the per-run
        budget or random stream — for ECF/RWB the node indexer, the filter
        bitmasks and the visiting order; for LNS the indexer and the
        node-candidate masks.  Preparation is by default not bounded by the
        request's timeout (it is hosting-side work meant to be amortised);
        pass *deadline* to bound the compile, in which case
        :class:`~repro.utils.timing.TimeoutExpired` may propagate.  Each
        :meth:`EmbeddingPlan.execute` gets its own full budget for the
        search.
        """
        self._require_request(request)
        stopwatch = Stopwatch().start()
        # Epochs are read BEFORE compiling: a mutation that lands mid-compile
        # then makes the plan stale instead of silently half-built.
        hosting_epoch = request.hosting.mutation_count
        query_epoch = request.query.mutation_count
        # The structural screens are epoch-stable (a stale plan refuses to
        # execute), so they run once here instead of once per execute.
        if request.query.num_nodes == 0:
            prepared = PreparedSearch(screen="empty")
        elif request.query.is_obviously_infeasible(request.hosting):
            prepared = PreparedSearch(screen="infeasible")
        else:
            prepared = self._prepare(request, deadline=deadline)
        return EmbeddingPlan(algorithm=self, request=request, prepared=prepared,
                             prepare_seconds=stopwatch.stop(),
                             hosting_epoch=hosting_epoch,
                             query_epoch=query_epoch)

    def plan_signature(self) -> Tuple:
        """A hashable digest of this instance's search-relevant configuration.

        Two instances with equal signatures compile interchangeable plans for
        the same request, which is what lets the service's plan cache share
        one plan across requests.  Subclasses with configuration knobs that
        change the prepared artifacts or the search order must extend this.
        """
        return (self.name,)

    # ------------------------------------------------------------------ #
    # Incremental plan repair (delta-aware recompiles)
    # ------------------------------------------------------------------ #

    def patch_plan(self, plan: EmbeddingPlan) -> Optional[EmbeddingPlan]:
        """Bring a stale plan up to date by replaying the mutation journal.

        Applies only when the query is unchanged and the hosting network's
        journal still covers the plan's epoch with attribute-only mutations;
        the per-algorithm :meth:`_patch_prepared` hook then patches the
        compiled artifacts in cost proportional to the delta.  Returns a new
        :class:`EmbeddingPlan` at the delta's target epoch — guaranteed to
        behave exactly like a freshly prepared plan (same masks, same
        visiting order, same mapping streams) — or ``None`` when a full
        re-prepare is required.  *plan* itself is never mutated, so
        concurrent executes of the old plan stay safe.
        """
        request = plan.request
        if plan.query_epoch != request.query.mutation_count:
            return None
        delta = request.hosting.delta_since(plan.hosting_epoch)
        if delta is None or delta.structural:
            return None
        if delta.empty:
            return plan
        stopwatch = Stopwatch().start()
        if plan.prepared.screen is not None:
            # The structural screens (empty query, obvious infeasibility)
            # depend on topology and query alone — both unchanged under an
            # attribute-only delta — and such plans hold no other artifacts.
            prepared = plan.prepared
        else:
            prepared = self._patch_prepared(request, plan.prepared, delta)
            if prepared is None:
                return None
        return EmbeddingPlan(algorithm=self, request=request,
                             prepared=prepared,
                             prepare_seconds=stopwatch.stop(),
                             hosting_epoch=delta.target_epoch,
                             query_epoch=plan.query_epoch)

    def _patch_prepared(self, request: SearchRequest, prepared: PreparedSearch,
                        delta) -> Optional[PreparedSearch]:
        """Patch compiled artifacts for an attr-only hosting delta.

        Contract: return a *new* :class:`PreparedSearch` whose artifacts are
        element-identical to what :meth:`_prepare` would compile from
        scratch on the mutated network (work statistics may differ — they
        accumulate the patch cost instead of a rebuild's), or ``None`` when
        patching does not apply.  The default declines: algorithms without
        a separable prepare stage have nothing to patch.
        """
        return None

    def _patch_filters_prepared(self, request: SearchRequest,
                                prepared: PreparedSearch, delta,
                                ordering) -> Optional[PreparedSearch]:
        """Shared ECF/RWB implementation of :meth:`_patch_prepared`.

        Patches the filter matrices row-wise, then recomputes the visiting
        order from the patched candidate counts — the order is a
        deterministic function of (query, filters), so the patched plan
        reproduces a fresh prepare's search exactly.
        """
        from repro.core.filters import patch_filters

        if prepared.filters is None:
            return None
        filters = patch_filters(prepared.filters, request.query,
                                request.hosting, request.constraint,
                                request.node_constraint, delta=delta)
        if filters is None:
            return None
        return self._prepared_from_filters(request, filters, ordering)

    @staticmethod
    def _prepared_from_filters(request: SearchRequest, filters,
                               ordering) -> PreparedSearch:
        """The ECF/RWB prepared artifacts over built or patched *filters*:
        their statistics, and — unless some query node is left without a
        candidate — the visiting order and its placed-neighbour plan."""
        prepared = PreparedSearch(
            filters=filters,
            constraint_evaluations=filters.constraint_evaluations,
            filter_entries=filters.entry_count,
            filter_build_seconds=filters.build_seconds)
        # If any query node has no candidate at all the query is infeasible
        # and every (empty) search against this plan is complete.
        if any(not filters.node_candidate_masks.get(node)
               for node in request.query.nodes()):
            prepared.infeasible = True
            return prepared
        prepared.order = ordering(request.query, filters)
        prepared.prior = placed_neighbor_plan(request.query, prepared.order)
        return prepared

    def _require_request(self, request: SearchRequest) -> None:
        if not isinstance(request, SearchRequest):
            raise TypeError(
                f"expected a SearchRequest, got {type(request).__name__}; "
                f"build one with SearchRequest.build(query, hosting, ...)")

    def _drive(self, request: SearchRequest, prepared: Optional[PreparedSearch],
               budget: Budget, on_mapping, cancel, rng,
               parallelism: Optional[int] = None, pool=None) -> EmbeddingResult:
        """Shared execution shell behind :meth:`request` and plan executes.

        When *prepared* is ``None`` the compile stage runs here, under the
        same deadline as the search (the historical one-shot behaviour);
        otherwise the precompiled artifacts are credited to the run's
        statistics and only the tree search executes.  *parallelism* ``None``
        defers to the request's own setting; a value above one routes the
        search stage through the sharded engine when the algorithm supports
        root-candidate sharding.
        """
        context = SearchContext(
            query=request.query,
            hosting=request.hosting,
            constraint=request.constraint,
            node_constraint=request.node_constraint,
            deadline=Deadline(budget.timeout),
            max_results=self._effective_max_results(budget.max_results),
            on_mapping=on_mapping,
            cancel=cancel,
            rng=None if rng is None else as_rng(rng),
        )

        if prepared is None:
            screen = None
            if request.query.num_nodes == 0:
                screen = "empty"
            elif request.query.is_obviously_infeasible(request.hosting):
                screen = "infeasible"
        else:
            screen = prepared.screen

        # Empty queries embed trivially with the empty mapping.
        if screen == "empty":
            context.record_mapping({})
            return self._finalise(context, exhausted=True, timed_out=False)

        # Cheap necessary-condition screen: a query that cannot embed for
        # structural reasons is reported as a completed, empty search.
        if screen == "infeasible":
            return self._finalise(context, exhausted=True, timed_out=False)

        if parallelism is None:
            parallelism = request.parallelism
        timed_out = False
        try:
            if prepared is None:
                prepared = self._prepare(request, deadline=context.deadline)
            self._credit_prepared(context, prepared)
            if prepared.infeasible:
                exhausted = True
            elif (parallelism is not None and parallelism > 1
                  and self.supports_sharding):
                from repro.core.parallel import run_sharded
                exhausted = run_sharded(self, context, prepared, parallelism,
                                        pool=pool)
            else:
                exhausted = self._run_prepared(context, prepared)
        except TimeoutExpired:
            exhausted = False
            timed_out = True
        return self._finalise(context, exhausted=exhausted, timed_out=timed_out)

    @staticmethod
    def _credit_prepared(context: SearchContext, prepared: PreparedSearch) -> None:
        """Fold the prepare-stage statistics into this run's counters, so a
        planned execute reports exactly what a fresh one-shot search would."""
        context.stats.constraint_evaluations += prepared.constraint_evaluations
        context.stats.filter_entries = prepared.filter_entries
        context.stats.filter_build_seconds = prepared.filter_build_seconds

    # ------------------------------------------------------------------ #
    # Keyword conveniences (thin wrappers over request())
    # ------------------------------------------------------------------ #

    def find_first(self, query: QueryNetwork, hosting: Network,
                   constraint: ConstraintLike = None,
                   node_constraint: ConstraintLike = None,
                   timeout: Optional[float] = None) -> EmbeddingResult:
        """Convenience wrapper: stop at the first feasible embedding."""
        return self.request(SearchRequest.build(
            query, hosting, constraint=constraint,
            node_constraint=node_constraint,
            budget=Budget.first_match(timeout)))

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #

    def iter_mappings(self, query: QueryNetwork, hosting: Network,
                      constraint: ConstraintLike = None,
                      node_constraint: ConstraintLike = None,
                      timeout: Optional[float] = None,
                      max_results: Optional[int] = None,
                      buffer_size: int = 1) -> Iterator[Mapping]:
        """Yield feasible embeddings lazily, as the search discovers them.

        The search runs in a background thread with a bounded hand-off queue
        (*buffer_size* mappings of backpressure), so the producer pauses when
        the consumer is slow and aborts when the generator is closed — the
        caller never pays for embeddings it does not consume.  Exceptions
        raised by the search (including constraint-evaluation errors)
        re-raise in the consuming thread when the stream is drained.
        """
        request = SearchRequest.build(
            query, hosting, constraint=constraint,
            node_constraint=node_constraint, timeout=timeout,
            max_results=max_results)
        return self.stream(request, buffer_size=buffer_size)

    def stream(self, request: SearchRequest, buffer_size: int = 1,
               pool=None) -> Iterator[Mapping]:
        """Generator form of :meth:`request`: lazily yields each Mapping."""
        if buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1, got {buffer_size}")
        return self._stream(request, buffer_size, pool)

    def _stream(self, request: SearchRequest, buffer_size: int,
                pool=None) -> Iterator[Mapping]:
        def run(push, closed):
            return self.request(request, on_mapping=push, cancel=closed,
                                pool=pool)

        return pump_mapping_stream(run, f"{self.name}-stream", buffer_size)

    # ------------------------------------------------------------------ #

    def _effective_max_results(self, requested: Optional[int]) -> Optional[int]:
        """Hook letting algorithms impose their own cap (RWB caps at one)."""
        return requested

    def _prepare(self, request: SearchRequest, deadline: Optional[Deadline] = None
                 ) -> PreparedSearch:
        """Compile the request-independent-of-budget artifacts.

        The default compiles nothing: :meth:`_run_prepared` then falls back
        to :meth:`_run`, so algorithms without a separable prepare stage (the
        baselines) keep working unchanged — their plans just re-run the whole
        search each execute.  Two-phase algorithms override this together
        with :meth:`_run_prepared`.

        *deadline* is set when compilation happens inside a one-shot
        :meth:`request` (the budget covers both phases) and ``None`` from
        :meth:`prepare` (compilation is meant to be amortised).
        """
        return PreparedSearch()

    def _run_prepared(self, context: SearchContext,
                      prepared: PreparedSearch) -> bool:
        """Run the search stage against prepared artifacts.

        Contract as :meth:`_run`; the default ignores *prepared* and
        delegates to :meth:`_run`.
        """
        return self._run(context)

    # ------------------------------------------------------------------ #
    # Root-candidate sharding (the parallel execution engine)
    # ------------------------------------------------------------------ #

    #: Whether this algorithm can split its search space into independent
    #: root-candidate shards (see :mod:`repro.core.parallel`).  Algorithms
    #: that cannot still accept ``parallelism`` in requests — they simply run
    #: serially.
    supports_sharding: bool = False

    #: Whether a shard needs the networks and constraint expressions in the
    #: worker process.  ECF/RWB bake the constraints into their filter
    #: bitmasks at prepare time and override this to ``False``, which keeps
    #: the pickled payload down to the compiled artifacts.
    _shard_ships_networks: bool = True

    def _shard_specs(self, context: SearchContext, prepared: PreparedSearch,
                     shards: int) -> Optional[List]:
        """Split the search space into at most *shards* picklable specs.

        The specs must be contiguous slices of the exact order in which
        :meth:`_run_prepared` would explore the space (root candidates, or
        deeper assignment prefixes), so that executing them in list order
        reproduces the serial mapping stream.  Implementations that consume
        the run's random stream here (RWB) must consume it exactly as the
        serial path does.  ``None`` means "not shardable for this plan";
        the engine then falls back to :meth:`_run_prepared`.

        **Statistics convention**: work shared by every shard — the root (or
        prefix-tree) expansions performed while splitting — is counted here,
        once, into the parent's ``context.stats``, exactly as a serial run
        counts it; :meth:`_run_shard` then counts only its shard-exclusive
        subtree work.  The merged counters of a full enumeration are thereby
        identical to serial.  An empty list is a valid split: it means the
        split itself already explored (and fully accounted) the space.
        """
        return None

    def _run_shard(self, context: SearchContext, prepared: PreparedSearch,
                   spec) -> bool:
        """Run the search restricted to one shard's slice of the space.

        Contract as :meth:`_run_prepared`; statistics cover only this
        shard's own subtree work (see :meth:`_shard_specs`).
        """
        raise NotImplementedError(
            f"{type(self).__name__} declares supports_sharding but does not "
            f"implement _run_shard()")

    def _run(self, context: SearchContext) -> bool:
        """Perform the search, populating ``context.mappings``.

        Subclasses implement either this method or the
        :meth:`_prepare`/:meth:`_run_prepared` pair (in which case ``_run``
        is never called).

        Returns
        -------
        bool
            ``True`` if the search space was exhaustively explored (so the
            result set is provably complete), ``False`` if the search stopped
            early (result cap).  Deadline expiry is signalled by letting
            :class:`TimeoutExpired` propagate.
        """
        raise NotImplementedError(
            f"{type(self).__name__} must implement _run() or override "
            f"_prepare()/_run_prepared()")

    def _finalise(self, context: SearchContext, exhausted: bool, timed_out: bool
                  ) -> EmbeddingResult:
        truncated = context.reached_cap and not exhausted
        status = classify(found_any=bool(context.mappings), exhausted=exhausted,
                          timed_out=timed_out, truncated=truncated)
        return EmbeddingResult(
            status=status,
            mappings=list(context.mappings),
            algorithm=self.name,
            elapsed_seconds=context.elapsed,
            time_to_first_seconds=context.time_to_first,
            timed_out=timed_out,
            truncated=truncated,
            stats=context.stats,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} ({self.name})>"

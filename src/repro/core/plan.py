"""Compiled embedding plans and the version-aware plan cache.

The NETEMBED service (paper §III) is a long-lived facade answering a stream
of embedding queries against slowly-drifting network models.  Treating each
query as a one-shot ``request()`` re-pays the whole hosting-side compilation —
indexing, arc tables, filter matrices — on every call, even though that work
is identical for every request hitting the same model version.  This module
splits the API in two:

* :meth:`EmbeddingAlgorithm.prepare(request) <repro.core.base.EmbeddingAlgorithm.prepare>`
  compiles the request into an :class:`EmbeddingPlan` — the
  :class:`~repro.core.indexing.NodeIndexer`, the vectorizer kernels and the
  filter/candidate bitmasks, frozen at a specific model epoch;
* :meth:`EmbeddingPlan.execute` / :meth:`EmbeddingPlan.iter_mappings` run the
  search against those artifacts as many times as the caller likes, each run
  with its own budget (and, for seedable algorithms, its own random stream).

Plans are *version-aware*: they capture the hosting and query networks'
monotonic :attr:`~repro.graphs.network.Network.mutation_count` at prepare
time, so staleness is a pair of integer comparisons.  Executing a stale plan
raises :class:`PlanInvalidatedError`; :meth:`EmbeddingPlan.refresh` recompiles.

:class:`PlanCache` is the bounded LRU the service routes its traffic through,
keyed by (network name, model version, algorithm signature, request
fingerprint) with hit/miss/eviction statistics per cache and per entry.
:meth:`PlanCache.acquire` is the one place the miss policy (patch the plan a
monitor tick stranded, else compile under the request's deadline) is
decided; the service and every cluster partition worker go through it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple

from repro.api.request import Budget, SearchRequest
from repro.core.filters import FilterMatrices, LazyEdgeVerdicts
from repro.core.indexing import NodeIndexer
from repro.core.kernel import KernelPlan, active_backend
from repro.core.mapping import Mapping
from repro.core.result import EmbeddingResult
from repro.utils.timing import Deadline, TimeoutExpired

NodeId = Hashable


class PlanInvalidatedError(RuntimeError):
    """Raised when a stale :class:`EmbeddingPlan` is executed.

    A plan is stale once the hosting or query network has mutated since
    :meth:`~repro.core.base.EmbeddingAlgorithm.prepare` compiled it — its
    bitmasks may describe edges that no longer exist.  Re-prepare (or call
    :meth:`EmbeddingPlan.refresh`) to get fresh artifacts.
    """


@dataclass
class PreparedSearch:
    """Artifacts compiled by an algorithm's prepare stage.

    Which fields are populated depends on the algorithm: ECF/RWB fill
    :attr:`filters`/:attr:`order`/:attr:`prior`, LNS fills
    :attr:`indexer`/:attr:`allowed_masks` (its edge constraint is evaluated
    lazily at search time — :meth:`edge_verdicts` memoises what a walk
    evaluated), and algorithms without a separable prepare stage
    leave everything empty — their plans simply re-run the search from
    scratch on every execute.
    """

    #: ECF/RWB: the compiled filter matrices (``F``/``F̄`` bitmasks).
    filters: Optional[FilterMatrices] = None
    #: ECF/RWB: the query-node visiting order (Lemma 1 heuristics).
    order: Optional[List[NodeId]] = None
    #: ECF/RWB: per-depth placed-neighbour tuples for ``order``.
    prior: Optional[List[Tuple[NodeId, ...]]] = None
    #: LNS: dense index over the hosting nodes.
    indexer: Optional[NodeIndexer] = None
    #: LNS: per-query-node candidate bitmasks from the node constraint.
    allowed_masks: Optional[Dict[NodeId, int]] = None
    #: LNS: memoised hosting adjacency bitmasks, shared across executes.
    adjacency_masks: Optional[Dict[NodeId, int]] = None
    #: Some query node has no candidate at all: every execute is an empty,
    #: provably complete search and the tree stage is skipped entirely.
    infeasible: bool = False
    #: Outcome of the cheap structural screens, decided once at prepare time:
    #: ``"empty"`` (zero-node query — embeds trivially), ``"infeasible"``
    #: (structurally impossible), or ``None`` (search normally).  Executes
    #: trust this instead of re-screening on every run.
    screen: Optional[str] = None
    #: Stats credited to each execute so a planned run reports exactly what a
    #: fresh search would (the filter stage ran once, at prepare time).
    constraint_evaluations: int = 0
    filter_entries: int = 0
    filter_build_seconds: float = 0.0
    #: ECF/RWB: :meth:`kernel_plan`'s memo — derived, so never pickled.
    _kernel_plan: Optional[KernelPlan] = field(
        default=None, init=False, repr=False, compare=False)
    #: LNS: the batched connecting-edge verdicts and their memo — per
    #: (query edge, orientation, placed host) an *exists* and a *passed* mask,
    #: filled only for pairs a walk reaches while a hosting compile is there
    #: to read (LNS never builds one), so a re-execute against an unchanged
    #: model does bit operations only.  Bounded in bytes (dropped whole past
    #: the cap), valid for this object's model epoch only — a patched plan
    #: starts without it — and derived, so never pickled.
    _edge_verdicts: Optional[LazyEdgeVerdicts] = field(
        default=None, init=False, repr=False, compare=False)

    def kernel_plan(self) -> KernelPlan:
        """ECF/RWB: the search-ready view of this object's one
        ``(filters, order, prior)``, built on first search and kept."""
        plan = self._kernel_plan
        if plan is None:
            plan = self._kernel_plan = KernelPlan(self.filters, self.order,
                                                  self.prior)
        return plan

    def edge_verdicts(self, query, constraint) -> Optional[LazyEdgeVerdicts]:
        """LNS: this object's batched connecting-edge verdicts, planned on
        first use and kept; ``None`` when (*query*, *constraint*) — the
        prepared request's own — is answered by the scalar checks."""
        verdicts = self._edge_verdicts
        if verdicts is None:
            verdicts = self._edge_verdicts = LazyEdgeVerdicts.plan(
                query, constraint)
        return verdicts

    def __getstate__(self):
        """Pickle the compiled artifacts only; a shard rebuilds the kernel
        plan from the shipped blocks in its own process (and, holding no
        hosting compile, runs LNS's scalar checks)."""
        state = dict(self.__dict__)
        state["_kernel_plan"] = None
        state["_edge_verdicts"] = None
        return state


class EmbeddingPlan:
    """A compiled, reusable (algorithm, request) pair.

    Obtained from :meth:`EmbeddingAlgorithm.prepare`; holds everything the
    search needs that does not depend on the per-run budget or random stream.
    Executions are independent and thread-safe: the prepared artifacts are
    only read (LNS's adjacency memo grows monotonically), and each execute
    gets its own deadline, statistics and result.
    """

    def __init__(self, algorithm, request: SearchRequest,
                 prepared: PreparedSearch, prepare_seconds: float = 0.0,
                 hosting_epoch: Optional[int] = None,
                 query_epoch: Optional[int] = None) -> None:
        self.algorithm = algorithm
        self.request = request
        self.prepared = prepared
        #: Wall-clock seconds the prepare stage took.
        self.prepare_seconds = prepare_seconds
        #: Model epochs the plan was compiled against.  prepare() reads them
        #: *before* compilation, so a mutation landing mid-compile leaves the
        #: plan stale rather than silently half-built.
        self.hosting_epoch = (request.hosting.mutation_count
                              if hosting_epoch is None else hosting_epoch)
        self.query_epoch = (request.query.mutation_count
                            if query_epoch is None else query_epoch)
        #: How the plan came to be, when produced by :meth:`refresh`:
        #: ``"patched"`` (delta-aware incremental patch) or ``"recompiled"``
        #: (full prepare); ``None`` for plans prepared directly.
        self.refresh_mode: Optional[str] = None
        self._executions = 0
        self._executions_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Staleness
    # ------------------------------------------------------------------ #

    @property
    def stale(self) -> bool:
        """Whether either network has mutated since this plan was compiled."""
        return (self.hosting_epoch != self.request.hosting.mutation_count
                or self.query_epoch != self.request.query.mutation_count)

    def check_fresh(self) -> None:
        """Raise :class:`PlanInvalidatedError` if the plan is stale."""
        if self.stale:
            raise PlanInvalidatedError(
                f"plan for {self.request.query.name!r} -> "
                f"{self.request.hosting.name!r} was compiled at epoch "
                f"(hosting={self.hosting_epoch}, query={self.query_epoch}) but "
                f"the networks are now at "
                f"(hosting={self.request.hosting.mutation_count}, "
                f"query={self.request.query.mutation_count}); re-prepare the plan")

    @property
    def patchable(self) -> bool:
        """Whether the incremental patch path *could* apply to this plan.

        True when the query is unchanged and the hosting network's journal
        still covers the plan's epoch with attribute-only mutations.  A
        cheap (O(1), no delta materialised) necessary condition —
        :meth:`try_patch` may still decline (e.g. the delta touches too
        many rows) — used by the plan cache on its eviction sweep to decide
        which stale entries are worth keeping around.
        """
        if self.query_epoch != self.request.query.mutation_count:
            return False
        return self.request.hosting.mutation_journal.can_replay_from(
            self.hosting_epoch)

    def try_patch(self) -> Optional["EmbeddingPlan"]:
        """A delta-patched plan at the current epochs, or ``None``.

        Routes through the algorithm's incremental recompile path
        (:meth:`~repro.core.base.EmbeddingAlgorithm.patch_plan`): the
        hosting network's mutation journal is replayed onto the compiled
        artifacts, so the cost is proportional to the delta rather than to
        the network.  ``None`` means "not patchable — rebuild": the journal
        overflowed, the delta was structural, the query itself mutated, or
        the algorithm keeps no patchable artifacts.  This plan is never
        mutated; a returned plan is a fresh object with
        ``refresh_mode == "patched"``.
        """
        patched = self.algorithm.patch_plan(self)
        if patched is not None and patched is not self:
            patched.refresh_mode = "patched"
        return patched

    def refresh(self) -> "EmbeddingPlan":
        """A plan for the same request at the current epochs.

        A fresh plan is returned as-is, and a stale one is first offered to
        the delta-aware patch path — falling back to a full
        :meth:`~repro.core.base.EmbeddingAlgorithm.prepare` whenever
        patching does not apply.  The returned plan's :attr:`refresh_mode`
        says which route was taken.
        """
        if not self.stale:
            return self
        patched = self.try_patch()
        if patched is not None:
            return patched
        plan = self.algorithm.prepare(self.request)
        plan.refresh_mode = "recompiled"
        return plan

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    @property
    def executions(self) -> int:
        """How many times this plan has been executed."""
        return self._executions

    def execute(self, budget: Optional[Budget] = None, *,
                on_mapping=None, cancel=None, rng=None,
                parallelism: Optional[int] = None, pool=None) -> EmbeddingResult:
        """Run the search against the compiled artifacts.

        Parameters
        ----------
        budget:
            Per-run limits; defaults to the prepared request's budget.  The
            timeout covers only the tree search — the filter stage already
            ran at prepare time, which is the whole point.
        on_mapping, cancel:
            Streaming hooks, as on :meth:`EmbeddingAlgorithm.request`.
        rng:
            Per-run randomness source for seedable algorithms (RWB); lets a
            single cached plan serve requests carrying different seeds.
            Ignored by deterministic algorithms.
        parallelism:
            Shard the search across this many process-pool workers
            (:mod:`repro.core.parallel`); the mapping stream and the
            full-enumeration counters are identical to a serial run.
            ``None`` defers to the prepared request's own ``parallelism``;
            ``1`` forces serial.
        pool:
            Executor for the shards (``None`` = the module-wide shared
            process pool; a ``ThreadPoolExecutor`` gets thread shards); only
            consulted when parallelism is in effect.
        """
        self.check_fresh()
        run_budget = self.request.budget if budget is None else budget
        result = self.algorithm._drive(self.request, prepared=self.prepared,
                                       budget=run_budget, on_mapping=on_mapping,
                                       cancel=cancel, rng=rng,
                                       parallelism=parallelism, pool=pool)
        with self._executions_lock:
            self._executions += 1
        return result

    def stream(self, budget: Optional[Budget] = None, buffer_size: int = 1,
               rng=None, parallelism: Optional[int] = None,
               pool=None) -> Iterator[Mapping]:
        """Generator form of :meth:`execute`: lazily yields each Mapping."""
        if buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1, got {buffer_size}")
        self.check_fresh()
        from repro.core.base import pump_mapping_stream

        def run(push, closed):
            return self.execute(budget, on_mapping=push, cancel=closed,
                                rng=rng, parallelism=parallelism, pool=pool)

        return pump_mapping_stream(run, f"{self.algorithm.name}-plan",
                                   buffer_size)

    def iter_mappings(self, budget: Optional[Budget] = None,
                      buffer_size: int = 1, rng=None,
                      parallelism: Optional[int] = None,
                      pool=None) -> Iterator[Mapping]:
        """Alias of :meth:`stream`, mirroring the algorithm-level API."""
        return self.stream(budget=budget, buffer_size=buffer_size, rng=rng,
                           parallelism=parallelism, pool=pool)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def describe(self) -> Dict[str, Any]:
        """A JSON-friendly summary of the plan (used by ``repro plan``)."""
        filters = self.prepared.filters
        return {
            "kernel": active_backend(),
            "algorithm": self.algorithm.name,
            "query": self.request.query.name,
            "hosting": self.request.hosting.name,
            "hosting_epoch": self.hosting_epoch,
            "query_epoch": self.query_epoch,
            "stale": self.stale,
            "infeasible": self.prepared.infeasible,
            "executions": self._executions,
            "prepare_seconds": self.prepare_seconds,
            "filter_cells": filters.cell_count if filters is not None else 0,
            "filter_entries": self.prepared.filter_entries,
            "constraint_evaluations": self.prepared.constraint_evaluations,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "stale" if self.stale else "fresh"
        return (f"<EmbeddingPlan {self.algorithm.name} "
                f"{self.request.query.name!r} -> {self.request.hosting.name!r} "
                f"[{state}, {self._executions} executions]>")


# --------------------------------------------------------------------------- #
# The version-aware LRU plan cache
# --------------------------------------------------------------------------- #

#: Cache key: (network name, model version, algorithm signature, request
#: fingerprint).  The model version makes monitor refreshes an automatic
#: miss; the plan's own epoch check catches in-place mutations that nobody
#: reported to the registry.
PlanKey = Tuple


@dataclass
class PlanCacheEntry:
    """One cached plan plus its per-entry statistics."""

    key: PlanKey
    plan: EmbeddingPlan
    hits: int = 0


class PlanCache:
    """A bounded, thread-safe LRU cache of :class:`EmbeddingPlan` objects.

    ``get`` drops (and counts) entries whose plan went stale underneath the
    key — the cache never hands out a plan that would raise
    :class:`PlanInvalidatedError` on execute.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[PlanKey, PlanCacheEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._patched = 0
        self._recompiled = 0

    # ------------------------------------------------------------------ #

    def get(self, key: PlanKey) -> Optional[EmbeddingPlan]:
        """The cached plan for *key*, or ``None`` (counted as a miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            if entry.plan.stale:
                del self._entries[key]
                self._invalidations += 1
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            entry.hits += 1
            return entry.plan

    def put(self, key: PlanKey, plan: EmbeddingPlan,
            refresh_mode: Optional[str] = None) -> None:
        """Insert (or replace) *key*'s plan, evicting LRU entries if needed.

        Also purges every entry whose plan has gone stale *and* is beyond
        the reach of the incremental patch path: entries keyed by a
        superseded model version become unreachable through :meth:`get`
        (lookups carry the new version), so without the sweep they would pin
        their filter matrices — and, after a re-register, the whole replaced
        network — until LRU churn aged them out.  Stale-but-patchable
        entries survive the sweep: they are the raw material
        :meth:`pop_predecessor` turns into cheaply patched plans when their
        traffic returns, and the LRU bound still caps their number.  ``put``
        only runs on the cold miss path, so the O(size) sweep never taxes
        warm hits.

        *refresh_mode* records how a stale predecessor was brought up to
        date for this key — ``"patched"`` (delta patch) or ``"recompiled"``
        (full prepare) — and feeds the corresponding :meth:`stats` counters.
        """
        with self._lock:
            if refresh_mode == "patched":
                self._patched += 1
            elif refresh_mode == "recompiled":
                self._recompiled += 1
            for stale_key in [k for k, entry in self._entries.items()
                              if entry.plan.stale and not entry.plan.patchable]:
                del self._entries[stale_key]
                self._invalidations += 1
            if key in self._entries:
                self._entries[key].plan = plan
                self._entries.move_to_end(key)
            else:
                self._entries[key] = PlanCacheEntry(key=key, plan=plan)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self._evictions += 1

    def acquire(self, key: PlanKey, algorithm, request: SearchRequest,
                deadline: Optional[Deadline] = None
                ) -> Optional[EmbeddingPlan]:
        """The cached plan for *key*, or one brought up to date and cached.

        On a miss caused by model churn (a monitor tick bumped the version,
        stranding the previous plan under the old key), the superseded plan
        is pulled back via :meth:`pop_predecessor` and offered to the
        incremental patch path first: an attribute-only delta is replayed
        onto the compiled artifacts instead of recompiling them (counted as
        ``patched``, else ``recompiled``).  A predecessor compiled from a
        *replaced* network object (a re-register) is never patched — its
        artifacts describe the old infrastructure.

        Otherwise *algorithm* (which must support prepare) compiles
        *request*.  If *deadline* expires first, ``None`` is returned and
        nothing is cached: the caller falls back to the one-shot
        ``request()`` path, which re-runs under a fresh deadline and
        classifies the timeout properly (worst case one request costs two
        timeout budgets, never unbounded).  ``deadline=None`` (explicit
        cache warming) compiles to completion.

        Two racing callers may both miss and compile the same plan; the
        second ``put`` replaces the first — both are valid for the key.
        """
        plan = self.get(key)
        if plan is not None:
            return plan
        refresh_mode = None
        predecessor = self.pop_predecessor(key)
        if predecessor is not None:
            refresh_mode = "recompiled"
            if predecessor.request.hosting is request.hosting:
                patched = predecessor.try_patch()
                if patched is not None and not patched.stale:
                    self.put(key, patched, refresh_mode="patched")
                    return patched
        try:
            plan = algorithm.prepare(request, deadline=deadline)
        except TimeoutExpired:
            return None
        self.put(key, plan, refresh_mode=refresh_mode)
        return plan

    def pop_predecessor(self, key: PlanKey) -> Optional[EmbeddingPlan]:
        """Remove and return a superseded-version plan for *key*'s traffic.

        A predecessor shares *key*'s network name, algorithm signature and
        request fingerprint but was compiled against a different model
        version — exactly the entry a monitor tick stranded.  The caller
        (:meth:`acquire`) decides whether it can be patched onto the
        live model or must be recompiled; either way it is removed here so a
        failed patch cannot be retried forever.  ``None`` when no such entry
        exists.  Requires the canonical 4-tuple key shape.
        """
        name, _version, signature, fingerprint = key
        with self._lock:
            for other, entry in self._entries.items():
                if (other != key and other[0] == name
                        and other[2] == signature and other[3] == fingerprint):
                    del self._entries[other]
                    return entry.plan
        return None

    def clear(self) -> None:
        """Drop every cached plan (statistics are kept)."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, int]:
        """Aggregate hit/miss/eviction counters (a snapshot)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "invalidations": self._invalidations,
                "patched": self._patched,
                "recompiled": self._recompiled,
            }

    def entries(self) -> List[PlanCacheEntry]:
        """Snapshot of the cached entries, LRU-first."""
        with self._lock:
            return list(self._entries.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: PlanKey) -> bool:
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and not entry.plan.stale

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return (f"<PlanCache {stats['size']}/{stats['capacity']} entries, "
                f"{stats['hits']} hits / {stats['misses']} misses>")

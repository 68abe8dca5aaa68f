"""The NETEMBED service facade (§III component 2).

:class:`NetEmbedService` puts the monolithic mapping engine behind the
:class:`~repro.service.base.EmbeddingService` shell: the selection policy,
the version-aware plan cache (compiled :class:`~repro.core.plan.EmbeddingPlan`
artifacts reused across requests hitting the same model version) with its
one-shot fallback, the shared shard process pool, and the pinned local
repair search.  Applications interact with it through
:class:`~repro.service.spec.QuerySpec` /
:class:`~repro.service.spec.EmbeddingResponse`, the convenience
:meth:`NetEmbedService.embed` keyword interface, the streaming
:meth:`NetEmbedService.stream`, or — for many queries at once —
:meth:`NetEmbedService.submit_batch`, which fans specs out over a reusable
thread pool with independent per-request deadlines.

Algorithm auto-selection is delegated to a pluggable
:class:`~repro.api.selection.SelectionPolicy`; the default
:class:`~repro.api.selection.PaperSelectionPolicy` encodes the paper's own
guidance (§VII-E, §VIII) over the capabilities algorithms declare in the
:mod:`repro.api` registry, instead of an isinstance/if-chain.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, Optional, Tuple

from repro.api.registry import AlgorithmInfo, AlgorithmRegistry, Capability
from repro.api.request import SearchRequest
from repro.api.selection import PaperSelectionPolicy, SelectionPolicy
from repro.core import EmbeddingAlgorithm
from repro.core.mapping import Mapping
from repro.core.plan import EmbeddingPlan, PlanInvalidatedError
from repro.core.repair import repair_mapping
from repro.core.result import EmbeddingResult
from repro.graphs.hosting import HostingNetwork
from repro.service.base import EmbeddingService
from repro.service.spec import QuerySpec
from repro.utils.rng import RandomSource
from repro.utils.timing import Deadline


class NetEmbedService(EmbeddingService):
    """A complete, in-process NETEMBED service instance.

    *default_timeout*, *algorithms* and *max_workers* are the shell's — see
    :class:`~repro.service.base.EmbeddingService`.

    Parameters
    ----------
    rng:
        Randomness source handed to seedable algorithms created by the
        service when a spec carries no per-request seed.
    selection_policy:
        How ``algorithm="auto"`` requests pick an algorithm; defaults to
        :class:`~repro.api.selection.PaperSelectionPolicy`.
    plan_cache_size:
        Capacity of the LRU :class:`~repro.core.plan.PlanCache` that
        :meth:`embed`/:meth:`submit`/:meth:`submit_batch`/:meth:`stream`
        route preparable algorithms through, keyed by (network name, model
        version, algorithm signature, request fingerprint).  Repeated
        queries against an unchanged model skip the whole compile stage; a
        monitor refresh (version bump) or any network mutation invalidates
        the affected plans automatically.
    parallel_workers:
        Size bound of the service's shared shard process pool (``None`` =
        ``os.cpu_count()``).  Specs carrying ``parallelism > 1`` — batch
        and streaming traffic alike — run their search stage on this one
        pool (created lazily, torn down by :meth:`shutdown`), so the
        process count stays bounded no matter how many requests ask for
        parallelism at once.
    """

    def __init__(self, default_timeout: float = 30.0, rng: RandomSource = None,
                 selection_policy: Optional[SelectionPolicy] = None,
                 algorithms: Optional[AlgorithmRegistry] = None,
                 max_workers: Optional[int] = None,
                 plan_cache_size: int = 128,
                 parallel_workers: Optional[int] = None) -> None:
        super().__init__(default_timeout, rng, algorithms, plan_cache_size,
                         max_workers)
        self.selection_policy = (selection_policy if selection_policy is not None
                                 else PaperSelectionPolicy())
        self._parallel_workers = parallel_workers
        self._process_pool = None
        self._process_pool_lock = threading.Lock()
        #: Default-configured instance per algorithm name, shared by the plan
        #: path (prepared artifacts are config- and seed-independent, and the
        #: search stage keeps all mutable state per run) — avoids building a
        #: throwaway instance on every warm-cache submit.
        self._plan_algorithms: Dict[str, EmbeddingAlgorithm] = {}

    # ------------------------------------------------------------------ #
    # The engine: answering, repairing, streaming
    # ------------------------------------------------------------------ #

    def _answer(self, spec: QuerySpec, request: SearchRequest,
                network_name: str, version: int
                ) -> Tuple[EmbeddingResult, str]:
        """One search over the whole model, through the plan cache.

        Preparable algorithms (ECF/RWB/LNS) route through the plan cache:
        the compiled plan for this (network version, query, constraints) is
        fetched or built, then executed under the spec's own budget — a warm
        hit skips filter construction entirely.  Per-request seeds still
        apply; they are threaded into the execute stage, not baked into the
        cached plan.
        """
        info = self._algorithm_info(spec, request.hosting)
        parallelism, shard_pool = self._shard_plan_for(spec)
        plan = (self._cached_plan(network_name, version, info, request)
                if spec.cache else None)
        if plan is not None:
            try:
                result = plan.execute(budget=request.budget,
                                      rng=self._execution_rng(info, spec),
                                      parallelism=parallelism, pool=shard_pool)
                return result, plan.algorithm.name
            except PlanInvalidatedError:
                # A monitor tick landed between the cache fetch and the
                # execute; degrade to the one-shot path against the live
                # model instead of surfacing the internal staleness signal.
                pass
        algorithm = self._instantiate(info, spec)
        return algorithm.request(request, pool=shard_pool), algorithm.name

    def _search_repair(self, reservation, network: HostingNetwork,
                       timeout: float, candidate_ok):
        """The LNS-style local search of :mod:`repro.core.repair`."""
        return repair_mapping(
            reservation.query, network, reservation.mapping,
            constraint=reservation.constraint,
            node_constraint=reservation.node_constraint,
            timeout=timeout, candidate_ok=candidate_ok)

    def prepare(self, spec: QuerySpec) -> EmbeddingPlan:
        """Compile (or fetch from the plan cache) the plan for *spec*.

        Lets callers warm the cache ahead of traffic, or hold a plan and
        drive :meth:`~repro.core.plan.EmbeddingPlan.execute` themselves with
        per-run budgets.  Algorithms without a separable prepare stage still
        return a working plan — it just re-runs the full search per execute
        and is not cached.  A spec carrying a seed gets a private plan bound
        to a seeded instance (not cached — cached plans are seed-agnostic;
        their per-request seeds arrive via ``execute(rng=...)``), so
        ``prepare(spec).execute()`` reproduces ``submit(spec)``.
        """
        network_name, hosting, version = self._resolve_network(spec.network)
        info = self._algorithm_info(spec, hosting)
        request = spec.to_request(hosting, default_timeout=self._default_timeout)
        if spec.seed is None or not info.has(Capability.SEEDABLE):
            plan = self._cached_plan(network_name, version, info, request,
                                     bounded=False)
            if plan is not None:
                return plan
        return self._instantiate(info, spec).prepare(request)

    def _stream(self, spec: QuerySpec, buffer_size: int) -> Iterator[Mapping]:
        """Lazily yield the embeddings for *spec* as the search finds them.

        Unlike :meth:`submit` this never materialises the full result list;
        closing the generator aborts the underlying search.
        """
        network_name, hosting, version = self._resolve_network(spec.network)
        info = self._algorithm_info(spec, hosting)
        request = spec.to_request(hosting, default_timeout=self._default_timeout)
        parallelism, shard_pool = self._shard_plan_for(spec)
        plan = (self._cached_plan(network_name, version, info, request)
                if spec.cache else None)
        if plan is not None:
            return self._stream_plan_with_fallback(plan, request, info, spec,
                                                   buffer_size, parallelism,
                                                   shard_pool)
        algorithm = self._instantiate(info, spec)
        return algorithm.stream(request, buffer_size=buffer_size,
                                pool=shard_pool)

    def _stream_plan_with_fallback(self, plan: EmbeddingPlan,
                                   request: SearchRequest, info: AlgorithmInfo,
                                   spec: QuerySpec, buffer_size: int,
                                   parallelism: Optional[int],
                                   shard_pool) -> Iterator[Mapping]:
        """Stream from *plan*, degrading to the one-shot path on staleness.

        The staleness check runs when the lazily-started search begins, which
        may be long after the generator was created — a monitor tick in that
        window must not surface :class:`PlanInvalidatedError` to the
        consumer.  The check fires before any mapping is produced, so the
        fallback never duplicates output.
        """
        try:
            yield from plan.stream(budget=request.budget,
                                   buffer_size=buffer_size,
                                   rng=self._execution_rng(info, spec),
                                   parallelism=parallelism, pool=shard_pool)
            return
        except PlanInvalidatedError:
            pass    # raced a mutation: stream one-shot against the live model
        algorithm = self._instantiate(info, spec)
        yield from algorithm.stream(request, buffer_size=buffer_size,
                                    pool=shard_pool)

    # ------------------------------------------------------------------ #
    # The shard process pool: lifecycle and counters
    # ------------------------------------------------------------------ #

    @property
    def process_pool(self):
        """The shared shard process pool, if one has been created yet."""
        return self._process_pool

    def _ensure_process_pool(self):
        """The shared shard pool, created lazily on the first parallel spec.

        A pool whose worker died (OOM-killed, crashed) is unusable forever —
        every submit raises ``BrokenProcessPool`` — so it is discarded and
        replaced here: the spec that witnessed the breakage degrades to
        serial inside the parallel engine, and the next parallel spec gets
        a fresh pool instead of a permanently dead one.
        """
        from repro.core.parallel import make_pool

        with self._process_pool_lock:
            pool = self._process_pool
            if pool is not None and getattr(pool, "_broken", False):
                pool.shutdown(wait=False)
                pool = self._process_pool = None
            if pool is None:
                pool = self._process_pool = make_pool(self._parallel_workers)
            return pool

    def _shard_plan_for(self, spec: QuerySpec):
        """``(parallelism, pool)`` for one spec's search stage.

        Serial specs get ``(1, None)`` — an explicit ``1`` so a cached plan
        prepared from some *other* spec's parallel request cannot leak its
        setting into this run.  Parallel specs share the service's one
        bounded pool: concurrent batch workers queue their shards onto the
        same processes instead of each spawning their own.
        """
        if spec.parallelism is None or spec.parallelism <= 1:
            return 1, None
        return spec.parallelism, self._ensure_process_pool()

    def shutdown(self, wait: bool = True) -> None:
        """Tear down the batch thread pool, the WAL and the shard process pool."""
        super().shutdown(wait=wait)
        with self._process_pool_lock:
            process_pool, self._process_pool = self._process_pool, None
        if process_pool is not None:
            process_pool.shutdown(wait=wait)

    def stats(self) -> Dict[str, object]:
        """The service snapshot plus the shard-pool and supervisor counters."""
        from repro.core.parallel import default_supervisor

        stats = super().stats()
        process_pool = self._process_pool
        stats["pools"]["shard_processes"] = {
            "created": process_pool is not None,
            "max_workers": getattr(process_pool, "_max_workers", None),
        }
        stats["pools"]["supervisor"] = default_supervisor().stats()
        return stats

    # ------------------------------------------------------------------ #
    # Resolution helpers
    # ------------------------------------------------------------------ #

    def _algorithm_info(self, spec: QuerySpec, hosting: HostingNetwork
                        ) -> AlgorithmInfo:
        """The registry entry for *spec* (auto-selection or by name)."""
        if spec.algorithm.lower() == "auto":
            return self.selection_policy.select(
                spec.query, hosting, max_results=spec.max_results,
                registry=self.algorithms)
        return self.algorithms.get(spec.algorithm)

    def _instantiate(self, info: AlgorithmInfo, spec: QuerySpec
                     ) -> EmbeddingAlgorithm:
        """Build an algorithm instance for the direct (non-plan) path."""
        kwargs = {}
        if info.has(Capability.SEEDABLE):
            kwargs["rng"] = spec.seed if spec.seed is not None else self._rng
        return info.create(**kwargs)

    def _execution_rng(self, info: AlgorithmInfo, spec: QuerySpec):
        """The per-run randomness source threaded into a plan execute."""
        if not info.has(Capability.SEEDABLE):
            return None
        return spec.seed if spec.seed is not None else self._rng

    def _cached_plan(self, network_name: str, version: int,
                     info: AlgorithmInfo, request: SearchRequest,
                     bounded: bool = True) -> Optional[EmbeddingPlan]:
        """The cached (or freshly compiled and cached) plan for *request*.

        Returns ``None`` for algorithms without a separable prepare stage —
        caching their plans would only pin memory without amortising
        anything.  Seedable-but-preparable algorithms (RWB) are cached
        seedless: the plan's artifacts are seed-independent and the random
        stream arrives per execute.

        The policy is :meth:`PlanCache.acquire
        <repro.core.plan.PlanCache.acquire>`; *bounded* (the submit/stream
        path) runs a cold compile under the request's own timeout, ``False``
        (explicit cache warming) compiles to completion.
        """
        algorithm = self._plan_algorithms.get(info.name)
        if algorithm is None:
            algorithm = self._plan_algorithms.setdefault(info.name,
                                                         info.create())
        if not algorithm.supports_prepare:
            return None
        key = (network_name, version,
               algorithm.plan_signature(), request.fingerprint())
        return self.plans.acquire(
            key, algorithm, request,
            deadline=Deadline(request.budget.timeout) if bounded else None)

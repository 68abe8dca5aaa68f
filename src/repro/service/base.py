"""The one mapping-service shell (§III): registry, ledger, request lifecycle.

The paper has a single mapping *service* and what varies between deployments
is the *engine* behind it: :class:`EmbeddingService` is that service, written
once, and :class:`~repro.service.netembed.NetEmbedService` (monolithic) and
:class:`~repro.cluster.service.ClusterService` (partitioned) derive from it.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import repro.baselines  # noqa: F401 — registers the baselines for by-name use
from repro import faults
from repro.api.registry import AlgorithmRegistry, default_registry
from repro.api.request import SearchRequest
from repro.constraints import ConstraintExpression
from repro.core.mapping import Mapping
from repro.core.plan import PlanCache
from repro.core.repair import CandidateFilter
from repro.core.result import EmbeddingResult
from repro.graphs.graphml import read_graphml
from repro.graphs.hosting import HostingNetwork
from repro.graphs.query import QueryNetwork
from repro.service.model import NetworkModelRegistry
from repro.service.monitor import MonitorConfig, SimulatedMonitor
from repro.service.reservation import Reservation, ReservationError, ReservationManager
from repro.service.spec import EmbeddingResponse, QuerySpec, RepairResponse
from repro.utils.rng import RandomSource


class EmbeddingService:
    """The engine-independent part of an in-process NETEMBED service.

    Owns the model registry and its monitors, the plan cache, the reservation
    ledger with its WAL, the batch pool and the request lifecycle.  Not
    instantiated directly: an engine subclass supplies the two searches —
    :meth:`_answer` and :meth:`_search_repair` — and may stream lazily
    (:meth:`_stream`) and add its own ``stats()`` keys.

    Parameters
    ----------
    default_timeout:
        Timeout (seconds) applied to queries that do not set their own; the
        paper's service always bounds searches so it can classify results as
        complete / partial / inconclusive.
    rng:
        Default randomness source for attached monitors and seedable
        algorithms.
    algorithms:
        The registry per-request ``algorithm`` names resolve against;
        defaults to the process-wide registry with all built-in algorithms.
    plan_cache_size:
        Capacity of the service's one :class:`~repro.core.plan.PlanCache`.
    max_workers:
        Thread-pool size for :meth:`submit_batch` (``None`` = the
        :class:`~concurrent.futures.ThreadPoolExecutor` default).  The pool
        is created lazily on the first batch and reused afterwards.
    """

    def __init__(self, default_timeout: float, rng: RandomSource,
                 algorithms: Optional[AlgorithmRegistry],
                 plan_cache_size: int, max_workers: Optional[int]) -> None:
        if default_timeout <= 0:
            raise ValueError(f"default_timeout must be positive, got {default_timeout}")
        self.registry = NetworkModelRegistry()
        self.reservations = ReservationManager()
        self.algorithms = algorithms if algorithms is not None else default_registry()
        self.plans = PlanCache(capacity=plan_cache_size)
        self._default_timeout = default_timeout
        self._rng = rng
        self._monitors: Dict[str, SimulatedMonitor] = {}
        self._max_workers = max_workers
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Model management
    # ------------------------------------------------------------------ #

    def register_network(self, network: HostingNetwork, name: Optional[str] = None,
                         description: str = "", default: bool = False) -> str:
        """Register a hosting network model; returns the name it is stored under."""
        return self.registry.register(network, name=name, description=description,
                                      default=default)

    def register_network_from_graphml(self, path, name: Optional[str] = None,
                                      default: bool = False, **kwargs) -> str:
        """Load a GraphML hosting network; *kwargs* go to :meth:`register_network`."""
        network = read_graphml(path, cls=HostingNetwork, name=name)
        return self.register_network(network, name=name, default=default,
                                     **kwargs)

    def attach_monitor(self, network_name: Optional[str] = None,
                       config: Optional[MonitorConfig] = None,
                       rng: RandomSource = None) -> SimulatedMonitor:
        """Attach a simulated monitoring service to a registered network."""
        key = network_name or self.registry.default_name
        if key is None:
            raise ValueError("no hosting network registered yet")
        monitor = SimulatedMonitor(self.registry, network_name=key, config=config,
                                   rng=rng if rng is not None else self._rng)
        self._monitors[key] = monitor
        return monitor

    def monitor(self, network_name: Optional[str] = None) -> Optional[SimulatedMonitor]:
        """The monitor attached to a network, if any."""
        key = network_name or self.registry.default_name
        return self._monitors.get(key) if key else None

    def attach_wal(self, path, recover: bool = True,
                   fsync_batch: int = 1) -> Dict[str, object]:
        """Journal reservations to a WAL at *path*, replaying it first.

        When *recover* is true and the file already holds records, the
        ledger is rebuilt from them (the referenced hosting networks must
        already be registered) before journalling resumes — this is the
        server-startup replay path.  Returns the recovery report:
        ``{"path", "records", "applied", "active", "skipped"}`` (zeros for
        a fresh log).
        """
        from pathlib import Path

        from repro.service.wal import ReservationWAL

        report: Dict[str, object] = {
            "path": str(path), "records": 0,
            "applied": {"reserve": 0, "rebind": 0, "release": 0},
            "active": 0, "skipped": 0,
        }
        wal_path = Path(path)
        if recover and wal_path.exists() and wal_path.stat().st_size > 0:
            records, skipped = ReservationWAL.read(wal_path)
            replay = self.reservations.replay(records, self.registry.get)
            report.update(replay)
            report["skipped"] = skipped
        self.reservations.attach_wal(
            ReservationWAL(wal_path, fsync_batch=fsync_batch))
        return report

    # ------------------------------------------------------------------ #
    # Embedding
    # ------------------------------------------------------------------ #

    def submit(self, spec: QuerySpec) -> EmbeddingResponse:
        """Process a full :class:`QuerySpec` and return the response.

        The spec is lowered onto the named (or default) hosting model, the
        engine answers the validated request, and — with ``spec.reserve`` and
        an embedding found — the first mapping is charged to the ledger.
        """
        faults.fire("service.submit")
        network_name, hosting, version = self._resolve_network(spec.network)
        request = spec.to_request(hosting, default_timeout=self._default_timeout)
        result, algorithm_used = self._answer(spec, request, network_name,
                                              version)

        reservation_id = None
        if spec.reserve and result.found:
            # The ticket carries the embedding problem (coerced constraint
            # objects from the request), so it can be re-validated and
            # repaired against the drifting model later.
            reservation = self.reservations.reserve(
                hosting, network_name, result.first,
                query=spec.query, constraint=request.constraint,
                node_constraint=request.node_constraint)
            reservation_id = reservation.reservation_id

        return EmbeddingResponse(
            spec=spec,
            result=result,
            network_name=network_name,
            algorithm_used=algorithm_used,
            reservation_id=reservation_id,
        )

    def _resolve_network(self, name: Optional[str]) -> tuple:
        """Resolve a spec's network name to ``(name, HostingNetwork, version)``.

        Raises :class:`UnknownNetworkError` (a LookupError, never a bare
        KeyError) whose message lists the registered names.

        The version is read *before* the network object, from one registry
        entry.  If a concurrent re-register replaces the entry between the
        two reads, the new network pairs with the old version — the plan
        compiled from it lands under a key no future lookup uses (they read
        the bumped version) and is merely recompiled, instead of the reverse
        anomaly where the *old* network's plan is cached under the *new*
        version key and served forever.
        """
        network_name = name or self.registry.default_name
        if network_name is None:
            raise ValueError("no hosting network registered; call register_network first")
        entry = self.registry.entry(network_name)
        version = entry.version
        return network_name, entry.network, version

    def _answer(self, spec: QuerySpec, request: SearchRequest,
                network_name: str, version: int
                ) -> Tuple[EmbeddingResult, str]:
        """Engine hook: search *request* — *spec* lowered onto *network_name*
        at model *version*; returns ``(result, algorithm_used)``."""
        raise NotImplementedError

    def embed(self, query: QueryNetwork,
              constraint: Optional[Union[str, ConstraintExpression]] = None,
              node_constraint: Optional[Union[str, ConstraintExpression]] = None,
              algorithm: str = "auto", timeout: Optional[float] = None,
              max_results: Optional[int] = None, network: Optional[str] = None,
              reserve: bool = False, seed: Optional[int] = None,
              parallelism: Optional[int] = None) -> EmbeddingResponse:
        """Keyword-style convenience wrapper around :meth:`submit`."""
        spec = QuerySpec(query=query, constraint=constraint,
                         node_constraint=node_constraint, algorithm=algorithm,
                         timeout=timeout, max_results=max_results,
                         network=network, reserve=reserve, seed=seed,
                         parallelism=parallelism)
        return self.submit(spec)

    def stream(self, spec: QuerySpec, buffer_size: int = 1) -> Iterator[Mapping]:
        """Yield the embeddings for *spec*.  Reservations are not supported
        in streaming mode (there is no "final" result to reserve against)."""
        if spec.reserve:
            raise ValueError("streaming does not support reserve=True; "
                             "use submit() and reserve the response instead")
        return self._stream(spec, buffer_size)

    def _stream(self, spec: QuerySpec, buffer_size: int) -> Iterator[Mapping]:
        """Engine hook; this default, for engines that cannot stream
        incrementally, yields the mappings of the finished search."""
        return iter(self.submit(spec).mappings)

    def submit_batch(self, specs: Iterable[QuerySpec],
                     return_exceptions: bool = False
                     ) -> List[Union[EmbeddingResponse, BaseException]]:
        """Process many specs concurrently; responses come back in input order.

        Each spec keeps its own deadline (its ``timeout`` or the service
        default, counted from when its search *starts*), so one
        slow or infeasible request cannot eat the budget of the others.

        Parameters
        ----------
        specs:
            The query specs to process.
        return_exceptions:
            ``False`` (default): the first failing spec re-raises after all
            submitted work finishes.  ``True``: failures are returned in
            their spec's slot instead (like ``asyncio.gather``), so one bad
            spec — e.g. naming an unregistered network — cannot void the
            whole batch.
        """
        specs = list(specs)
        futures: List[Future] = [self._ensure_executor().submit(self.submit, spec)
                                 for spec in specs]
        results: List[Union[EmbeddingResponse, BaseException]] = []
        first_error: Optional[BaseException] = None
        for future in futures:
            try:
                results.append(future.result())
            except Exception as exc:        # noqa: BLE001 — collected per-slot
                if not return_exceptions and first_error is None:
                    first_error = exc
                results.append(exc)
        if first_error is not None and not return_exceptions:
            raise first_error
        return results

    @property
    def executor(self) -> Optional[ThreadPoolExecutor]:
        """The batch thread pool, if one has been created yet."""
        return self._executor

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="netembed-batch")
            return self._executor

    # ------------------------------------------------------------------ #
    # Reservations / repair
    # ------------------------------------------------------------------ #

    def release(self, reservation_id: str) -> None:
        """Release a reservation made by an earlier embed(reserve=True) call."""
        reservation = self.reservations.get(reservation_id)
        network = self.registry.get(reservation.network_name)
        self.reservations.release(reservation_id, network)

    def repair(self, reservation_id: str,
               timeout: Optional[float] = None) -> RepairResponse:
        """Re-validate a reserved embedding and heal it against the live model.

        The self-healing counterpart to monitor churn: the reservation's
        mapping is checked against the *current* network attributes, and if
        anything broke — a link left its delay window, a host went down or
        failed the node constraint — only the violated assignments are
        released and re-placed by the engine's repair search, with every
        still-valid placement pinned.  On success the reservation is
        atomically rebound: capacity moves from the abandoned hosts to the
        newly acquired ones (hosts the repair keeps transfer nothing).

        New hosts are only considered while they have spare reservation
        capacity for the moving node's demand, so concurrent reservations
        stay consistent.

        Parameters
        ----------
        reservation_id:
            A ticket from an earlier ``submit(reserve=True)``.  Tickets
            reserved without their query context (direct
            :meth:`ReservationManager.reserve` calls) cannot be repaired.
        timeout:
            Wall-clock budget in seconds for the repair search (``None`` =
            the service default).

        Returns
        -------
        RepairResponse
            ``status`` is ``intact`` / ``repaired`` / ``failed`` /
            ``timeout``; on ``repaired`` the reservation already holds the
            new mapping.
        """
        reservation = self.reservations.get(reservation_id)
        if not reservation.active:
            raise ReservationError(
                f"reservation {reservation_id!r} is no longer active")
        if reservation.query is None:
            raise ReservationError(
                f"reservation {reservation_id!r} carries no query context; "
                f"reserve through {type(self).__name__}.submit to enable repair")
        network = self.registry.get(reservation.network_name)
        demands = reservation.demands
        attribute = reservation.capacity_attribute
        #: Demand currently charged on each held host by this reservation;
        #: a rebind frees it if the occupant moves away, so it counts toward
        #: what another query node could net out on that host.
        charged = {}
        for query_node, host in reservation.mapping.items():
            charged[host] = charged.get(host, 0.0) + demands.get(query_node, 1.0)

        def has_spare_capacity(query_node, host) -> bool:
            demand = demands.get(query_node, 1.0)
            # An active reservation implies every held host declared
            # capacity (reserve() enforces it), so a newly acquired host
            # must declare — and have — enough spare to be chargeable.
            available = network.available_capacity(host, attribute)
            if available is None:
                return False
            # Optimistic upper bound for held hosts (their occupant may or
            # may not move); rebind's exact net check is the backstop.
            return available + charged.get(host, 0.0) + 1e-12 >= demand

        result = self._search_repair(
            reservation, network,
            timeout if timeout is not None else self._default_timeout,
            has_spare_capacity)

        error = None
        if result.status == "repaired" and result.moved:
            try:
                self.reservations.rebind(reservation_id, network, result.mapping)
            except ReservationError as exc:
                # Lost a capacity race between the search and the rebind;
                # the reservation keeps its original (broken) mapping and
                # the caller sees why.
                error = str(exc)
        return RepairResponse(reservation_id=reservation_id,
                              network_name=reservation.network_name,
                              result=result, error=error)

    def _search_repair(self, reservation: Reservation, network: HostingNetwork,
                       timeout: float, candidate_ok: CandidateFilter):
        """Engine hook: re-place *reservation*'s broken assignments onto hosts
        *candidate_ok* admits; the result has ``status``/``moved``/``mapping``."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, object]:
        """One JSON-serialisable snapshot of every service-level counter.

        The plan cache, the reservation ledger, each registered model's
        mutation journal and the execution pools in one consistent document
        for a metrics endpoint (or ``repro plan --json``).  Values are plain
        ints/strings/bools; the snapshot never holds references into live
        service state.  Engines extend it through ``super().stats()``.
        """
        networks = {}
        for name in self.registry.names():
            entry = self.registry.entry(name)
            network = entry.network
            journal = network.mutation_journal
            monitor = self._monitors.get(name)
            networks[name] = {
                "version": entry.version,
                "nodes": network.num_nodes,
                "edges": network.num_edges,
                "mutation_epoch": network.mutation_count,
                "journal": {
                    "entries": len(journal),
                    "capacity": journal.capacity,
                    "floor_epoch": journal.floor_epoch,
                },
                "monitor_ticks": monitor.ticks if monitor is not None else None,
            }
        executor = self._executor
        wal = self.reservations.wal
        injector = faults.active()
        return {
            "default_timeout": self._default_timeout,
            "plan_cache": self.plans.stats(),
            "reservations": self.reservations.stats(),
            "networks": networks,
            "pools": {
                "batch_threads": {
                    "created": executor is not None,
                    "max_workers": getattr(executor, "_max_workers", None),
                },
            },
            "wal": ({"path": str(wal.path), "fsync_batch": wal.fsync_batch}
                    if wal is not None else None),
            "faults": injector.stats() if injector is not None else None,
        }

    def shutdown(self, wait: bool = True) -> None:
        """Tear down the batch thread pool and close the WAL, if any."""
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)
        wal = self.reservations.wal
        if wal is not None:
            wal.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

"""Sharded parallel execution of compiled embedding plans.

The three NETEMBED searches are embarrassingly partitionable at the
*root-candidate* level: the first query node's candidate set is tried in a
deterministic order (ascending bit order for ECF and LNS, the seeded shuffle
for RWB), and the subtree under each root candidate is completely
independent of the others.  This module splits that root trial order into
contiguous blocks — *shards* — executes the shards on a
``concurrent.futures`` process pool, and merges the per-shard mapping lists
back together **in shard order**, so the merged stream is byte-identical to
a serial execution for any shard count.

Design notes
------------

* **What ships to a worker.**  One :class:`ShardGroup` per execute — the
  algorithm instance, the compiled :class:`~repro.core.plan.PreparedSearch`
  artifacts, and (only for algorithms that evaluate constraints lazily, i.e.
  LNS) the networks and constraint expressions — is pickled *once*.  Small
  groups ride inline with each task; large ones (a planetlab-scale filter
  set is megabytes) spill to a temporary file that each worker reads and
  memoises once by token, so the per-task payload is just a shard index and
  the algorithm-specific root slice no matter how many shards ship.
* **Budgets.**  The run's wall-clock budget is shared, not divided: the
  absolute deadline (``time.monotonic``-based, valid across local processes)
  ships with the group, and every shard enforces the remaining time when it
  starts.  Result caps are applied per shard (no shard can ever need to
  contribute more than the global cap) and re-applied by the merger, whose
  in-order commit makes the truncated stream equal serial's.
* **Work stealing.**  The engine oversplits — ``shard_factor`` shards per
  requested worker — and dispatches them through a sliding window of
  ``parallelism`` in-flight tasks, so a worker that exhausts a cheap shard
  early immediately picks up the next unfinished shard, and a single skewed
  subtree cannot serialise the whole run.  Shards made redundant by an
  early result-cap hit are cancelled before they start.
* **Failure.**  Exceptions raised inside a worker (including
  :class:`~repro.core.plan.PlanInvalidatedError`) propagate to the caller
  with their original type, exactly as the serial engine would raise them.
  A broken pool (a worker killed mid-run) is *supervised*: because the
  merge commits shard outcomes strictly in order, every uncommitted shard
  can safely be resubmitted to a fresh pool — the committed prefix of the
  stream is never touched — so worker death costs a capped-exponential
  backoff and a retry, not the run.  After ``max_pool_restarts`` failures
  inside one run the remaining shards execute in-process (still
  byte-identical); after ``trip_threshold`` *consecutive* failed runs the
  :class:`PoolSupervisor`'s circuit breaker opens and new runs go straight
  to in-process execution until the cooldown lapses.  Every one of these
  transitions is counted and reported by :meth:`PoolSupervisor.stats` —
  the degraded mode is observable, not silent.
* **Thread shards.**  The pool's type is detected, not configured: a caller
  that hands :func:`run_sharded` a ``ThreadPoolExecutor`` as ``pool=`` gets
  shards that share its address space, so the group travels by reference
  (``_INPROC_GROUPS``) instead of being pickled.  Under the pure-Python
  kernel such shards are GIL-bound (correctness testing only); the numba
  chunk loops run ``nogil``, but what thread shards gain there has not been
  measured.
"""

from __future__ import annotations

import itertools
import os
import pickle
import tempfile
import threading
import time
from concurrent.futures import (FIRST_COMPLETED, Executor, Future,
                                ProcessPoolExecutor, ThreadPoolExecutor, wait)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.core.result import SearchStats
from repro.utils.timing import Deadline, TimeoutExpired

#: How many shards the engine targets per requested worker.  Oversplitting is
#: the work-stealing mechanism: subtree costs are wildly skewed, and a pool
#: worker that finishes a cheap shard pulls the next pending one.
DEFAULT_SHARD_FACTOR = 4


# --------------------------------------------------------------------------- #
# Picklable work units
# --------------------------------------------------------------------------- #

@dataclass
class ShardGroup:
    """The per-execute state shared by every shard (pickled once).

    ``query``/``hosting``/``constraint``/``node_constraint`` are ``None``
    for algorithms whose search stage never touches them (ECF/RWB bake the
    constraints into the filter bitmasks at prepare time), which keeps the
    shipped payload down to the compiled artifacts themselves.
    """

    algorithm: Any
    prepared: Any
    query: Any = None
    hosting: Any = None
    constraint: Any = None
    node_constraint: Any = None
    #: Per-shard result cap == the run's effective global cap.
    max_results: Optional[int] = None
    #: Absolute ``time.monotonic()`` deadline shared by every shard
    #: (``None`` = unlimited).  Monotonic clocks are system-wide on the
    #: platforms the pool runs on, so parent and workers agree on it.
    deadline_at: Optional[float] = None


@dataclass
class PlanShard:
    """One unit of sharded work: a contiguous slice of the root trial order."""

    #: Merge position; shard *i*'s mappings precede shard *i+1*'s.
    index: int
    #: Algorithm-specific root slice (a bitmask for ECF, ``(start, hosts,
    #: base_seed)`` for RWB, ``(root, hosts)`` for LNS).
    spec: Any


@dataclass
class ShardOutcome:
    """What a worker sends back for one shard."""

    index: int
    #: Raw node assignments in discovery order (re-recorded by the merger so
    #: streaming callbacks and the result cap behave exactly as in serial).
    #: Column-encoded when every mapping shares one key order (ECF/RWB place
    #: nodes in a fixed visiting order): ``(keys, [host rows])`` pickles a
    #: fraction of the equivalent list of dicts.  Decode with
    #: :meth:`iter_assignments`.
    assignments: Any = None
    stats: SearchStats = field(default_factory=SearchStats)
    #: Whether the shard's subtrees were exhaustively explored.
    exhausted: bool = True
    #: Whether the shard stopped on the shared deadline.
    timed_out: bool = False

    def iter_assignments(self):
        """The shard's assignments as dicts, in discovery order."""
        if self.assignments is None:
            return
        kind, payload = self.assignments
        if kind == "dicts":
            yield from payload
        else:
            keys, rows = payload
            for row in rows:
                yield dict(zip(keys, row))


def _encode_assignments(mappings) -> Any:
    """Column-encode a shard's mappings when their key order is uniform.

    Placement order is part of the byte-identical-stream guarantee, so the
    encoding must round-trip dict insertion order — ``dict(zip(keys, row))``
    does, whenever every mapping was built along the same visiting order.
    """
    if not mappings:
        return None
    dicts = [mapping.as_dict() for mapping in mappings]
    keys = tuple(dicts[0])
    if all(tuple(d) == keys for d in dicts):
        return ("columns", (keys, [tuple(d.values()) for d in dicts]))
    return ("dicts", dicts)


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #

#: Per-process memo of decoded ShardGroups, keyed by token: workers are
#: anonymous (any task can land on any of them), but each process only pays
#: the transport read + unpickle once.  Bounded — an execute's token dies
#: with its run.
_GROUP_CACHE: "Dict[str, ShardGroup]" = {}
_GROUP_CACHE_LIMIT = 4

#: Thread-backend groups, handed to shards by reference (same process, no
#: pickle).  Registered before the first submit and popped by ``run_sharded``
#: as the run ends, so — unlike ``_GROUP_CACHE`` — entries can never be
#: evicted while their shards are still in flight.
_INPROC_GROUPS: "Dict[str, ShardGroup]" = {}

#: Groups above this pickled size ship via a spill file instead of inline
#: task bytes: N shards of a megabytes-sized filter set must not pay the
#: pipe N times.
_INLINE_GROUP_LIMIT = 128 * 1024

_token_counter = itertools.count()

#: Transport: ``("bytes", pickled_group, sentinel_path)``,
#: ``("file", spill_path, sentinel_path)`` or ``("inproc", None,
#: sentinel_path)`` for thread shards.  The sentinel is a file the
#: parent unlinks as the run's very last act (for file transport it *is*
#: the spill), giving in-flight shards of an already-finished run an
#: abandonment signal regardless of how the group shipped.
GroupTransport = Tuple[str, Any, str]


def _decode_group(token: str, transport: GroupTransport) -> ShardGroup:
    group = _INPROC_GROUPS.get(token)
    if group is not None:
        return group
    group = _GROUP_CACHE.get(token)
    if group is None:
        kind, payload, _sentinel = transport
        if kind == "inproc":
            # Registered groups are popped only after the run ends, so this
            # shard was abandoned; its future is never consumed.
            raise LookupError(f"shard group {token} already retired")
        if kind == "file":
            with open(payload, "rb") as handle:
                payload = handle.read()
        group = pickle.loads(payload)
        while len(_GROUP_CACHE) >= _GROUP_CACHE_LIMIT:
            _GROUP_CACHE.pop(next(iter(_GROUP_CACHE)))
        _GROUP_CACHE[token] = group
    return group


def _spill_watcher(path: str, cancel: threading.Event,
                   stop: threading.Event) -> None:
    """Set *cancel* when the run's spill file disappears.

    The parent unlinks the spill as its very last act, so a shard still
    running at that point has been abandoned (result cap hit, stream
    closed, deadline fired) and its outcome will never be consumed —
    unwinding early frees the pool worker for live runs.
    """
    while not stop.wait(0.1):
        if not os.path.exists(path):
            cancel.set()
            return


def _execute_shard(token: str, transport: GroupTransport, index: int,
                   spec: Any) -> ShardOutcome:
    """Run one shard in a worker process.

    Exceptions other than the shard's own deadline expiry and the parent's
    abandonment signal propagate to the parent through the future with
    their original type intact.
    """
    # Imported lazily: base imports plan which must not import parallel first.
    from repro.core.base import SearchContext, StreamClosed

    group = _decode_group(token, transport)
    remaining: Optional[float] = None
    if group.deadline_at is not None:
        remaining = group.deadline_at - time.monotonic()
        if remaining <= 0:
            # The shared budget ran out before this shard even started —
            # the same outcome serial would reach at its next deadline check.
            return ShardOutcome(index=index, exhausted=False, timed_out=True)
    cancel = threading.Event()
    stop_watch = threading.Event()
    threading.Thread(target=_spill_watcher,
                     args=(transport[2], cancel, stop_watch),
                     daemon=True).start()
    context = SearchContext(
        query=group.query,
        hosting=group.hosting,
        constraint=group.constraint,
        node_constraint=group.node_constraint,
        deadline=Deadline(remaining),
        max_results=group.max_results,
        cancel=cancel,
    )
    try:
        exhausted = group.algorithm._run_shard(context, group.prepared, spec)
        timed_out = False
    except TimeoutExpired:
        exhausted, timed_out = False, True
    except StreamClosed:
        # Abandoned by the parent; the outcome is never consumed.
        exhausted, timed_out = False, False
    finally:
        stop_watch.set()
    return ShardOutcome(
        index=index,
        assignments=_encode_assignments(context.mappings),
        stats=context.stats,
        exhausted=exhausted,
        timed_out=timed_out,
    )


# --------------------------------------------------------------------------- #
# Pool management
# --------------------------------------------------------------------------- #

def make_pool(max_workers: Optional[int] = None) -> Executor:
    """A new shard pool (callers own its shutdown).

    A process pool on the platform's start method (fork on Linux up to 3.13,
    forkserver from 3.14, spawn on macOS/Windows): the engine is routinely
    driven from multithreaded contexts — service batch threads, every
    ``pump_mapping_stream`` producer — where forcing fork would court the
    fork-while-threaded deadlocks the interpreter defaults are moving away
    from.
    """
    return ProcessPoolExecutor(max_workers=max_workers)


_shared_pool: Optional[Executor] = None
_shared_pool_lock = threading.Lock()


def shared_pool() -> Executor:
    """The process-wide shard pool, created lazily (``os.cpu_count`` workers).

    Used by :meth:`EmbeddingPlan.execute` when the caller supplies no pool of
    its own; the :class:`~repro.service.netembed.NetEmbedService` passes its
    own bounded pool instead.
    """
    global _shared_pool
    with _shared_pool_lock:
        if _shared_pool is None:
            _shared_pool = make_pool(os.cpu_count())
        return _shared_pool


def shutdown_shared_pool(wait_for_workers: bool = True) -> None:
    """Tear down the process-wide shard pool (no-op if never created)."""
    global _shared_pool
    with _shared_pool_lock:
        pool, _shared_pool = _shared_pool, None
    if pool is not None:
        pool.shutdown(wait=wait_for_workers)


def _reset_broken_shared_pool(pool: Executor) -> None:
    """Drop the shared pool if *pool* is it, so the next use gets a fresh one."""
    global _shared_pool
    with _shared_pool_lock:
        if _shared_pool is pool:
            _shared_pool = None
    pool.shutdown(wait=False)


# --------------------------------------------------------------------------- #
# Supervision: retries, circuit breaker, observable degradation
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class ShardRetryPolicy:
    """How a single run reacts to its process pool breaking mid-merge."""

    #: Fresh pools tried per run before degrading to in-process execution.
    max_pool_restarts: int = 2
    #: Backoff before restart *n* is ``min(cap, base * 2**(n-1))`` seconds.
    backoff_base: float = 0.05
    backoff_cap: float = 1.0

    def backoff(self, attempt: int) -> float:
        return min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))


class PoolSupervisor:
    """Counts pool failures across runs and trips a circuit breaker.

    One module-level instance (see :func:`default_supervisor`) supervises
    every ``run_sharded`` call by default.  Repeated *consecutive* pool
    failures — a host whose workers keep getting OOM-killed — open the
    breaker: new runs skip the pool entirely and execute in-process until
    ``cooldown`` seconds pass, after which the next run is allowed through
    as a probe (half-open) and a success closes the breaker again.  All
    transitions are counted; :meth:`stats` is the observability contract.
    """

    def __init__(self, retry: ShardRetryPolicy = ShardRetryPolicy(),
                 trip_threshold: int = 3, cooldown: float = 30.0,
                 clock=time.monotonic) -> None:
        if trip_threshold < 1:
            raise ValueError(f"trip_threshold must be >= 1, got {trip_threshold}")
        self.retry = retry
        self.trip_threshold = trip_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._consecutive = 0
        self._open_until: Optional[float] = None
        self._counters = {
            "pool_failures": 0,     # BrokenProcessPool raised into a merge
            "shard_retries": 0,     # uncommitted shards resubmitted
            "serial_degradations": 0,  # runs finished in-process after failures
            "breaker_trips": 0,     # closed -> open transitions
            "short_circuits": 0,    # runs refused a pool while open
        }

    # -- state machine ------------------------------------------------- #

    def state(self) -> str:
        """``closed`` / ``open`` / ``half-open`` (cooldown lapsed)."""
        with self._lock:
            if self._open_until is None:
                return "closed"
            return "open" if self._clock() < self._open_until else "half-open"

    def allow_pool(self) -> bool:
        """Whether a run may use a process pool right now."""
        with self._lock:
            if self._open_until is None or self._clock() >= self._open_until:
                return True
            self._counters["short_circuits"] += 1
            return False

    def record_pool_failure(self) -> None:
        with self._lock:
            self._counters["pool_failures"] += 1
            self._consecutive += 1
            if self._consecutive >= self.trip_threshold:
                # (Re-)open: a failed half-open probe restarts the cooldown
                # too; only the closed->open edge counts as a new trip.
                if self._open_until is None:
                    self._counters["breaker_trips"] += 1
                self._open_until = self._clock() + self.cooldown

    def record_pool_success(self) -> None:
        with self._lock:
            self._consecutive = 0
            self._open_until = None

    def record_retry(self, shards: int) -> None:
        with self._lock:
            self._counters["shard_retries"] += shards

    def record_degradation(self) -> None:
        with self._lock:
            self._counters["serial_degradations"] += 1

    def reset(self) -> None:
        """Forget all history (tests and fresh benchmarks)."""
        with self._lock:
            self._consecutive = 0
            self._open_until = None
            for key in self._counters:
                self._counters[key] = 0

    def stats(self) -> Dict[str, object]:
        with self._lock:
            counters = dict(self._counters)
            consecutive = self._consecutive
        counters.update({
            "state": self.state(),
            "consecutive_failures": consecutive,
            "trip_threshold": self.trip_threshold,
            "cooldown": self.cooldown,
            "max_pool_restarts": self.retry.max_pool_restarts,
        })
        return counters


_default_supervisor = PoolSupervisor()


def default_supervisor() -> PoolSupervisor:
    """The process-wide supervisor used when a run supplies none."""
    return _default_supervisor


# --------------------------------------------------------------------------- #
# The parent-side engine
# --------------------------------------------------------------------------- #

@dataclass
class _MergeState:
    """Merge progress that survives a pool restart.

    The in-order commit is the resumability invariant: exactly the shards
    ``[0, next_commit)`` have been folded into the caller's context, so a
    retry only ever resubmits shards that contributed nothing yet, and the
    merged stream stays byte-identical to serial no matter how many pools
    died along the way.
    """

    specs: Sequence[Any]
    next_commit: int = 0
    committed: int = 0
    exhausted_all: bool = True
    #: Fetched-but-not-yet-committed outcomes (their predecessors are
    #: missing); preserved across pool restarts so finished work is never
    #: re-executed.
    ready: Dict[int, ShardOutcome] = field(default_factory=dict)

    def uncommitted(self) -> List[Tuple[int, Any]]:
        return [(i, self.specs[i])
                for i in range(self.next_commit, len(self.specs))
                if i not in self.ready]


def run_sharded(algorithm, context, prepared, parallelism: int,
                pool: Optional[Executor] = None,
                shard_factor: int = DEFAULT_SHARD_FACTOR,
                supervisor: Optional[PoolSupervisor] = None) -> bool:
    """Execute *prepared* across shards and merge deterministically.

    Populates *context* (mappings, statistics, streaming callbacks) exactly
    like :meth:`EmbeddingAlgorithm._run_prepared` would, and follows the same
    contract: returns whether the search space was exhausted, raising
    :class:`~repro.utils.timing.TimeoutExpired` on deadline expiry.  Falls
    back to the serial path when the plan yields fewer than two shards.

    Worker death is survivable: uncommitted shards are retried on a fresh
    pool with capped exponential backoff (see :class:`ShardRetryPolicy`),
    and exhausted retries — or an open circuit breaker — finish the run
    in-process.  Both paths preserve the byte-identical stream guarantee.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    supervisor = supervisor if supervisor is not None else _default_supervisor
    specs = algorithm._shard_specs(context, prepared,
                                   max(2, parallelism * shard_factor))
    if specs is None:
        return algorithm._run_prepared(context, prepared)
    if len(specs) < 2:
        # Too few roots to shard.  The specs are still executed (not thrown
        # away): _shard_specs may have consumed the run's random stream (RWB),
        # so re-entering _run_prepared would diverge from serial.
        return run_specs_serial(algorithm, context, prepared, specs)
    if not supervisor.allow_pool():
        # Circuit breaker open: a counted, in-process degraded mode.
        return run_specs_serial(algorithm, context, prepared, specs)

    deadline_at = None
    remaining = context.deadline.remaining
    if remaining != float("inf"):
        if remaining <= 0:
            raise TimeoutExpired("search budget exhausted before sharding")
        deadline_at = time.monotonic() + remaining

    ships_networks = algorithm._shard_ships_networks
    group = ShardGroup(
        algorithm=algorithm,
        prepared=prepared,
        query=context.query if ships_networks else None,
        hosting=context.hosting if ships_networks else None,
        constraint=context.constraint if ships_networks else None,
        node_constraint=context.node_constraint if ships_networks else None,
        max_results=context.max_results,
        deadline_at=deadline_at,
    )
    token = f"{os.getpid()}:{next(_token_counter)}"
    state = _MergeState(specs=specs)
    sentinel_path: Optional[str] = None
    retry_pools: List[Executor] = []
    caller_pool = pool
    executor = shared_pool() if pool is None else pool
    inproc = isinstance(executor, ThreadPoolExecutor)
    try:
        # Everything from temp-file creation onward runs under this
        # try/finally: a failing spill write, a worker exception, a broken
        # pool, a deadline — every exit path reaches the unlink below.
        if inproc:
            # Thread shards share the parent's address space: hand the
            # group over by reference and skip the pickle round-trip (the
            # compiled artifacts — packed blocks, the kernel plan — are only
            # *read* by shards, so sharing is safe).  The empty sentinel
            # still carries the abandonment signal.
            _INPROC_GROUPS[token] = group
            fd, sentinel_path = tempfile.mkstemp(prefix="repro-shard-run-",
                                                 suffix=".live")
            os.close(fd)
            transport: GroupTransport = ("inproc", None, sentinel_path)
        else:
            blob = pickle.dumps(group, protocol=pickle.HIGHEST_PROTOCOL)
            if len(blob) > _INLINE_GROUP_LIMIT:
                fd, sentinel_path = tempfile.mkstemp(
                    prefix="repro-shard-group-", suffix=".pkl")
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                transport = ("file", sentinel_path, sentinel_path)
            else:
                # Small groups ship inline; the empty sentinel still gives
                # in-flight shards the abandonment signal when the parent
                # finishes early.
                fd, sentinel_path = tempfile.mkstemp(
                    prefix="repro-shard-run-", suffix=".live")
                os.close(fd)
                transport = ("bytes", blob, sentinel_path)

        attempt = 0
        while True:
            try:
                result = _dispatch_and_merge(
                    executor, context, token, transport,
                    state.uncommitted(), window=parallelism, state=state)
                supervisor.record_pool_success()
                return result
            except BrokenProcessPool:
                # A worker died (OOM-killed, hard crash) or the fault
                # injector simulated one.  The committed prefix is intact;
                # retire the broken pool and decide: retry or degrade.
                supervisor.record_pool_failure()
                if executor is caller_pool:
                    pass      # caller-owned; its owner replaces broken pools
                elif executor in retry_pools:
                    executor.shutdown(wait=False)
                else:
                    _reset_broken_shared_pool(executor)
                attempt += 1
                remaining_work = state.uncommitted()
                if (attempt <= supervisor.retry.max_pool_restarts
                        and supervisor.allow_pool() and remaining_work):
                    delay = supervisor.retry.backoff(attempt)
                    budget = context.deadline.remaining
                    if budget != float("inf"):
                        delay = min(delay, max(0.0, budget))
                    if delay > 0:
                        time.sleep(delay)
                    context.check_deadline()
                    supervisor.record_retry(len(remaining_work))
                    executor = make_pool(parallelism)
                    retry_pools.append(executor)
                    continue
                # Out of restarts (or the breaker opened mid-run): finish
                # the remaining shards in-process — counted, not silent.
                supervisor.record_degradation()
                return _finish_serial(algorithm, context, prepared, state)
    finally:
        # The unlink is also the abandonment signal: discarded still-running
        # shards notice the sentinel vanish and unwind; a discarded pending
        # task that starts afterwards fails to decode the spill, and nobody
        # consumes its future.
        if sentinel_path is not None:
            try:
                os.unlink(sentinel_path)
            except OSError:
                pass
        _INPROC_GROUPS.pop(token, None)
        for retry_pool in retry_pools:
            retry_pool.shutdown(wait=False)


def _commit_ready(context, state: _MergeState) -> Optional[bool]:
    """Commit every ready shard whose predecessors are all committed.

    Returns ``False`` when the global result cap was reached (the run's
    return value), ``None`` to keep going; raises
    :class:`~repro.utils.timing.TimeoutExpired` when a committed shard hit
    the shared deadline — exactly where serial execution would stop.
    """
    while state.next_commit in state.ready:
        outcome = state.ready.pop(state.next_commit)
        state.next_commit += 1
        state.committed += 1
        _merge_stats(context.stats, outcome.stats)
        state.exhausted_all = state.exhausted_all and outcome.exhausted
        for assignment in outcome.iter_assignments():
            if context.record_mapping(assignment):
                return False    # global cap reached, like serial
        if outcome.timed_out:
            # Serial stops the instant the deadline fires; mappings from
            # later shards are discarded so the committed stream stays a
            # prefix of some serial-order stream.
            raise TimeoutExpired(
                f"shard {outcome.index} exceeded the shared search budget")
    return None


def _dispatch_and_merge(executor: Executor, context, token: str,
                        transport: GroupTransport,
                        work: Sequence[Tuple[int, Any]],
                        window: int, state: _MergeState) -> bool:
    """Sliding-window dispatch plus the in-order merge loop.

    ``work`` is the (index, spec) list still owed to the merge — all specs
    on a first attempt, the uncommitted remainder on a retry.  Progress
    lands in *state*, which survives a :class:`BrokenProcessPool` unwind.
    """
    pending: List[Tuple[int, Any]] = list(work)
    pending.reverse()   # pop() from the tail == dispatch in shard order
    in_flight: Dict[Future, int] = {}

    def submit_next() -> None:
        index, spec = pending.pop()
        faults.fire("parallel.pool-submit")
        future = executor.submit(_execute_shard, token, transport, index, spec)
        in_flight[future] = index

    try:
        # A retry may arrive with ready outcomes whose predecessors all
        # committed before the pool broke; commit them before dispatching.
        verdict = _commit_ready(context, state)
        if verdict is not None:
            return verdict
        while pending and len(in_flight) < window:
            submit_next()
        while in_flight:
            done, _ = wait(list(in_flight), timeout=0.1,
                           return_when=FIRST_COMPLETED)
            if not done:
                # Nothing finished in this slice: honour the run's own
                # deadline and cancellation signal while waiting.
                context.check_deadline()
                continue
            for future in done:
                index = in_flight.pop(future)
                faults.fire("parallel.shard-result")
                state.ready[index] = future.result()  # re-raises worker errors
                if pending:
                    submit_next()
            verdict = _commit_ready(context, state)
            if verdict is not None:
                return verdict
        return state.exhausted_all
    finally:
        for future in in_flight:
            future.cancel()


def _finish_serial(algorithm, context, prepared, state: _MergeState) -> bool:
    """Finish a partially-merged run in-process, in shard order.

    Already-fetched outcomes are committed as-is (never re-executed);
    missing shards run via ``_run_shard``, which records mappings straight
    into the context — the same order a healthy merge would have produced.
    """
    while state.next_commit < len(state.specs):
        if state.next_commit in state.ready:
            verdict = _commit_ready(context, state)
            if verdict is not None:
                return verdict
            continue
        index = state.next_commit
        state.next_commit += 1
        if not algorithm._run_shard(context, prepared, state.specs[index]):
            return False
    return state.exhausted_all


def _merge_stats(target: SearchStats, shard: SearchStats) -> None:
    """Fold one shard's search counters into the run's (in place)."""
    target.nodes_expanded += shard.nodes_expanded
    target.candidates_considered += shard.candidates_considered
    target.constraint_evaluations += shard.constraint_evaluations
    target.backtracks += shard.backtracks
    # filter_entries / filter_build_seconds belong to the prepare stage and
    # were credited once by the parent driver; shards report zeros there.


def run_specs_serial(algorithm, context, prepared, specs: Sequence[Any]) -> bool:
    """Execute already-computed shard specs in order, in-process.

    Byte-identical to serial execution — ``_shard_specs`` has already
    accounted for the shared (prefix/root) work in the parent's counters,
    and each spec's subtree work is counted by ``_run_shard`` exactly as a
    worker would.  Used when a plan yields too few shards to be worth
    dispatching, and as the recovery path when the process pool breaks
    before anything was committed.  An empty spec list means the split
    itself already explored (and counted) the entire space.
    """
    for spec in specs:
        if not algorithm._run_shard(context, prepared, spec):
            return False
    return True


def split_contiguous(items: Sequence[Any], shards: int) -> List[Sequence[Any]]:
    """Split *items* into at most *shards* contiguous, near-equal blocks.

    Order is preserved across block boundaries — concatenating the blocks
    reproduces *items* — which is what makes the shard-order merge equal the
    serial trial order.
    """
    count = min(shards, len(items))
    if count <= 0:
        return []
    size, extra = divmod(len(items), count)
    blocks: List[Sequence[Any]] = []
    start = 0
    for i in range(count):
        end = start + size + (1 if i < extra else 0)
        blocks.append(items[start:end])
        start = end
    return blocks

"""Two-level embedding search over a partitioned hosting network.

:class:`ClusterCoordinator` answers embedding requests without any worker
ever holding the full hosting view:

1. **Coarse stage** — partitions that cannot host the query are pruned with
   bitmask screens over the :class:`~repro.cluster.partition.PartitionSummary`
   aggregates (single-partition placement), or by running ECF over the
   contracted quotient graph (cross-partition placement of query fragments).
   Both are sound relaxations: a pruned partition/pair provably cannot host
   the fragment, a surviving one merely might.
2. **Fine stage** — each surviving partition runs the ordinary intra-
   partition ECF/RWB/LNS search against its *replica* through the standard
   prepare/execute + :class:`~repro.core.plan.PlanCache` path, so repeated
   queries against an unchurned shard skip compilation entirely.

Cross-partition queries are split along query-graph cuts (the same BFS
slicing that partitions hosting networks, applied to the query), fragments
are placed coarsely on the quotient graph, embedded independently per
partition, and stitched back with **boundary-consistency checks**: every cut
query edge must land on a real inter-partition hosting edge (from the
coordinator's bounded boundary network) satisfying the original constraint.

Replication keeps all coordinator-side state fresh between requests — see
:meth:`ClusterCoordinator.refresh` and :mod:`repro.cluster.replica`.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import networkx as nx

from repro import faults
from repro.api.request import SearchRequest, coerce_constraint
from repro.constraints import edge_context
from repro.constraints.builder import host_delay_within_query_window
from repro.core.base import EmbeddingAlgorithm
from repro.core.ecf import ECF
from repro.core.mapping import Mapping, validate_mapping
from repro.core.plan import PlanCache, PlanInvalidatedError
from repro.core.result import EmbeddingResult, classify
from repro.graphs.hosting import HostingNetwork
from repro.graphs.network import NodeId
from repro.graphs.query import QueryNetwork
from repro.cluster.partition import (
    CUT_MIN_ATTR,
    CUT_MAX_ATTR,
    PartitionIndex,
    PartitionMap,
    PartitionSummary,
    bfs_order,
    boundary_network,
    cut_edges,
    quotient_graph,
    summarize_partition,
)
from repro.cluster.replica import (
    PartitionReplica,
    ReplicationStats,
    StructuralDeltaError,
    apply_payload,
    encode_delta,
)
from repro.utils.timing import Deadline, Stopwatch

#: The constraint family the coarse relaxation understands (the paper's own
#: workload constraint).  Any other constraint disables summary pruning —
#: the sound default is "cannot prune" — while intra-partition searches and
#: boundary checks still enforce it exactly.
_WINDOW_SOURCE = host_delay_within_query_window()

#: The quotient-graph counterpart of the delay-window constraint: a super
#: edge survives when its cut's delay range intersects the fragment edge's
#: aggregated window.
COARSE_CUT_CONSTRAINT = (f"rEdge.{CUT_MAX_ATTR} >= vEdge.minDelay && "
                         f"rEdge.{CUT_MIN_ATTR} <= vEdge.maxDelay")

#: Fragments only fit in partitions with enough nodes.
COARSE_NODE_CONSTRAINT = "vNode.nodes <= rNode.nodes"


class PartitionUnavailable(ConnectionError):
    """A partition worker is (really or injectedly) unreachable."""


@dataclass
class PartitionOutcome:
    """What one partition answered for one request."""

    partition: str
    status: str                      # complete/partial/inconclusive/lost/pruned
    found: bool = False
    lost: bool = False


@dataclass
class ClusterResult:
    """The coordinator's answer to one embedding request.

    ``verdict`` is three-valued: ``"feasible"`` (a validated embedding is in
    ``mappings``), ``"infeasible"`` (a *sound* proof — summary refutation or
    exhausted single-partition searches on a query that provably cannot span
    partitions), or ``"unknown"`` (nothing found within the search bounds).
    """

    verdict: str
    mappings: List[Mapping] = field(default_factory=list)
    partition: Optional[str] = None
    #: Query node -> partition that hosts it (for the first mapping).
    fragment_assignment: Dict[NodeId, str] = field(default_factory=dict)
    outcomes: List[PartitionOutcome] = field(default_factory=list)
    used_cross_partition: bool = False
    timed_out: bool = False
    elapsed_seconds: float = 0.0
    partitions_pruned: int = 0
    partitions_searched: int = 0
    coarse_placements_tried: int = 0
    stitch_checks: int = 0

    @property
    def found(self) -> bool:
        return bool(self.mappings)

    @property
    def first(self) -> Optional[Mapping]:
        return self.mappings[0] if self.mappings else None

    def to_embedding_result(self, algorithm: str = "cluster") -> EmbeddingResult:
        """Lower to the service-level result type (for EmbeddingResponse)."""
        status = classify(found_any=self.found,
                          exhausted=self.verdict == "infeasible",
                          timed_out=self.timed_out,
                          truncated=self.found)
        return EmbeddingResult(status=status, mappings=list(self.mappings),
                               algorithm=algorithm,
                               elapsed_seconds=self.elapsed_seconds,
                               timed_out=self.timed_out,
                               truncated=self.found)


class PartitionWorker:
    """The per-shard search engine: a replica plus the plan-cache path."""

    def __init__(self, replica: PartitionReplica, plans: PlanCache,
                 cache_scope: str) -> None:
        self.replica = replica
        self.plans = plans
        self._cache_scope = cache_scope
        self._lock = threading.Lock()

    @property
    def name(self) -> str:
        return self.replica.name

    @property
    def network(self) -> HostingNetwork:
        return self.replica.network  # type: ignore[return-value]

    def search(self, query: QueryNetwork, algorithm: EmbeddingAlgorithm,
               constraint, node_constraint, timeout: Optional[float],
               max_results: Optional[int], seed=None,
               cache: bool = True) -> EmbeddingResult:
        """One intra-partition search through prepare/execute + PlanCache.

        ``cache=False``, an algorithm without a prepare stage, a compile
        that outran the timeout and a replication tick racing the execute
        all take the one-shot path against the live replica.
        """
        faults.fire("cluster.partition-search")
        if not self.replica.available:
            raise PartitionUnavailable(
                f"partition {self.name!r} is marked unavailable")
        request = SearchRequest.build(
            query, self.network, constraint=constraint,
            node_constraint=node_constraint, timeout=timeout,
            max_results=max_results)
        if cache and algorithm.supports_prepare:
            key = (f"{self._cache_scope}:{self.name}",
                   self.network.mutation_count,
                   algorithm.plan_signature(), request.fingerprint())
            with self._lock:
                plan = self.plans.acquire(
                    key, algorithm, request,
                    deadline=Deadline(request.budget.timeout))
            if plan is not None:
                try:
                    return plan.execute(budget=request.budget, rng=seed)
                except PlanInvalidatedError:
                    pass
        return algorithm.request(request)


def split_query(query: QueryNetwork, num_fragments: int
                ) -> List[Tuple[NodeId, ...]]:
    """Slice the query's BFS order into contiguous fragments (query cuts)."""
    order = bfs_order(query)
    chunk = max(1, (len(order) + num_fragments - 1) // num_fragments)
    fragments = [tuple(order[i * chunk:(i + 1) * chunk])
                 for i in range((len(order) + chunk - 1) // chunk)]
    return [frag for frag in fragments if frag]


class ClusterCoordinator:
    """Two-level search over partition workers (see module docstring).

    Parameters
    ----------
    hosting:
        The primary hosting network.  Only the coordinator holds it; every
        worker holds a transported replica of its slice.
    partition_map:
        An explicit :class:`PartitionMap` (or plain ``{name: nodes}`` dict);
        ``None`` builds one from *attribute* or *num_partitions*.
    attribute:
        Partition by this categorical node attribute instead of balanced
        slicing.
    num_partitions:
        Balanced-slicing partition count (default 8) when neither
        *partition_map* nor *attribute* is given.
    algorithm:
        Default intra-partition algorithm: a registered instance (shared
        across workers; prepared plans are seed/config independent).
    plans:
        A shared :class:`PlanCache` (``None`` = a private one), so a
        :class:`~repro.cluster.service.ClusterService` can expose one cache
        across all of its coordinators.
    delay_attr:
        The hosting edge attribute the coarse delay relaxation reads.
    """

    def __init__(self, hosting: HostingNetwork,
                 partition_map: Optional[Union[PartitionMap, Dict]] = None,
                 attribute: Optional[str] = None,
                 num_partitions: Optional[int] = None,
                 algorithm: Optional[EmbeddingAlgorithm] = None,
                 plans: Optional[PlanCache] = None,
                 plan_cache_size: int = 64,
                 delay_attr: str = "avgDelay") -> None:
        self.primary = hosting
        self._attribute = attribute
        self._delay_attr = delay_attr
        self.algorithm = algorithm if algorithm is not None else ECF()
        self.plans = plans if plans is not None else PlanCache(
            capacity=plan_cache_size)
        if partition_map is None:
            if attribute is not None:
                partition_map = PartitionMap.by_attribute(hosting, attribute)
            else:
                partition_map = PartitionMap.balanced(
                    hosting, num_partitions if num_partitions else 8)
        elif not isinstance(partition_map, PartitionMap):
            partition_map = PartitionMap(
                {name: tuple(nodes)
                 for name, nodes in partition_map.items()})
        self.partition_map = partition_map
        self.replication = ReplicationStats()
        self._lock = threading.Lock()
        self._rebuild()

    # ------------------------------------------------------------------ #
    # Construction / replication
    # ------------------------------------------------------------------ #

    def _rebuild(self) -> None:
        """(Re)build replicas, summaries, boundary and quotient wholesale."""
        self.workers: Dict[str, PartitionWorker] = {}
        for name, nodes in self.partition_map.partitions.items():
            replica = PartitionReplica(name, self.primary, nodes)
            self.workers[name] = PartitionWorker(
                replica, self.plans, cache_scope=self.primary.name)
        self.summaries: Dict[str, PartitionSummary] = {
            name: summarize_partition(name, worker.network)
            for name, worker in self.workers.items()}
        self._cuts = cut_edges(self.primary, self.partition_map)
        self.boundary = boundary_network(self.primary, self.partition_map,
                                         self._cuts)
        self.quotient = quotient_graph(self.partition_map, self.summaries,
                                       self._cuts, self.boundary,
                                       delay_attr=self._delay_attr,
                                       name=f"{self.primary.name}:quotient")
        self.index = PartitionIndex(self.partition_map.names)
        self._applied_epoch = self.primary.mutation_count

    def refresh(self) -> Dict[str, object]:
        """Bring replicas and coordinator summaries up to the primary epoch.

        Attribute-only churn ships one encoded delta payload and patches
        replicas, the boundary network, the touched summaries and the
        touched quotient aggregates in place.  Structural churn and journal
        overflow fall back to a full resync (and re-placement of new nodes).
        """
        with self._lock:
            current = self.primary.mutation_count
            if current == self._applied_epoch:
                return {"changed": False, "mode": "noop"}
            delta = self.primary.delta_since(self._applied_epoch)
            if delta is None:
                self.replication.full_resyncs += 1
                self.replication.overflow_resyncs += 1
                self._resync_structural()
                return {"changed": True, "mode": "overflow-resync"}
            if delta.structural:
                self.replication.full_resyncs += 1
                self.replication.structural_resyncs += 1
                self._resync_structural()
                return {"changed": True, "mode": "structural-resync"}
            try:
                payload = encode_delta(self.primary, delta)
            except StructuralDeltaError:   # pragma: no cover - guarded above
                self._resync_structural()
                return {"changed": True, "mode": "structural-resync"}
            touched = self._apply_payload(payload)
            self._applied_epoch = current
            return {"changed": True, "mode": "delta",
                    "partitions_touched": sorted(touched),
                    "subjects": len(payload.node_attrs) + len(payload.edge_attrs)}

    def _apply_payload(self, payload) -> set:
        """Patch replicas/boundary/summaries/quotient from one payload."""
        assignment = self.partition_map.assignment
        touched: set = set()
        for node in payload.node_attrs:
            name = assignment.get(node)
            if name is not None:
                touched.add(name)
        touched_pairs: set = set()
        for u, v in payload.edge_attrs:
            pu, pv = assignment.get(u), assignment.get(v)
            if pu is None or pv is None:
                continue
            if pu == pv:
                touched.add(pu)
            else:
                touched_pairs.add((pu, pv) if pu <= pv else (pv, pu))
        for name in sorted(touched):
            worker = self.workers[name]
            try:
                applied = worker.replica.apply(payload)
            except ConnectionError:
                # The replication channel dropped: this replica resyncs
                # wholesale (and comes back available).
                self.replication.dropped_connections += 1
                self.replication.full_resyncs += 1
                worker.replica.resync(self.primary)
                applied = 0
            self.replication.deltas_applied += 1
            self.replication.subjects_applied += applied
            self.summaries[name] = summarize_partition(name, worker.network)
            self._refresh_quotient_node(name)
        if touched_pairs:
            # Patch the boundary network in place, then re-aggregate only
            # the touched super-edges.
            apply_payload(self.boundary, payload)
            for pair in sorted(touched_pairs):
                self._refresh_quotient_edge(pair)
        return touched | {p for pair in touched_pairs for p in pair}

    def _refresh_quotient_node(self, name: str) -> None:
        summary = self.summaries[name]
        attrs: Dict[str, object] = {
            "nodes": summary.num_nodes,
            "edges": summary.num_edges,
            "capacity": summary.total_capacity,
        }
        span = summary.edge_ranges.get(self._delay_attr)
        if span is not None:
            attrs["intraMinDelay"] = span[0]
            attrs["intraMaxDelay"] = span[1]
        self.quotient.update_node(name, **attrs)

    def _refresh_quotient_edge(self, pair: Tuple[str, str]) -> None:
        edges = self._cuts.get(pair, [])
        low = high = None
        for u, v in edges:
            value = self.boundary.get_edge_attr(u, v, self._delay_attr)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            low = value if low is None else min(low, value)
            high = value if high is None else max(high, value)
        if low is not None and self.quotient.has_edge(*pair):
            self.quotient.update_edge(pair[0], pair[1],
                                      **{CUT_MIN_ATTR: low,
                                         CUT_MAX_ATTR: high})

    def _resync_structural(self) -> None:
        """Full rebuild after topology churn: keep names, re-place new nodes."""
        survivors = [n for n in self.partition_map.assignment
                     if self.primary.has_node(n)]
        pmap = self.partition_map.restricted_to(survivors)
        fresh = [n for n in self.primary.nodes()
                 if n not in pmap.assignment]
        if fresh:
            placements: Dict[NodeId, str] = {}
            for node in fresh:
                if self._attribute is not None:
                    value = self.primary.get_node_attr(node, self._attribute)
                    placements[node] = (str(value) if value is not None
                                        else str(pmap.names[0]))
                else:
                    smallest = min(pmap.names,
                                   key=lambda p: (len(pmap.partitions[p]), p))
                    placements[node] = smallest
            pmap = pmap.with_nodes_added(placements)
        self.partition_map = pmap
        self._rebuild()

    def mark_lost(self, name: str) -> None:
        """Take one partition out of rotation (fault handling / tests)."""
        self.workers[name].replica.available = False

    def restore(self, name: str) -> None:
        """Bring a lost partition back by resyncing it from the primary."""
        self.workers[name].replica.resync(self.primary)

    @property
    def lost_partitions(self) -> List[str]:
        return [name for name, worker in self.workers.items()
                if not worker.replica.available]

    # ------------------------------------------------------------------ #
    # Two-level search
    # ------------------------------------------------------------------ #

    def _relaxation_active(self, constraint, query: QueryNetwork) -> bool:
        """Whether the delay-window coarse relaxation applies to *constraint*."""
        expr = coerce_constraint(constraint, default_true=False)
        if expr is None or expr.source is None:
            return False
        if "".join(expr.source.split()) != "".join(_WINDOW_SOURCE.split()):
            return False
        for u, v in query.edges():
            low = query.get_edge_attr(u, v, "minDelay")
            high = query.get_edge_attr(u, v, "maxDelay")
            if not isinstance(low, (int, float)) or not isinstance(high, (int, float)):
                return False
        return True

    def _edge_windows(self, query: QueryNetwork) -> List[Tuple[float, float]]:
        return [(query.get_edge_attr(u, v, "minDelay"),
                 query.get_edge_attr(u, v, "maxDelay"))
                for u, v in query.edges()]

    def _cut_ranges(self) -> List[Tuple[float, float]]:
        ranges = []
        for pa, pb in self.quotient.edges():
            low = self.quotient.get_edge_attr(pa, pb, CUT_MIN_ATTR)
            high = self.quotient.get_edge_attr(pa, pb, CUT_MAX_ATTR)
            if isinstance(low, (int, float)) and isinstance(high, (int, float)):
                ranges.append((low, high))
        return ranges

    def candidate_partitions(self, query: QueryNetwork,
                             relaxed: bool) -> Tuple[List[str], int]:
        """Bitset screen: partitions that might host the *whole* query.

        Returns ``(ordered survivors, pruned count)``.  Ordering is largest
        partition first (ties by name) — the deterministic legacy try order.
        """
        mask = self.index.mask_where(
            lambda p: self.summaries[p].num_nodes >= query.num_nodes)
        if relaxed:
            for low, high in self._edge_windows(query):
                mask &= self.index.mask_where(
                    lambda p, lo=low, hi=high: self.summaries[p]
                    .edge_window_feasible(self._delay_attr, lo, hi))
                if not mask:
                    break
        survivors = self.index.names_of(mask)
        survivors.sort(key=lambda p: (-self.summaries[p].num_nodes, p))
        return survivors, len(self.workers) - len(survivors)

    def embed(self, query: QueryNetwork, constraint=None, node_constraint=None,
              timeout: Optional[float] = None, max_results: Optional[int] = 1,
              algorithm: Optional[EmbeddingAlgorithm] = None, seed=None,
              partition_order: Optional[Sequence[str]] = None,
              cross_partition: bool = True, max_fragments: int = 3,
              per_fragment_results: int = 6,
              stitch_limit: int = 96, cache: bool = True) -> ClusterResult:
        """Answer one embedding request with the two-level search.

        *algorithm* is an instance (``None`` = the coordinator's default);
        names are resolved by the service, against its own registry.
        ``cache=False`` keeps every partition search off the plan cache.
        """
        stopwatch = Stopwatch().start()
        deadline = Deadline(timeout)
        algo = algorithm if algorithm is not None else self.algorithm

        def search(worker, part, timeout, max_results) -> EmbeddingResult:
            return worker.search(part, algo, constraint, node_constraint,
                                 timeout=timeout, max_results=max_results,
                                 seed=seed, cache=cache)

        relaxed = self._relaxation_active(constraint, query)
        expr = coerce_constraint(constraint, default_true=False)
        node_expr = coerce_constraint(node_constraint, default_true=False)
        outcomes: List[PartitionOutcome] = []

        # -- sound refutation from summaries alone ----------------------- #
        if query.num_nodes > self.primary.num_nodes:
            return ClusterResult(verdict="infeasible", outcomes=outcomes,
                                 elapsed_seconds=stopwatch.stop())
        crossable = True
        if relaxed:
            cut_ranges = self._cut_ranges()
            crossable = False
            for low, high in self._edge_windows(query):
                intra_ok = any(s.edge_window_feasible(self._delay_attr, low, high)
                               for s in self.summaries.values())
                cut_ok = any(r[1] >= low and r[0] <= high for r in cut_ranges)
                if cut_ok:
                    crossable = True
                if not intra_ok and not cut_ok:
                    return ClusterResult(
                        verdict="infeasible", outcomes=outcomes,
                        elapsed_seconds=stopwatch.stop())

        # -- stage A: single-partition placement ------------------------- #
        if partition_order is not None:
            unknown = [p for p in partition_order if p not in self.workers]
            if unknown:
                raise KeyError(f"unknown partition(s) {unknown!r}")
            candidates = [p for p in partition_order
                          if self.summaries[p].num_nodes >= query.num_nodes]
            pruned = len(partition_order) - len(candidates)
        else:
            candidates, pruned = self.candidate_partitions(query, relaxed)

        searched = 0
        exhausted_all = True
        timed_out = False
        for name in candidates:
            if deadline.expired():
                timed_out = True
                exhausted_all = False
                break
            worker = self.workers[name]
            try:
                result = search(worker, query, _remaining(deadline, timeout),
                                max_results)
            except ConnectionError:
                worker.replica.available = False
                outcomes.append(PartitionOutcome(name, "lost", lost=True))
                exhausted_all = False
                continue
            searched += 1
            outcomes.append(PartitionOutcome(name, result.status.value,
                                             found=result.found))
            if result.found:
                mapping = result.first
                violations = validate_mapping(mapping, query, self.primary,
                                              expr, node_expr)
                if violations:     # replica drift raced the search: skip it
                    exhausted_all = False
                    continue
                return ClusterResult(
                    verdict="feasible", mappings=list(result.mappings),
                    partition=name,
                    fragment_assignment={q: name for q in mapping},
                    outcomes=outcomes, elapsed_seconds=stopwatch.stop(),
                    partitions_pruned=pruned, partitions_searched=searched,
                    timed_out=False)
            if not result.proved_infeasible:
                exhausted_all = False
            if result.timed_out:
                timed_out = True

        # -- stage B: cross-partition split & stitch ---------------------- #
        coarse_tried = 0
        stitch_checks = 0
        if (cross_partition and query.num_nodes >= 2 and len(self.workers) >= 2
                and not deadline.expired() and (not relaxed or crossable)):
            found = self._embed_cross_partition(
                query, expr, node_expr, search, deadline, relaxed,
                max_fragments, per_fragment_results, stitch_limit, outcomes)
            coarse_tried, stitch_checks = found[1], found[2]
            if found[0] is not None:
                mapping, assignment = found[0]
                return ClusterResult(
                    verdict="feasible", mappings=[mapping],
                    fragment_assignment=assignment, outcomes=outcomes,
                    used_cross_partition=True,
                    elapsed_seconds=stopwatch.stop(),
                    partitions_pruned=pruned, partitions_searched=searched,
                    coarse_placements_tried=coarse_tried,
                    stitch_checks=stitch_checks)

        # -- classify the failure ----------------------------------------- #
        timed_out = timed_out or deadline.expired()
        verdict = "unknown"
        if (exhausted_all and not timed_out and relaxed and not crossable
                and _is_connected(query)):
            # Every partition exhausted its intra search and no query edge's
            # window intersects any cut range: a connected query cannot span
            # partitions, so the failure is a proof.
            verdict = "infeasible"
        return ClusterResult(verdict=verdict, outcomes=outcomes,
                             timed_out=timed_out,
                             elapsed_seconds=stopwatch.stop(),
                             partitions_pruned=pruned,
                             partitions_searched=searched,
                             coarse_placements_tried=coarse_tried,
                             stitch_checks=stitch_checks)

    # ------------------------------------------------------------------ #

    def _embed_cross_partition(self, query, expr, node_expr, search, deadline,
                               relaxed, max_fragments, per_fragment_results,
                               stitch_limit, outcomes):
        """Split along query cuts, place coarsely, embed per shard, stitch.

        Returns ``((mapping, assignment) | None, coarse_tried, checks)``.
        """
        coarse_tried = 0
        checks = 0
        max_k = min(max_fragments, query.num_nodes, len(self.workers))
        for k in range(2, max_k + 1):
            if deadline.expired():
                break
            fragments = split_query(query, k)
            if len(fragments) < 2:
                continue
            coarse_query, frag_nodes, frag_cuts = self._coarse_query(
                query, fragments, relaxed)
            coarse = ECF().request(SearchRequest.build(
                coarse_query, self.quotient,
                constraint=COARSE_CUT_CONSTRAINT if relaxed else None,
                node_constraint=COARSE_NODE_CONSTRAINT,
                timeout=_remaining(deadline, None), max_results=8))
            for placement in coarse.mappings:
                if deadline.expired():
                    break
                coarse_tried += 1
                stitched = self._stitch(query, fragments, frag_nodes,
                                        frag_cuts, placement, expr, node_expr,
                                        search, deadline, per_fragment_results,
                                        stitch_limit, outcomes)
                checks += stitched[1]
                if stitched[0] is not None:
                    return stitched[0], coarse_tried, checks
        return None, coarse_tried, checks

    def _coarse_query(self, query, fragments, relaxed):
        """The contracted query: one node per fragment, cut edges aggregated.

        Cut windows aggregate to the *strongest* bound per pair —
        ``minDelay = max`` of the cut edges' lower bounds, ``maxDelay =
        min`` of the upper bounds — so a super-edge surviving the coarse
        constraint is necessary for every cut edge individually.
        """
        coarse = QueryNetwork(name=f"{query.name}:coarse")
        frag_of: Dict[NodeId, int] = {}
        for i, nodes in enumerate(fragments):
            coarse.add_node(f"f{i}", nodes=len(nodes))
            for node in nodes:
                frag_of[node] = i
        frag_cuts: Dict[Tuple[int, int], List[Tuple[NodeId, NodeId]]] = {}
        for u, v in query.edges():
            fu, fv = frag_of[u], frag_of[v]
            if fu == fv:
                continue
            key = (fu, fv) if fu < fv else (fv, fu)
            frag_cuts.setdefault(key, []).append((u, v))
        for (fa, fb), edges in sorted(frag_cuts.items()):
            attrs: Dict[str, object] = {}
            if relaxed:
                attrs["minDelay"] = max(
                    query.get_edge_attr(u, v, "minDelay") for u, v in edges)
                attrs["maxDelay"] = min(
                    query.get_edge_attr(u, v, "maxDelay") for u, v in edges)
            coarse.add_edge(f"f{fa}", f"f{fb}", **attrs)
        return coarse, frag_of, frag_cuts

    def _stitch(self, query, fragments, frag_of, frag_cuts, placement, expr,
                node_expr, search, deadline, per_fragment_results,
                stitch_limit, outcomes):
        """Embed each fragment in its assigned partition, then join them.

        Every combination of per-fragment embeddings (bounded by
        *stitch_limit*) is checked for boundary consistency: each cut query
        edge must land on a boundary-network edge satisfying the original
        constraint.  Partitions are disjoint, so cross-fragment injectivity
        is structural.
        """
        per_fragment: List[List[Mapping]] = []
        for i, nodes in enumerate(fragments):
            partition = placement[f"f{i}"]
            worker = self.workers[partition]
            fragment_query = query.subnetwork(nodes, name=f"{query.name}:f{i}")
            try:
                result = search(worker, fragment_query,
                                _remaining(deadline, None),
                                per_fragment_results)
            except ConnectionError:
                worker.replica.available = False
                outcomes.append(PartitionOutcome(partition, "lost", lost=True))
                return None, 0
            if not result.found:
                return None, 0
            per_fragment.append(list(result.mappings))

        checks = 0
        for combo in itertools.product(*per_fragment):
            if checks >= stitch_limit or deadline.expired():
                break
            checks += 1
            merged: Dict[NodeId, NodeId] = {}
            for fragment_mapping in combo:
                merged.update(fragment_mapping.as_dict())
            if self._boundary_consistent(query, frag_cuts, merged, expr):
                mapping = Mapping(merged)
                if validate_mapping(mapping, query, self.primary, expr,
                                    node_expr):
                    continue       # raced churn; try the next combination
                assignment = {q: placement[f"f{frag_of[q]}"] for q in merged}
                return (mapping, assignment), checks
        return None, checks

    def _boundary_consistent(self, query, frag_cuts, merged, expr) -> bool:
        for edges in frag_cuts.values():
            for u, v in edges:
                ru, rv = merged[u], merged[v]
                if not self.boundary.has_edge(ru, rv):
                    return False
                if expr is not None and not expr.is_trivial:
                    context = edge_context(query, (u, v), self.boundary,
                                           (ru, rv))
                    if not expr.evaluate(context):
                        return False
        return True

    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, object]:
        """Coordinator-level counters (JSON-serialisable)."""
        partition_sizes = {name: self.summaries[name].num_nodes
                           for name in self.partition_map.names}
        return {
            "partitions": len(self.workers),
            "partition_nodes": partition_sizes,
            "max_partition_nodes": max(partition_sizes.values(), default=0),
            "primary_nodes": self.primary.num_nodes,
            "boundary_nodes": self.boundary.num_nodes,
            "boundary_edges": self.boundary.num_edges,
            "quotient_edges": self.quotient.num_edges,
            "lost_partitions": self.lost_partitions,
            "applied_epoch": self._applied_epoch,
            "replication": self.replication.snapshot(),
            "plan_cache": self.plans.stats(),
        }


def _remaining(deadline: Deadline, fallback: Optional[float]
               ) -> Optional[float]:
    """The per-search timeout under an overall deadline (None = unlimited)."""
    remaining = deadline.remaining
    if remaining == float("inf"):
        return fallback
    return max(remaining, 0.001)


def _is_connected(query: QueryNetwork) -> bool:
    if query.num_nodes <= 1:
        return True
    return nx.is_connected(query.graph.to_undirected(as_view=True))

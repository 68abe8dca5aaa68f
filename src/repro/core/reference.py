"""The set-semantics reference engine: the oracle for both tree searches.

Dict-of-set filter matrices built and queried exactly the way the original
(pre-bitset) implementation did, with the paper's two searches written as
plain recursion on top of them: :class:`ReferenceECF` (Fig. 4) and
:class:`ReferenceRWB` (Fig. 5).  Nothing here shares a line with the engine
it judges — its own filter build, Python sets instead of packed words, one
interpreter frame per query node instead of an explicit stack — which is
what makes agreement meaningful:

* **Parity.**  ``tests/test_core_bitset_parity.py`` compares the filter
  cells (the engine's packed blocks decoded by :func:`decode_views`) and
  entry counts; ``tests/test_kernel_parity.py``
  and its siblings require the search kernel (:mod:`repro.core.kernel`) to
  reproduce this module's mapping streams, dict key order and every search
  counter, serial and sharded.

It is intentionally *not* registered with the algorithm registry: nothing in
the production path should ever pick it up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.constraints import ConstraintExpression
from repro.core.base import EmbeddingAlgorithm, SearchContext
from repro.core.filters import FilterKey, compute_node_candidates
from repro.core.ordering import ORDERINGS
from repro.core.rwb import subtree_seed
from repro.graphs.hosting import HostingNetwork
from repro.graphs.network import Edge, NodeId
from repro.graphs.query import QueryNetwork
from repro.utils.rng import RandomSource, as_rng
from repro.utils.timing import Stopwatch

_EMPTY_SET: Set[NodeId] = set()


@dataclass
class ReferenceFilterMatrices:
    """Dict-of-set filter matrices with the original candidate algebra."""

    match: Dict[FilterKey, Set[NodeId]] = field(default_factory=dict)
    non_match: Dict[FilterKey, Set[NodeId]] = field(default_factory=dict)
    node_candidates: Dict[NodeId, Set[NodeId]] = field(default_factory=dict)
    constraint_evaluations: int = 0
    build_seconds: float = 0.0

    @property
    def entry_count(self) -> int:
        return (sum(len(s) for s in self.match.values())
                + sum(len(s) for s in self.non_match.values()))

    @property
    def cell_count(self) -> int:
        return len(self.match)

    def candidate_count(self, query_node: NodeId) -> int:
        """Cardinality of expression (1)'s candidate set for *query_node*."""
        return len(self.node_candidates.get(query_node, _EMPTY_SET))

    def candidates_unplaced(self, query_node: NodeId) -> Set[NodeId]:
        return set(self.node_candidates.get(query_node, _EMPTY_SET))

    def candidates_given(self, query_node: NodeId,
                         placed_neighbors: Iterable[Tuple[NodeId, NodeId]],
                         used_hosts: Iterable[NodeId]) -> Set[NodeId]:
        placed = list(placed_neighbors)
        if not placed:
            result = self.candidates_unplaced(query_node)
        else:
            result: Optional[Set[NodeId]] = None
            for neighbor, host in placed:
                cell = self.match.get((neighbor, host, query_node), _EMPTY_SET)
                if result is None:
                    result = set(cell)
                else:
                    result &= cell
                if not result:
                    return set()
        result -= set(used_hosts)
        return result

    def cell(self, placed_query: NodeId, placed_host: NodeId,
             next_query: NodeId) -> FrozenSet[NodeId]:
        return frozenset(self.match.get((placed_query, placed_host, next_query),
                                        _EMPTY_SET))

    def non_match_cell(self, placed_query: NodeId, placed_host: NodeId,
                       next_query: NodeId) -> FrozenSet[NodeId]:
        return frozenset(self.non_match.get((placed_query, placed_host, next_query),
                                            _EMPTY_SET))


def decode_views(filters) -> ReferenceFilterMatrices:
    """The engine's packed :class:`~repro.core.filters.FilterMatrices`
    decoded into the oracle's dict-of-set shape, for tests and diagnostics
    (no search reads it; every call decodes every row).

    ``match`` and ``non_match`` enumerate in one canonical order — block
    order (query pair order, ``ab`` before ``ba``), ascending host index —
    whether *filters* was built or patched; ``F̄`` is derived the way the
    engine defines it, each placed host's oriented arcs minus its ``F``
    cell, and is empty unless non-matches are recorded.  The candidate
    algebra (:meth:`~ReferenceFilterMatrices.candidates_given`, ``cell`` …)
    is the oracle's own, over the decoded cells.
    """
    indexer = filters.host_indexer
    node_at, decode = indexer.node_at, indexer.decode_set
    views = ReferenceFilterMatrices(
        node_candidates={node: decode(mask) for node, mask
                         in filters.node_candidate_masks.items()},
        constraint_evaluations=filters.constraint_evaluations,
        build_seconds=filters.build_seconds)
    arc_rows = list(filters.arcs.items()) if filters.arcs is not None else []
    for (placed, following), block in filters.blocks.items():
        matched = dict(block.items())
        for index, mask in matched.items():
            views.match[(placed, node_at(index), following)] = decode(mask)
        for index, arc_mask in arc_rows:
            mask = arc_mask & ~matched.get(index, 0)
            if mask:
                views.non_match[(placed, node_at(index), following)] = decode(mask)
    return views


def build_filters_reference(query: QueryNetwork, hosting: HostingNetwork,
                            constraint: ConstraintExpression,
                            node_constraint: Optional[ConstraintExpression] = None,
                            record_non_matches: bool = True,
                            deadline=None) -> ReferenceFilterMatrices:
    """The original (pre-bitset) ``build_filters``, kept line-for-line."""
    stopwatch = Stopwatch().start()
    filters = ReferenceFilterMatrices()
    trivial = constraint.is_trivial

    node_allowed = compute_node_candidates(query, hosting, node_constraint)

    pair_edges: Dict[Tuple[NodeId, NodeId], List[Edge]] = {}
    for q_source, q_target in query.edges():
        qa, qb = sorted((q_source, q_target), key=str)
        pair_edges.setdefault((qa, qb), []).append((q_source, q_target))

    def arc_attrs(r_from: NodeId, r_to: NodeId):
        if hosting.has_edge(r_from, r_to):
            return hosting.edge_attrs(r_from, r_to)
        if not hosting.directed and hosting.has_edge(r_to, r_from):
            return hosting.edge_attrs(r_to, r_from)
        return None

    host_pair_info = []
    seen_pairs = set()
    for r1, r2 in hosting.edges():
        for ra, rb in ((r1, r2), (r2, r1)):
            if ra == rb or (ra, rb) in seen_pairs:
                continue
            seen_pairs.add((ra, rb))
            host_pair_info.append((ra, rb, arc_attrs(ra, rb), arc_attrs(rb, ra),
                                   hosting.node_attrs(ra), hosting.node_attrs(rb)))

    evaluate = constraint.evaluate
    evaluations = 0
    for (qa, qb), edges_between in pair_edges.items():
        if deadline is not None:
            deadline.check()
        allowed_a = node_allowed[qa]
        allowed_b = node_allowed[qb]
        edge_contexts = []
        for q_source, q_target in edges_between:
            edge_contexts.append((q_source == qa, {
                "vEdge": query.edge_attrs(q_source, q_target),
                "vSource": query.node_attrs(q_source),
                "vTarget": query.node_attrs(q_target),
                "rEdge": None, "rSource": None, "rTarget": None,
            }))
        for ra, rb, attrs_ab, attrs_ba, attrs_a, attrs_b in host_pair_info:
            matched = ra in allowed_a and rb in allowed_b
            if matched:
                for forward, context in edge_contexts:
                    r_edge_attrs = attrs_ab if forward else attrs_ba
                    if r_edge_attrs is None:
                        matched = False
                        break
                    if trivial:
                        continue
                    evaluations += 1
                    context["rEdge"] = r_edge_attrs
                    context["rSource"] = attrs_a if forward else attrs_b
                    context["rTarget"] = attrs_b if forward else attrs_a
                    if not evaluate(context):
                        matched = False
                        break
            if matched:
                filters.match.setdefault((qa, ra, qb), set()).add(rb)
                filters.match.setdefault((qb, rb, qa), set()).add(ra)
                filters.node_candidates.setdefault(qb, set()).add(rb)
                filters.node_candidates.setdefault(qa, set()).add(ra)
            elif record_non_matches:
                filters.non_match.setdefault((qa, ra, qb), set()).add(rb)
                filters.non_match.setdefault((qb, rb, qa), set()).add(ra)

    for node in query.nodes():
        if node not in filters.node_candidates:
            filters.node_candidates[node] = set(node_allowed[node])

    filters.constraint_evaluations = evaluations
    filters.build_seconds = stopwatch.stop()
    return filters


class _ReferenceSearch(EmbeddingAlgorithm):
    """Stage 1 and the recursive descent the two reference searches share;
    a subclass supplies the root expansion and each node's trial order."""

    def __init__(self, ordering: str, record_non_matches: bool) -> None:
        if ordering not in ORDERINGS:
            raise ValueError(
                f"unknown ordering {ordering!r}; expected one of {sorted(ORDERINGS)}")
        self._ordering = ORDERINGS[ordering]
        self._record_non_matches = bool(record_non_matches)

    def _run(self, context: SearchContext) -> bool:
        filters = build_filters_reference(
            context.query, context.hosting, context.constraint,
            context.node_constraint,
            record_non_matches=self._record_non_matches,
            deadline=context.deadline)
        context.stats.constraint_evaluations += filters.constraint_evaluations
        context.stats.filter_entries = filters.entry_count
        context.stats.filter_build_seconds = filters.build_seconds

        if any(not filters.node_candidates.get(node)
               for node in context.query.nodes()):
            return True

        order = self._ordering(context.query, filters)
        return self._search(context, filters, order)

    def _search(self, context: SearchContext, filters: ReferenceFilterMatrices,
                order: List[NodeId]) -> bool:
        raise NotImplementedError

    def _descend(self, context: SearchContext, filters: ReferenceFilterMatrices,
                 order: List[NodeId], depth: int,
                 assignment: Dict[NodeId, NodeId], used: Set[NodeId],
                 arrange: Callable[[Set[NodeId]], List[NodeId]]) -> bool:
        """Place ``order[depth:]`` below *assignment*, trying each node's
        candidates in ``arrange(candidates)`` order.  ``False`` iff the
        result cap stopped the search."""
        context.check_deadline()

        if depth == len(order):
            stop = context.record_mapping(dict(assignment))
            return not stop

        node = order[depth]
        placed_neighbors = [(neighbor, assignment[neighbor])
                            for neighbor in context.query.neighbors(node)
                            if neighbor in assignment]
        candidates = filters.candidates_given(node, placed_neighbors, used)

        context.stats.nodes_expanded += 1
        context.stats.candidates_considered += len(candidates)

        if not candidates:
            context.stats.backtracks += 1
            return True

        for host in arrange(candidates):
            assignment[node] = host
            used.add(host)
            keep_going = self._descend(context, filters, order, depth + 1,
                                       assignment, used, arrange)
            del assignment[node]
            used.discard(host)
            if not keep_going:
                return False
        return True


def _canonical(candidates: Set[NodeId]) -> List[NodeId]:
    return sorted(candidates, key=str)


def _shuffled(rng: random.Random, candidates: Set[NodeId]) -> List[NodeId]:
    hosts = _canonical(candidates)
    rng.shuffle(hosts)
    return hosts


class ReferenceECF(_ReferenceSearch):
    """The original recursive ECF over :class:`ReferenceFilterMatrices`.

    Same ordering heuristics, same candidate algebra, same
    ``sorted(candidates, key=str)`` trial order — so its mapping stream is
    the ground truth the kernel's ECF must reproduce byte for byte.
    """

    name = "ECF-reference"

    def __init__(self, ordering: str = "connectivity",
                 record_non_matches: bool = True) -> None:
        super().__init__(ordering, record_non_matches)

    def _search(self, context, filters, order) -> bool:
        return self._descend(context, filters, order, 0, {}, set(), _canonical)


class ReferenceRWB(_ReferenceSearch):
    """Fig. 5's recursive random walk over :class:`ReferenceFilterMatrices`.

    Spends the random stream exactly as :class:`~repro.core.rwb.RWB`
    documents it: the run's source shuffles the first query node's
    (canonically sorted) candidates and draws one 64-bit base seed; root
    candidate *i*'s subtree is then walked with its own ``random.Random``
    seeded from ``(base, i)``, one shuffle of the sorted candidates per
    expanded node.  A seeded run is therefore the ground truth for seeded
    RWB, serial or sharded.
    """

    name = "RWB-reference"

    def __init__(self, rng: RandomSource = None,
                 ordering: str = "connectivity") -> None:
        # Like the real RWB, stage 1 never populates the never-read ``F̄``.
        super().__init__(ordering, record_non_matches=False)
        self._rng_source = rng

    def _effective_max_results(self, requested: Optional[int]) -> Optional[int]:
        return 1 if requested is None else requested

    def _search(self, context, filters, order) -> bool:
        rng = context.rng if context.rng is not None else as_rng(self._rng_source)
        context.check_deadline()
        root = order[0]
        roots = _shuffled(rng, filters.candidates_unplaced(root))
        base = rng.getrandbits(64)
        context.stats.nodes_expanded += 1
        context.stats.candidates_considered += len(roots)
        if not roots:
            context.stats.backtracks += 1
            return True

        for index, host in enumerate(roots):
            arrange = partial(_shuffled, random.Random(subtree_seed(base, index)))
            if not self._descend(context, filters, order, 1, {root: host},
                                 {host}, arrange):
                return False
        return True

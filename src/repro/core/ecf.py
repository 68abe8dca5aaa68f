"""ECF — Exhaustive Search with Constraint Filtering (paper §V-A, Fig. 4).

ECF finds *every* feasible embedding.  It works in two stages:

1. **Filter construction.**  The constraint expression is evaluated for every
   (query edge, hosting edge) pair and the results are stored in the sparse
   filter matrices ``F`` / ``F̄`` (:mod:`repro.core.filters`).

2. **Ordered depth-first search.**  Query nodes are visited in ascending
   order of their candidate counts (Lemma 1), so the branching near the root
   of the permutations tree is as small as possible.  At each depth the
   candidate set for the next query node is the intersection of the filter
   cells indexed by its already-placed neighbours, minus hosting nodes already
   in use (expression (2)); a branch is pruned the moment that set becomes
   empty.  Every leaf reached at depth ``N_Q`` is a feasible embedding.

The search runs on the bitmask candidate engine: candidate sets are integer
masks over the dense hosting-node index, intersected with ``&`` and pruned of
consumed hosts with ``& ~used_mask``, and the depth-first expansion is an
explicit-stack loop (one Python frame total) instead of one interpreter frame
per query node.  Candidates are tried in ascending bit order, which is the
``sorted(key=str)`` order of the original set-based engine, so the mapping
stream is unchanged.

Because the search only prunes branches that provably contain no feasible
completion, ECF is complete (it finds every embedding, given enough time) and
correct (everything it reports is feasible).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.registry import Capability, register_algorithm
from repro.api.request import SearchRequest
from repro.core import kernel
from repro.core.base import EmbeddingAlgorithm, SearchContext
from repro.core.filters import FilterMatrices, build_filters
from repro.core.ordering import ORDERINGS
from repro.core.plan import PreparedSearch
from repro.graphs.network import NodeId
from repro.utils.timing import Deadline


@register_algorithm(
    "ECF",
    capabilities=[
        Capability.COMPLETE_ENUMERATION,
        Capability.DETERMINISTIC,
        Capability.PROVES_INFEASIBILITY,
        Capability.SUPPORTS_DIRECTED,
    ],
    summary="Exhaustive search with constraint filtering (all embeddings).",
    tags=["core"],
)
class ECF(EmbeddingAlgorithm):
    """Exhaustive Search with Constraint Filtering.

    Parameters
    ----------
    ordering:
        Which query-node ordering to use: ``"connectivity"`` (default —
        Lemma 1's ascending candidate counts refined to keep the visited
        prefix connected, so expression (2) always has placed neighbours to
        intersect), ``"candidate-count"`` (plain Lemma 1) or ``"natural"``
        (no heuristic; used by the ordering ablation).
    record_non_matches:
        Whether to populate the non-match filter ``F̄`` alongside ``F``.
        Candidate computation only needs ``F``; the flag exists to measure
        the memory/time cost of the second filter (§V-C discussion).
    """

    name = "ECF"
    supports_prepare = True
    supports_sharding = True
    #: Constraints are baked into the filter bitmasks at prepare time; a
    #: shard needs nothing beyond the compiled artifacts.
    _shard_ships_networks = False

    def __init__(self, ordering: str = "connectivity",
                 record_non_matches: bool = True) -> None:
        if ordering not in ORDERINGS:
            raise ValueError(
                f"unknown ordering {ordering!r}; expected one of {sorted(ORDERINGS)}")
        self._ordering_name = ordering
        self._ordering = ORDERINGS[ordering]
        self._record_non_matches = bool(record_non_matches)

    @property
    def ordering(self) -> str:
        """Name of the node-ordering heuristic in use."""
        return self._ordering_name

    def plan_signature(self):
        return (self.name, self._ordering_name, self._record_non_matches)

    # ------------------------------------------------------------------ #

    def _prepare(self, request: SearchRequest,
                 deadline: Optional[Deadline] = None) -> PreparedSearch:
        """Stage 1: compile the filter matrices and the visiting order."""
        filters = build_filters(request.query, request.hosting,
                                request.constraint, request.node_constraint,
                                record_non_matches=self._record_non_matches,
                                deadline=deadline)
        return self._prepared_from_filters(request, filters, self._ordering)

    def _patch_prepared(self, request: SearchRequest,
                        prepared: PreparedSearch, delta) -> Optional[PreparedSearch]:
        return self._patch_filters_prepared(request, prepared, delta,
                                            self._ordering)

    def _run_prepared(self, context: SearchContext,
                      prepared: PreparedSearch) -> bool:
        return self._search(context, prepared.filters, prepared.order,
                            prepared.prior)

    # -- sharding: contiguous blocks of assignment prefixes --------------- #

    def _shard_specs(self, context: SearchContext, prepared: PreparedSearch,
                     shards: int):
        """Enumerate the prefix tree breadth-first until it is wide enough.

        Lemma 1 puts the *fewest*-candidate node first, so splitting only
        the root's candidates often yields one or two shards.  Instead the
        split descends: level ``d`` holds every live assignment prefix over
        ``order[:d]`` together with its (already computed) candidate mask
        for ``order[d]``, in exactly the serial DFS order; levels expand
        until at least *shards* prefixes exist (or the next level would be
        the leaves).  Each expansion performed here is one the serial search
        performs too, and is counted into the parent's stats exactly once —
        workers then count only their own subtrees (see the statistics
        convention on :meth:`EmbeddingAlgorithm._shard_specs`).
        """
        from repro.core.parallel import split_contiguous

        filters = prepared.filters
        order = prepared.order
        prior = prepared.prior
        node_at = filters.host_indexer.node_at
        stats = context.stats
        n = len(order)

        context.check_deadline()
        root_mask = filters.candidates_mask_unplaced(order[0])
        stats.nodes_expanded += 1
        stats.candidates_considered += root_mask.bit_count()
        if not root_mask:
            stats.backtracks += 1
            return []

        #: (assignment over order[:depth], used_mask, candidate mask for
        #: order[depth]) — the level is kept in serial DFS order.
        depth = 0
        level: List[Tuple[Dict[NodeId, NodeId], int, int]] = [({}, 0, root_mask)]
        while len(level) < shards and depth + 1 < n:
            context.check_deadline()
            node = order[depth]
            child_node = order[depth + 1]
            child_prior = prior[depth + 1]
            next_level: List[Tuple[Dict[NodeId, NodeId], int, int]] = []
            for assignment, used_mask, mask in level:
                while mask:
                    low = mask & -mask
                    mask ^= low
                    child_assignment = dict(assignment)
                    child_assignment[node] = node_at(low.bit_length() - 1)
                    # Expression (2) for the child, as in _search.
                    if not child_prior:
                        child_mask = filters.candidates_mask_unplaced(child_node)
                    else:
                        child_mask = -1
                        for neighbor in child_prior:
                            child_mask &= filters.cell_mask(
                                neighbor, child_assignment[neighbor], child_node)
                            if not child_mask:
                                break
                    child_mask &= ~(used_mask | low)
                    stats.nodes_expanded += 1
                    stats.candidates_considered += child_mask.bit_count()
                    if child_mask:
                        next_level.append((child_assignment, used_mask | low,
                                           child_mask))
                    else:
                        stats.backtracks += 1
            level = next_level
            depth += 1
            if not level:
                return []   # the split explored (and counted) everything

        return [(depth, [(tuple(assignment.items()), used_mask, mask)
                         for assignment, used_mask, mask in block])
                for block in split_contiguous(level, shards)]

    def _run_shard(self, context: SearchContext, prepared: PreparedSearch,
                   spec) -> bool:
        depth, entries = spec
        for items, used_mask, mask in entries:
            keep_going = self._search(context, prepared.filters,
                                      prepared.order, prepared.prior,
                                      start_depth=depth,
                                      assignment=dict(items),
                                      used_mask=used_mask, start_mask=mask)
            if not keep_going:
                return False
        return True

    def _search(self, context: SearchContext, filters: FilterMatrices,
                order: List[NodeId],
                prior: Sequence[Tuple[NodeId, ...]],
                start_depth: int = 0,
                assignment: Optional[Dict[NodeId, NodeId]] = None,
                used_mask: int = 0,
                start_mask: Optional[int] = None) -> bool:
        """Depth-first expansion over bitmask candidates.

        Dispatches to the compiled/chunked search kernel when one is active
        (``REPRO_KERNEL``, see :mod:`repro.core.kernel`) — the kernel
        reproduces this loop's mapping stream and evaluation counters
        byte-identically — and otherwise runs the legacy explicit-stack
        loop below, which remains the parity reference.
        """
        plan = kernel.plan_for(filters, order, prior)
        if plan is not None:
            return kernel.ecf_search(context, plan, start_depth=start_depth,
                                     assignment=assignment,
                                     used_mask=used_mask,
                                     start_mask=start_mask)
        return self._search_legacy(context, filters, order, prior,
                                   start_depth, assignment, used_mask,
                                   start_mask)

    def _search_legacy(self, context: SearchContext, filters: FilterMatrices,
                       order: List[NodeId],
                       prior: Sequence[Tuple[NodeId, ...]],
                       start_depth: int = 0,
                       assignment: Optional[Dict[NodeId, NodeId]] = None,
                       used_mask: int = 0,
                       start_mask: Optional[int] = None) -> bool:
        """Explicit-stack depth-first expansion over bitmask candidates.

        Returns ``False`` iff the search stopped early (result cap).  Per
        depth the loop keeps the not-yet-tried candidate mask and the bit of
        the host currently placed there; taking the lowest set bit first
        reproduces the canonical ``sorted(key=str)`` trial order.

        A shard of the parallel engine resumes the search below an
        assignment prefix: *start_depth* / *assignment* / *used_mask*
        describe the prefix and *start_mask* is its precomputed (and
        already-counted, by :meth:`_shard_specs`) candidate mask for
        ``order[start_depth]``; backtracking bottoms out at the prefix
        instead of the root.
        """
        indexer = filters.host_indexer
        node_at = indexer.node_at
        match_masks = filters.match_masks
        node_masks = filters.node_candidate_masks
        stats = context.stats
        check_deadline = context.check_deadline
        record_mapping = context.record_mapping

        n = len(order)
        if assignment is None:
            assignment = {}
        remaining = [0] * n    # untried candidate bits per depth
        placed_bit = [0] * n   # bit of the host currently placed per depth

        def candidates_mask(depth: int) -> int:
            # Expression (2) over the neighbours placed at earlier depths
            # (expression (1) when there are none), minus used hosts.
            neighbors = prior[depth]
            if not neighbors:
                mask = node_masks.get(order[depth], 0)
            else:
                node = order[depth]
                mask = -1
                for neighbor in neighbors:
                    mask &= match_masks.get((neighbor, assignment[neighbor], node), 0)
                    if not mask:
                        return 0
            return mask & ~used_mask

        if start_mask is None:
            mask = candidates_mask(start_depth)
            stats.nodes_expanded += 1
            stats.candidates_considered += mask.bit_count()
            if not mask:
                stats.backtracks += 1
                return True
        else:
            mask = start_mask   # expansion already counted by _shard_specs
            if not mask:        # defensive: the split never emits empty masks
                return True
        remaining[start_depth] = mask

        depth = start_depth
        while depth >= start_depth:
            check_deadline()
            mask = remaining[depth]
            if not mask:
                # Depth exhausted: undo its placement (if any) and backtrack.
                bit = placed_bit[depth]
                if bit:
                    used_mask ^= bit
                    del assignment[order[depth]]
                    placed_bit[depth] = 0
                depth -= 1
                continue
            low = mask & -mask
            remaining[depth] = mask ^ low
            prev = placed_bit[depth]
            if prev:
                used_mask ^= prev
            placed_bit[depth] = low
            used_mask |= low
            assignment[order[depth]] = node_at(low.bit_length() - 1)
            if depth + 1 == n:
                # A full-depth leaf is a feasible embedding (Fig. 4: "report
                # mapping defined by branch from node to root").
                if record_mapping(dict(assignment)):
                    return False
                continue
            depth += 1
            child = candidates_mask(depth)
            stats.nodes_expanded += 1
            stats.candidates_considered += child.bit_count()
            remaining[depth] = child
            placed_bit[depth] = 0
            if not child:
                stats.backtracks += 1
        return True

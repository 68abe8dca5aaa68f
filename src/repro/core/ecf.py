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

This module owns stage 1 and the shard split; the search itself is
:func:`repro.core.kernel.ecf_search` — an explicit-stack loop over bitmask
candidates (integer masks over the dense hosting-node index, intersected
with ``&`` and pruned of consumed hosts with ``& ~used_mask``) on the
:class:`~repro.core.kernel.KernelPlan` the prepared search owns.  Candidates
are tried in ascending bit order, which is the ``sorted(key=str)`` order of
the set-semantics reference engine (:mod:`repro.core.reference`), so the two
report the same mapping stream.

Because the search only prunes branches that provably contain no feasible
completion, ECF is complete (it finds every embedding, given enough time) and
correct (everything it reports is feasible).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.api.registry import Capability, register_algorithm
from repro.api.request import SearchRequest
from repro.core import kernel
from repro.core.base import EmbeddingAlgorithm, SearchContext
from repro.core.filters import build_filters
from repro.core.ordering import ORDERINGS
from repro.core.plan import PreparedSearch
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
        return kernel.ecf_search(context, prepared.kernel_plan())

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
        performs too — through the same :func:`kernel.candidates_mask` —
        and is counted into the parent's stats exactly once; workers then
        count only their own subtrees (see the statistics convention on
        :meth:`EmbeddingAlgorithm._shard_specs`).
        """
        from repro.core.parallel import split_contiguous

        plan = prepared.kernel_plan()
        stats = context.stats

        context.check_deadline()
        root_mask = kernel.candidates_mask(plan, 0, (), 0)
        stats.nodes_expanded += 1
        stats.candidates_considered += root_mask.bit_count()
        if not root_mask:
            stats.backtracks += 1
            return []

        #: (host indices placed over order[:depth], used_mask, candidate
        #: mask for order[depth]) — the level is kept in serial DFS order.
        depth = 0
        level: List[Tuple[Tuple[int, ...], int, int]] = [((), 0, root_mask)]
        while len(level) < shards and depth + 1 < plan.n:
            context.check_deadline()
            next_level: List[Tuple[Tuple[int, ...], int, int]] = []
            for placed, used_mask, mask in level:
                while mask:
                    low = mask & -mask
                    mask ^= low
                    child_placed = placed + (low.bit_length() - 1,)
                    child_used = used_mask | low
                    child_mask = kernel.candidates_mask(
                        plan, depth + 1, child_placed, child_used)
                    stats.nodes_expanded += 1
                    stats.candidates_considered += child_mask.bit_count()
                    if child_mask:
                        next_level.append((child_placed, child_used,
                                           child_mask))
                    else:
                        stats.backtracks += 1
            level = next_level
            depth += 1
            if not level:
                return []   # the split explored (and counted) everything

        order = plan.order
        host_nodes = plan.host_nodes
        return [(depth, [(tuple((order[d], host_nodes[index])
                                for d, index in enumerate(placed)),
                          used_mask, mask)
                         for placed, used_mask, mask in block])
                for block in split_contiguous(level, shards)]

    def _run_shard(self, context: SearchContext, prepared: PreparedSearch,
                   spec) -> bool:
        depth, entries = spec
        plan = prepared.kernel_plan()
        for items, used_mask, mask in entries:
            keep_going = kernel.ecf_search(context, plan, start_depth=depth,
                                           assignment=dict(items),
                                           used_mask=used_mask,
                                           start_mask=mask)
            if not keep_going:
                return False
        return True

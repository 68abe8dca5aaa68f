"""RWB — Random Walk Search with Backtracking (paper §V-B, Fig. 5).

RWB is the non-deterministic sibling of ECF for applications that only need
*one* feasible embedding (or a small random sample of them).  It uses exactly
the same filter matrices and candidate-set expressions as ECF — the
:class:`~repro.core.kernel.KernelPlan` the prepared search owns, read through
a :class:`~repro.core.kernel.RwbCursor` — but:

* query nodes' candidates are tried in uniformly random order instead of a
  deterministic order, so repeated runs explore different regions of the
  solution space;
* the search stops as soon as the requested number of embeddings (one by
  default) has been found;
* dead ends are handled by backtracking to the previous query node, exactly
  as the paper's pseudocode keeps a per-node "discarded" list.

Because backtracking is systematic, an RWB run that exhausts the space
without finding an embedding is a proof of infeasibility, just like ECF.

**Random-stream discipline.**  The run's random source is consumed exactly
twice at the top level: once to shuffle the first query node's candidates
(the root trial order) and once to draw a 64-bit base seed.  Every root
candidate's subtree is then walked with its own :class:`random.Random`
derived from ``(base, root index)``.  Decorrelating the subtrees this way is
what makes RWB shardable (see :mod:`repro.core.parallel`): a worker handed an
arbitrary slice of the root order reproduces exactly the subtree streams a
serial run would, so parallel and serial mapping streams are byte-identical
for any shard count — and seeded runs reproduce across process boundaries.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.api.registry import Capability, register_algorithm
from repro.api.request import SearchRequest
from repro.core import kernel
from repro.core.base import EmbeddingAlgorithm, SearchContext
from repro.core.filters import build_filters
from repro.core.ordering import ORDERINGS
from repro.core.plan import PreparedSearch
from repro.graphs.network import NodeId
from repro.utils.rng import RandomSource, as_rng
from repro.utils.timing import Deadline

#: Weyl-sequence constant decorrelating the per-root subtree streams.
_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def subtree_seed(base: int, root_index: int) -> int:
    """The derived seed of root candidate *root_index*'s subtree walk."""
    return (base + _GOLDEN64 * (root_index + 1)) & _MASK64


@register_algorithm(
    "RWB",
    capabilities=[
        Capability.RANDOMIZED,
        Capability.FIRST_MATCH_ONLY,
        Capability.PROVES_INFEASIBILITY,
        Capability.SUPPORTS_DIRECTED,
        Capability.SEEDABLE,
    ],
    summary="Random walk with backtracking (first embedding, randomised).",
    tags=["core"],
)
class RWB(EmbeddingAlgorithm):
    """Random Walk Search with Backtracking.

    Parameters
    ----------
    rng:
        Seed or generator controlling the random candidate order; pass an
        integer for reproducible runs.
    ordering:
        Node-visit ordering; RWB defaults to the connectivity-aware Lemma-1
        ordering, like ECF (the randomness is in the candidate choice, not in
        which node is expanded next).
    seed:
        Convenience alias for ``rng`` taking an integer only, so call sites
        that thread per-request seeds (the batch service, JSON specs) read
        naturally.  Mutually exclusive with ``rng``.
    """

    name = "RWB"
    supports_prepare = True
    supports_sharding = True
    #: Constraints are baked into the filter bitmasks at prepare time; a
    #: shard needs nothing beyond the compiled artifacts and its seeds.
    _shard_ships_networks = False

    def __init__(self, rng: RandomSource = None,
                 ordering: str = "connectivity",
                 seed: Optional[int] = None) -> None:
        if ordering not in ORDERINGS:
            raise ValueError(
                f"unknown ordering {ordering!r}; expected one of {sorted(ORDERINGS)}")
        if seed is not None:
            if rng is not None:
                raise ValueError("pass either rng or seed, not both")
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise TypeError(f"seed must be an int, got {type(seed).__name__}")
            rng = seed
        self._rng_source = rng
        self._ordering_name = ordering
        self._ordering = ORDERINGS[ordering]

    def _effective_max_results(self, requested: Optional[int]) -> Optional[int]:
        # "By design it terminates as soon as it finds the first solution"
        # (paper footnote 7).  An explicit larger cap is honoured so callers
        # can sample several random embeddings.
        return 1 if requested is None else requested

    def plan_signature(self):
        # The rng source is deliberately absent: filters and visiting order
        # are seed-independent, so one cached plan serves requests carrying
        # different seeds (the per-run stream arrives via execute(rng=...)).
        return (self.name, self._ordering_name)

    # ------------------------------------------------------------------ #

    def _prepare(self, request: SearchRequest,
                 deadline: Optional[Deadline] = None) -> PreparedSearch:
        """Stage 1: same compile as ECF, minus the never-read ``F̄`` filter."""
        filters = build_filters(request.query, request.hosting,
                                request.constraint, request.node_constraint,
                                record_non_matches=False,
                                deadline=deadline)
        return self._prepared_from_filters(request, filters, self._ordering)

    def _patch_prepared(self, request: SearchRequest,
                        prepared: PreparedSearch, delta) -> Optional[PreparedSearch]:
        return self._patch_filters_prepared(request, prepared, delta,
                                            self._ordering)

    def _root_plan(self, context: SearchContext, prepared: PreparedSearch
                   ) -> Tuple[List[NodeId], int]:
        """The shuffled root trial order plus the subtree-stream base seed.

        Consumes the run's random source exactly twice (one shuffle, one
        64-bit draw) — the single point where serial execution and the
        sharded engine must agree on how the stream is spent.  A per-run rng
        (a plan execute carrying a request seed) wins over the
        construction-time source; both normalise through as_rng, so a fresh
        search and a planned execute with the same seed walk the exact same
        random candidate order.
        """
        rng = context.rng if context.rng is not None else as_rng(self._rng_source)
        plan = prepared.kernel_plan()
        # Decoding yields ascending bit order == the canonical str-sorted
        # order, so the seeded shuffle below sees the same input the
        # set-semantics reference does and reproduces across processes.
        candidates = plan.indexer.decode(kernel.candidates_mask(plan, 0, (), 0))
        rng.shuffle(candidates)
        return candidates, rng.getrandbits(64)

    def _run_prepared(self, context: SearchContext,
                      prepared: PreparedSearch) -> bool:
        from repro.core.parallel import run_specs_serial

        return run_specs_serial(self, context, prepared,
                                self._shard_specs(context, prepared, 1))

    # -- sharding: contiguous slices of the shuffled root order ----------- #

    def _shard_specs(self, context: SearchContext, prepared: PreparedSearch,
                     shards: int) -> List[Tuple[int, List[NodeId], int]]:
        """Split the shuffled root order; the root expansion is counted here
        (once, in the parent), per the base-class statistics convention."""
        from repro.core.parallel import split_contiguous

        context.check_deadline()
        roots, base = self._root_plan(context, prepared)
        context.stats.nodes_expanded += 1
        context.stats.candidates_considered += len(roots)
        if not roots:
            context.stats.backtracks += 1
            return []
        specs: List[Tuple[int, List[NodeId], int]] = []
        start = 0
        for block in split_contiguous(roots, shards):
            specs.append((start, list(block), base))
            start += len(block)
        return specs

    def _run_shard(self, context: SearchContext, prepared: PreparedSearch,
                   spec: Tuple[int, List[NodeId], int]) -> bool:
        """Walk one slice of the root order, one derived rng per subtree."""
        start, hosts, base = spec
        plan = prepared.kernel_plan()
        index_of = plan.indexer.index_of
        for offset, host in enumerate(hosts):
            rng = random.Random(subtree_seed(base, start + offset))
            if not self._walk_subtree(context, plan, index_of(host), rng):
                return False
        return True

    def _walk_subtree(self, context: SearchContext, plan, root_index: int,
                      rng) -> bool:
        """Fig. 5's randomised depth-first walk below one root candidate, as
        an explicit-stack loop over the kernel's candidate cursor.  Returns
        ``False`` iff stopped early (result cap).

        Per node entry (leaves included): one deadline poll; per non-leaf:
        the expansion counted before the emptiness test, a backtrack per
        empty candidate set, and exactly one ``rng.shuffle`` — of the
        ascending host-*index* list, which permutes like the reference
        walk's ``sorted(key=str)`` node list because ``random.shuffle``
        depends only on the sequence length and the rng state.  Candidates
        that fail are implicitly "discarded" by advancing past them, which
        is the paper's per-node discarded list.
        """
        order = plan.order
        host_nodes = plan.host_nodes
        n = plan.n
        stats = context.stats
        cursor = kernel.RwbCursor(plan)
        cursor.place(0, root_index)
        candidate_lists: List[Optional[List[int]]] = [None] * n
        next_pos = [0] * n
        placed = [-1] * n
        placed[0] = root_index
        depth = 1
        entering = True
        while True:
            if entering:
                context.check_deadline()
                if depth == n:
                    mapping: Dict[NodeId, NodeId] = {
                        order[d]: host_nodes[placed[d]] for d in range(n)}
                    if context.record_mapping(mapping):
                        return False
                    depth -= 1
                    entering = False
                    continue
                candidates = cursor.candidates(depth)
                stats.nodes_expanded += 1
                stats.candidates_considered += len(candidates)
                if not candidates:
                    stats.backtracks += 1
                    depth -= 1
                    entering = False
                    continue
                rng.shuffle(candidates)
                candidate_lists[depth] = candidates
                next_pos[depth] = 0
                entering = False
                continue
            if depth < 1:
                return True      # the root subtree is exhausted
            if placed[depth] >= 0:
                cursor.unplace(depth, placed[depth])
                placed[depth] = -1
            position = next_pos[depth]
            candidates = candidate_lists[depth]
            if candidates is None or position >= len(candidates):
                depth -= 1
                continue
            next_pos[depth] = position + 1
            host_index = candidates[position]
            cursor.place(depth, host_index)
            placed[depth] = host_index
            depth += 1
            entering = True

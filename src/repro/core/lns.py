"""LNS — Lazy Neighborhood Search (paper §V-C, Figs. 6–7).

ECF and RWB pay an up-front cost that can be prohibitive for under-constrained
queries over dense hosting networks: the filter matrices are
``O(n · |E_Q| · |E_R|)`` in the worst case.  LNS avoids them entirely by
evaluating constraints lazily, only for the edges that connect the vertex
being placed to the vertices already placed.

The algorithm maintains three sets of *query* vertices:

* **Covered** — already matched (together they form a valid partial mapping);
* **Neighbors** — adjacent to at least one covered vertex;
* **External** — everything else.

It seeds Covered with the highest-degree query vertex (so the covered region
becomes highly connected quickly), then repeatedly:

1. picks from Neighbors the vertex with the most edges into Covered
   (maximising the conjunction of constraints the new placement must satisfy,
   which prunes dead ends as early as possible);
2. tries every hosting node that could host it — i.e. the hosting neighbours
   of the already-assigned images of its covered neighbours — checking the
   topology and the constraint expression for every connecting edge;
3. recurses; when the Neighbors set empties and no External vertices remain,
   the covered set is a complete feasible mapping.

Queries with several connected components are handled by re-seeding on the
highest-degree external vertex whenever Neighbors runs dry.

Correctness and completeness follow the argument of the paper's appendix:
every extension of a promising partial mapping is attempted, so if a feasible
mapping exists some branch of the recursion constructs it.

**Batched lazy checks.**  Step 2's check is still lazy — only (connecting
query edge, placed host) pairs a walk reaches are ever looked at, the filter
matrices are never built and LNS never *causes* a hosting compile — but when
some earlier ECF/RWB build left a :class:`~repro.core.filters.HostingCompile`
on the network (:func:`~repro.core.filters.peek_hosting_compile`), one
vectorizer call over the placed host's arc rows answers the check for all of
its hosting neighbours at once, as an *exists* and a *passed* bitmask
(:class:`~repro.core.filters.LazyEdgeVerdicts`, memoised on the
``PreparedSearch``).  The walk then intersects masks, recurses only into the
surviving hosts in the unchanged trial order, and credits
``constraint_evaluations`` for exactly the hosts the one-at-a-time loop would
have tried before it recursed, stopped or ran out — streams and all four
counters are equal by construction.  The one-at-a-time checks
(:meth:`LNS._connecting_edges_ok`) remain the path whenever there is no
compile to read (always so in a shard worker), the constraint is outside the
vectorizable fragment (``isBoundTo``, strings, division, strict mode) or an
attribute it reads is non-numeric on either side.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.api.registry import Capability, register_algorithm
from repro.api.request import SearchRequest
from repro.core.base import EmbeddingAlgorithm, SearchContext
from repro.core.filters import (compute_node_candidates,
                                peek_hosting_compile, rescreen_nodes)
from repro.core.indexing import NodeIndexer
from repro.core.ordering import lns_next_neighbor
from repro.core.plan import PreparedSearch
from repro.graphs.network import Edge, NodeId
from repro.utils.timing import Deadline


@register_algorithm(
    "LNS",
    capabilities=[
        Capability.COMPLETE_ENUMERATION,
        Capability.DETERMINISTIC,
        Capability.PROVES_INFEASIBILITY,
        Capability.SUPPORTS_DIRECTED,
        Capability.LOW_MEMORY,
    ],
    summary="Lazy neighborhood search (low memory, lazy constraint checks).",
    tags=["core"],
)
class LNS(EmbeddingAlgorithm):
    """Lazy Neighborhood Search.  Candidate hosts are tried in ascending
    dense-index order — the canonical ``sorted(key=str)`` order of
    :class:`~repro.core.indexing.NodeIndexer`."""

    name = "LNS"
    supports_prepare = True
    #: LNS evaluates edge constraints lazily, so its shards ship the
    #: networks and expressions to the workers (the default) — only the
    #: filter-based algorithms can omit them.
    supports_sharding = True

    # ------------------------------------------------------------------ #

    def _prepare(self, request: SearchRequest,
                 deadline: Optional[Deadline] = None) -> PreparedSearch:
        """Stage 1: node screening plus the dense host index.

        LNS has no filter matrices — edge constraints stay lazy — so its
        prepared artifacts are the node-constraint candidate masks and the
        indexer.  The hosting-adjacency memo is created here too and shared
        across executes: it is derived data, filled lazily for hosts a
        partial mapping actually touches, and monotone (safe to share even
        between concurrent executes of the same plan).
        """
        node_allowed = compute_node_candidates(request.query, request.hosting,
                                               request.node_constraint)
        if any(not node_allowed[node] for node in request.query.nodes()):
            return PreparedSearch(infeasible=True)

        # Same bitmask candidate algebra as ECF/RWB: allowed sets and hosting
        # adjacency become masks over the dense host index, so the pruning
        # intersection in the search is a chain of `&`.
        indexer = NodeIndexer(request.hosting.nodes())
        allowed_masks = {node: indexer.encode(hosts)
                         for node, hosts in node_allowed.items()}
        return PreparedSearch(indexer=indexer, allowed_masks=allowed_masks,
                              adjacency_masks={})

    def _patch_prepared(self, request: SearchRequest,
                        prepared: PreparedSearch, delta) -> Optional[PreparedSearch]:
        """Attr-only delta: the dense index and the hosting adjacency are
        untouched; only the node-screening masks can shift, and only on the
        touched hosting nodes.  Edge constraints stay lazy, so the patched
        plan evaluates them against the live attributes exactly as a fresh
        prepare would."""
        indexer = prepared.indexer
        if indexer is None:
            # The old prepare screened out early (infeasible) and kept no
            # artifacts to patch; a fresh LNS prepare is cheap anyway.
            return None
        node_constraint = request.node_constraint
        allowed_masks = dict(prepared.allowed_masks)
        if (node_constraint is not None and not node_constraint.is_trivial
                and delta.touched_nodes):
            rescreen_nodes(request.query, request.hosting, node_constraint,
                           indexer, delta.touched_nodes, allowed_masks)
        if any(not allowed_masks.get(node) for node in request.query.nodes()):
            return PreparedSearch(infeasible=True)
        # The adjacency memo is purely structural (and monotone): safe to
        # keep sharing between the old and the patched plan.  The
        # edge-verdict memo read the old attributes and is not carried over.
        return PreparedSearch(indexer=indexer, allowed_masks=allowed_masks,
                              adjacency_masks=prepared.adjacency_masks)

    def _run_prepared(self, context: SearchContext,
                      prepared: PreparedSearch) -> bool:
        assignment: Dict[NodeId, NodeId] = {}
        covered: List[NodeId] = []
        neighbors: Set[NodeId] = set()
        external: Set[NodeId] = set(context.query.nodes())
        return self._extend(context, prepared,
                            self._edge_lookup(context, prepared), assignment,
                            0, covered, neighbors, external)

    @staticmethod
    def _edge_lookup(context: SearchContext, prepared: PreparedSearch
                     ) -> Optional[Callable]:
        """This run's batched connecting-edge lookup
        (:meth:`LazyEdgeVerdicts.bind <repro.core.filters.LazyEdgeVerdicts.bind>`),
        or ``None`` when the one-at-a-time checks must answer: no hosting
        compile to read — only looked for, never built — or a constraint,
        query or hosting attribute outside the vectorizable fragment."""
        compiled = peek_hosting_compile(context.hosting)
        if compiled is None:
            return None
        verdicts = prepared.edge_verdicts(context.query, context.constraint)
        return None if verdicts is None else verdicts.bind(compiled)

    # -- sharding: contiguous slices of the seed vertex's trial order ------ #

    def _seed_vertex(self, context: SearchContext) -> NodeId:
        """The vertex Covered is seeded with: the highest-degree query vertex."""
        return max(context.query.nodes(),
                   key=lambda n: (context.query.degree(n), str(n)))

    def _shard_specs(self, context: SearchContext, prepared: PreparedSearch,
                     shards: int) -> List[Tuple[NodeId, Tuple[NodeId, ...]]]:
        """Split the seed vertex's candidate order; the seeding expansion is
        counted here (once, in the parent), per the base-class convention."""
        from repro.core.parallel import split_contiguous

        context.check_deadline()
        seed = self._seed_vertex(context)
        hosts = prepared.indexer.decode(prepared.allowed_masks[seed])
        context.stats.nodes_expanded += 1
        context.stats.candidates_considered += len(hosts)
        if not hosts:
            context.stats.backtracks += 1
            return []
        return [(seed, tuple(block)) for block in split_contiguous(hosts, shards)]

    def _run_shard(self, context: SearchContext, prepared: PreparedSearch,
                   spec: Tuple[NodeId, Tuple[NodeId, ...]]) -> bool:
        """Replay the first Covered-seeding expansion over one host slice.

        Mirrors the ``not neighbors and external`` branch of :meth:`_extend`
        exactly — same set evolution, same trial order — but over this
        shard's slice of the candidate hosts, so concatenating the shards
        reproduces the serial stream (the expansion's own statistics were
        counted by :meth:`_shard_specs`).
        """
        current, hosts = spec
        query = context.query
        external = set(query.nodes())
        new_covered = [current]
        new_neighbors = {n for n in query.neighbors(current) if n != current}
        new_external = external - {current} - new_neighbors
        bit_of = prepared.indexer.bit
        lookup = self._edge_lookup(context, prepared)
        assignment: Dict[NodeId, NodeId] = {}
        for host in hosts:
            assignment[current] = host
            keep_going = self._extend(context, prepared, lookup, assignment,
                                      bit_of(host), new_covered, new_neighbors,
                                      new_external)
            del assignment[current]
            if not keep_going:
                return False
        return True

    # ------------------------------------------------------------------ #

    def _adjacency_mask(self, context: SearchContext, indexer: NodeIndexer,
                        adjacency_masks: Dict[NodeId, int], host: NodeId) -> int:
        """The (memoised) bitmask of *host*'s hosting-network neighbours."""
        mask = adjacency_masks.get(host)
        if mask is None:
            mask = indexer.encode(context.hosting.neighbors(host))
            adjacency_masks[host] = mask
        return mask

    def _extend(self, context: SearchContext, prepared: PreparedSearch,
                lookup: Optional[Callable],
                assignment: Dict[NodeId, NodeId], used_mask: int,
                covered: List[NodeId], neighbors: Set[NodeId],
                external: Set[NodeId]) -> bool:
        """Recursive step 5–16 of Fig. 7.  Returns ``False`` iff stopped early.

        *lookup* is the run's batched edge check (:meth:`_edge_lookup`) or
        ``None`` for the one-at-a-time checks.
        """
        context.check_deadline()
        indexer = prepared.indexer
        allowed_masks = prepared.allowed_masks

        if not neighbors:
            if not external:
                # All query vertices are covered: a complete feasible mapping.
                stop = context.record_mapping(dict(assignment))
                return not stop
            # Seed a new connected component with its highest-degree vertex.
            current = max(external,
                          key=lambda n: (context.query.degree(n), str(n)))
            candidates_mask = allowed_masks[current] & ~used_mask
            connecting: List[Tuple[NodeId, NodeId]] = []
        else:
            current = lns_next_neighbor(context.query, covered, neighbors)
            connecting = [(neighbor, assignment[neighbor])
                          for neighbor in context.query.neighbors(current)
                          if neighbor in assignment]
            # Any feasible host for `current` must be a hosting neighbour of
            # the image of each covered neighbour; intersecting adjacency
            # masks before any constraint evaluation is the "lazy" pruning
            # step.
            # Seeding with the bounded all-hosts mask (rather than -1) keeps
            # every intermediate value a non-negative, width-limited int —
            # the same invariant the word-array mask tables rely on.
            candidates_mask = indexer.full_mask
            for _, host in connecting:
                candidates_mask &= self._adjacency_mask(
                    context, indexer, prepared.adjacency_masks, host)
                if not candidates_mask:
                    break
            candidates_mask &= allowed_masks[current] & ~used_mask

        context.stats.nodes_expanded += 1
        context.stats.candidates_considered += candidates_mask.bit_count()

        if not candidates_mask:
            context.stats.backtracks += 1
            return True

        query_edges = self._query_edges_to_covered(context, current, connecting)

        new_covered = covered + [current]
        new_neighbors = (neighbors | {n for n in context.query.neighbors(current)
                                      if n in external and n != current}) - {current}
        new_external = external - {current} - new_neighbors

        if lookup is None:
            passing = (host for host in indexer.decode(candidates_mask)
                       if self._connecting_edges_ok(context, query_edges,
                                                    assignment, current, host))
        else:
            passing = self._passing_hosts(context, prepared, lookup,
                                          query_edges, assignment, current,
                                          candidates_mask)
        bit_of = indexer.bit
        for host in passing:
            assignment[current] = host
            keep_going = self._extend(context, prepared, lookup, assignment,
                                      used_mask | bit_of(host),
                                      new_covered, new_neighbors, new_external)
            del assignment[current]
            if not keep_going:
                return False
        return True

    def _passing_hosts(self, context: SearchContext, prepared: PreparedSearch,
                       lookup: Callable, query_edges: List[Edge],
                       assignment: Dict[NodeId, NodeId], current: NodeId,
                       candidates_mask: int) -> Iterator[NodeId]:
        """Step 7–8 of Fig. 7 as mask algebra: the candidates every
        connecting edge supports, in trial order.

        Equal to filtering the trial order through
        :meth:`_connecting_edges_ok`, counters included: a candidate is
        evaluated against an edge iff it survived the edges before it and the
        hosting arc exists (``alive & exists``), and those evaluations are
        credited only once the one-at-a-time loop would have made them — for
        the candidates tried up to each host handed out, and for the rest
        when the list runs out.  A consumer that stops early (result cap,
        deadline) therefore leaves the untried candidates uncounted.
        """
        indexer = prepared.indexer
        alive = candidates_mask
        evaluated: List[int] = []
        for q_source, q_target in query_edges:
            placed_is_source = q_source != current
            placed = assignment[q_source if placed_is_source else q_target]
            exists, passed = lookup(q_source, q_target,
                                    indexer.index_of(placed), placed_is_source)
            alive &= exists
            evaluated.append(alive)
            alive &= passed
            if not alive:
                break   # no candidate reaches the remaining edges
        if context.constraint.is_trivial:
            evaluated = []   # existence only: nothing is evaluated

        stats = context.stats
        credited = 0
        for index in indexer.iter_indices(alive):
            tried = (2 << index) - 1    # every candidate up to this host
            total = sum((mask & tried).bit_count() for mask in evaluated)
            stats.constraint_evaluations += total - credited
            credited = total
            yield indexer.node_at(index)
        stats.constraint_evaluations += (
            sum(mask.bit_count() for mask in evaluated) - credited)

    # ------------------------------------------------------------------ #

    @staticmethod
    def _query_edges_to_covered(context: SearchContext, current: NodeId,
                                connecting: List[Tuple[NodeId, NodeId]]) -> List[Edge]:
        """The actual query edges between *current* and its covered neighbours.

        For undirected queries there is one edge per covered neighbour; for
        directed queries there may be one in each direction, and each must be
        checked in its own orientation.
        """
        query = context.query
        edges: List[Edge] = []
        for neighbor, _host in connecting:
            if query.has_edge(neighbor, current):
                edges.append((neighbor, current))
            if query.directed and query.has_edge(current, neighbor):
                edges.append((current, neighbor))
            if not query.directed and not query.has_edge(neighbor, current) \
                    and query.has_edge(current, neighbor):
                edges.append((current, neighbor))
        return edges

    @staticmethod
    def _connecting_edges_ok(context: SearchContext, query_edges: List[Edge],
                             assignment: Dict[NodeId, NodeId],
                             current: NodeId, host: NodeId) -> bool:
        """Step 7–8 of Fig. 7: every connecting edge must be supported and
        satisfied — one candidate, one edge at a time.  The orientation and
        existence rule applied here (through
        :meth:`SearchContext.query_edge_supported`) is written in array form
        in :func:`repro.core.filters._placed_host_arcs`, which the batched
        path (:meth:`_passing_hosts`) reads."""
        for q_source, q_target in query_edges:
            r_source = host if q_source == current else assignment[q_source]
            r_target = host if q_target == current else assignment[q_target]
            if not context.query_edge_supported(q_source, q_target, r_source, r_target):
                return False
        return True

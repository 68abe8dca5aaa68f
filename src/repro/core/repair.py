"""Embedding repair under network churn: fix a mapping, don't re-embed it.

A reserved embedding keeps running while the hosting network drifts
underneath it — delays jitter, load moves, nodes go down.  When the drift
breaks the mapping (a hosting edge leaves the requested delay window, a host
fails ``rNode.up == true``), re-running the full search throws away every
still-valid placement.  This module repairs instead: it re-validates the
mapping against the current model, *releases only the violated assignments*,
and re-places them with an LNS-style local search that keeps every other
assignment pinned.

The search mirrors LNS's heuristics (paper §V-C): released vertices are
re-placed most-constrained-first (most edges into the already-assigned
region), candidate hosts come from the intersection of the hosting
neighbourhoods of the assigned neighbours' images, and every connecting edge
is checked lazily.  When the released set cannot be re-placed, the
neighbourhood *ripples outward* — the released region grows by its query
neighbours and the search retries — degrading gracefully to a full re-embed
(every vertex released) before reporting failure, so a ``failed`` repair of a
connected query really means the query no longer embeds at all under the
pinned-free relaxation.

Repaired mappings satisfy exactly the same validity oracle as fresh
embeddings (:func:`~repro.core.mapping.validate_mapping`), which the test
suite asserts property-style under randomised churn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.constraints import ConstraintExpression, edge_context, node_context
from repro.core.base import hosting_orientation
from repro.core.mapping import Mapping, MappingViolation, validate_mapping
from repro.graphs.hosting import HostingNetwork
from repro.graphs.network import Edge, NodeId
from repro.graphs.query import QueryNetwork
from repro.utils.timing import Deadline, Stopwatch, TimeoutExpired

#: Candidate filter hook: ``(query node, hosting node) -> bool``.  The service
#: uses it to keep repairs inside spare reservation capacity.
CandidateFilter = Callable[[NodeId, NodeId], bool]


@dataclass
class RepairStats:
    """Work counters of one repair run (same vocabulary as SearchStats)."""

    nodes_expanded: int = 0
    candidates_considered: int = 0
    backtracks: int = 0
    constraint_evaluations: int = 0


@dataclass
class RepairResult:
    """Outcome of :func:`repair_mapping`.

    ``status`` is one of:

    * ``"intact"`` — the mapping still validates; nothing was touched;
    * ``"repaired"`` — a valid mapping was rebuilt; see :attr:`moved`;
    * ``"failed"`` — no valid mapping exists even with every vertex released;
    * ``"timeout"`` — the budget expired before a verdict.
    """

    status: str
    original: Mapping
    mapping: Optional[Mapping]
    #: What the re-validation found before any repair was attempted.
    violations: List[MappingViolation] = field(default_factory=list)
    #: Query nodes directly implicated in the violations.
    violated_nodes: List[NodeId] = field(default_factory=list)
    #: Query nodes whose assignment was released for re-placement (grows
    #: with each ripple round; superset of :attr:`violated_nodes`).
    released_nodes: List[NodeId] = field(default_factory=list)
    #: Ripple rounds attempted (1 = the violated set alone sufficed).
    rounds: int = 0
    elapsed_seconds: float = 0.0
    stats: RepairStats = field(default_factory=RepairStats)

    @property
    def ok(self) -> bool:
        """Whether a valid mapping is in hand (intact or repaired)."""
        return self.status in ("intact", "repaired")

    @property
    def moved(self) -> Dict[NodeId, Tuple[NodeId, NodeId]]:
        """Query nodes whose host actually changed: ``{q: (old, new)}``."""
        if self.mapping is None:
            return {}
        old = self.original.as_dict()
        return {q: (old.get(q), r) for q, r in self.mapping.items()
                if old.get(q) != r}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RepairResult {self.status}: {len(self.moved)} moved / "
                f"{len(self.released_nodes)} released in {self.rounds} round(s)>")


def violated_query_nodes(mapping: Mapping, query: QueryNetwork,
                         hosting: HostingNetwork,
                         constraint: Optional[ConstraintExpression] = None,
                         node_constraint: Optional[ConstraintExpression] = None,
                         ) -> Set[NodeId]:
    """The query nodes directly implicated in a mapping's violations.

    The node-level restatement of :func:`~repro.core.mapping.validate_mapping`:
    unmapped nodes, nodes on missing/failing hosts, both endpoints of every
    unsupported or constraint-violating edge, and all parties to an
    injectivity collision.  Empty set == the mapping is valid.
    """
    assignment = {q: r for q, r in mapping.items() if query.has_node(q)}
    violated: Set[NodeId] = set(query.nodes()) - set(assignment)

    by_host: Dict[NodeId, List[NodeId]] = {}
    for query_node, host in assignment.items():
        by_host.setdefault(host, []).append(query_node)
        if not hosting.has_node(host):
            violated.add(query_node)
            continue
        if node_constraint is not None and not node_constraint.is_trivial:
            if not node_constraint.evaluate(
                    node_context(query, query_node, hosting, host)):
                violated.add(query_node)
    for host, holders in by_host.items():
        if len(holders) > 1:
            violated.update(holders)

    check_constraint = constraint is not None and not constraint.is_trivial
    for q_source, q_target in query.edges():
        if q_source not in assignment or q_target not in assignment:
            continue
        r_source, r_target = assignment[q_source], assignment[q_target]
        if not hosting.has_node(r_source) or not hosting.has_node(r_target):
            continue   # already violated above
        oriented = hosting_orientation(hosting, r_source, r_target)
        if oriented is None:
            violated.update((q_source, q_target))
            continue
        if check_constraint and not constraint.evaluate(
                edge_context(query, (q_source, q_target), hosting, oriented)):
            violated.update((q_source, q_target))
    return violated


def repair_mapping(query: QueryNetwork, hosting: HostingNetwork,
                   mapping: Mapping,
                   constraint: Optional[ConstraintExpression] = None,
                   node_constraint: Optional[ConstraintExpression] = None,
                   timeout: Optional[float] = None,
                   max_rounds: Optional[int] = None,
                   candidate_ok: Optional[CandidateFilter] = None
                   ) -> RepairResult:
    """Re-validate *mapping* against the live model and repair it in place.

    Parameters
    ----------
    query, hosting, constraint, node_constraint:
        The embedding problem the mapping was an answer to, evaluated
        against the hosting network's *current* attributes.
    mapping:
        The (possibly broken) embedding to repair.
    timeout:
        Wall-clock budget in seconds (``None`` = unlimited); expiry yields
        ``status="timeout"``.
    max_rounds:
        Cap on ripple rounds (``None`` = keep growing until every query
        node is released).  With a cap, exhausting it reports ``failed``
        even though a wider release might have succeeded.
    candidate_ok:
        Optional per-(query node, hosting node) veto, e.g. "has spare
        reservation capacity".  Hosts already used by *mapping* should be
        accepted by the filter or the repair may needlessly fail.
    """
    stopwatch = Stopwatch().start()
    deadline = Deadline(timeout)
    violations = validate_mapping(mapping, query, hosting, constraint,
                                  node_constraint)
    if not violations:
        return RepairResult(status="intact", original=mapping, mapping=mapping,
                            elapsed_seconds=stopwatch.stop())

    violated = violated_query_nodes(mapping, query, hosting, constraint,
                                    node_constraint)
    original = {q: r for q, r in mapping.items() if query.has_node(q)}
    stats = RepairStats()
    released = set(violated)
    rounds = 0
    status = "failed"
    repaired: Optional[Mapping] = None
    try:
        while True:
            rounds += 1
            assignment = _reassign(query, hosting, original, released,
                                   constraint, node_constraint, candidate_ok,
                                   deadline, stats)
            if assignment is not None:
                repaired = Mapping(assignment)
                status = "repaired"
                break
            if max_rounds is not None and rounds >= max_rounds:
                break
            # Ripple outward: free the query neighbours of the released
            # region; once a component saturates, free everything (an
            # injectivity conflict can sit in another component).
            grown = released | {neighbor for node in released
                                for neighbor in query.neighbors(node)}
            if grown == released:
                grown = set(query.nodes())
            if grown == released:
                break
            released = grown
    except TimeoutExpired:
        status = "timeout"

    return RepairResult(status=status, original=mapping, mapping=repaired,
                        violations=violations,
                        violated_nodes=sorted(violated, key=str),
                        released_nodes=sorted(released, key=str),
                        rounds=rounds, elapsed_seconds=stopwatch.stop(),
                        stats=stats)


# --------------------------------------------------------------------------- #
# The pinned-region local search
# --------------------------------------------------------------------------- #

def _reassign(query: QueryNetwork, hosting: HostingNetwork,
              original: Dict[NodeId, NodeId], released: Set[NodeId],
              constraint: Optional[ConstraintExpression],
              node_constraint: Optional[ConstraintExpression],
              candidate_ok: Optional[CandidateFilter],
              deadline: Deadline, stats: RepairStats
              ) -> Optional[Dict[NodeId, NodeId]]:
    """Re-place *released* with everything else pinned; ``None`` on failure."""
    pinned = {q: r for q, r in original.items() if q not in released}
    order = _placement_order(query, released, set(pinned))

    assignment = dict(pinned)
    used = set(pinned.values())
    check_constraint = constraint is not None and not constraint.is_trivial
    check_node = node_constraint is not None and not node_constraint.is_trivial

    def candidates_for(node: NodeId) -> List[NodeId]:
        assigned_neighbors = [n for n in query.neighbors(node) if n in assignment]
        pool: Optional[Set[NodeId]] = None
        for neighbor in assigned_neighbors:
            adjacent = set(hosting.neighbors(assignment[neighbor]))
            pool = adjacent if pool is None else pool & adjacent
            if not pool:
                return []
        hosts = hosting.nodes() if pool is None else pool
        # Prefer the host the node already held: a repair should disturb as
        # little as possible, and the original host is often still fine for
        # nodes released only by the ripple expansion.
        prev = original.get(node)
        ordered = sorted(hosts, key=lambda h: (h != prev, str(h)))
        result = []
        for host in ordered:
            if host in used:
                continue
            if candidate_ok is not None and not candidate_ok(node, host):
                continue
            if check_node:
                stats.constraint_evaluations += 1
                if not node_constraint.evaluate(
                        node_context(query, node, hosting, host)):
                    continue
            if not _edges_ok(node, host):
                continue
            result.append(host)
        return result

    def _edges_ok(node: NodeId, host: NodeId) -> bool:
        for q_source, q_target in _incident_edges(query, node, assignment):
            r_source = host if q_source == node else assignment[q_source]
            r_target = host if q_target == node else assignment[q_target]
            oriented = hosting_orientation(hosting, r_source, r_target)
            if oriented is None:
                return False
            if check_constraint:
                stats.constraint_evaluations += 1
                if not constraint.evaluate(edge_context(
                        query, (q_source, q_target), hosting, oriented)):
                    return False
        return True

    def extend(index: int) -> bool:
        if index == len(order):
            return True
        deadline.check()
        node = order[index]
        candidates = candidates_for(node)
        stats.nodes_expanded += 1
        stats.candidates_considered += len(candidates)
        for host in candidates:
            assignment[node] = host
            used.add(host)
            if extend(index + 1):
                return True
            del assignment[node]
            used.discard(host)
        stats.backtracks += 1
        return False

    return assignment if extend(0) else None


def _placement_order(query: QueryNetwork, released: Set[NodeId],
                     assigned: Set[NodeId]) -> List[NodeId]:
    """Most-constrained-first: maximise edges into the assigned region.

    The LNS expansion heuristic applied to the released set — each pick
    maximises the conjunction of connecting-edge constraints the placement
    must satisfy, pruning dead ends as early as possible.  Deterministic
    tie-breaks (degree, then id) keep repairs reproducible.
    """
    order: List[NodeId] = []
    placed = set(assigned)
    remaining = set(released)
    while remaining:
        node = max(remaining,
                   key=lambda n: (sum(1 for nb in query.neighbors(n)
                                      if nb in placed),
                                  query.degree(n), str(n)))
        order.append(node)
        placed.add(node)
        remaining.remove(node)
    return order


def _incident_edges(query: QueryNetwork, node: NodeId,
                    assignment: Dict[NodeId, NodeId]) -> List[Edge]:
    """Query edges between *node* and currently-assigned nodes, oriented as
    stored (one per direction for directed queries, cf. LNS)."""
    edges: List[Edge] = []
    for neighbor in query.neighbors(node):
        if neighbor not in assignment:
            continue
        if query.has_edge(neighbor, node):
            edges.append((neighbor, node))
        if query.has_edge(node, neighbor) and (
                query.directed or not query.has_edge(neighbor, node)):
            edges.append((node, neighbor))
    return edges

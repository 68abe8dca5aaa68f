"""Mappings (embeddings) of query nodes onto hosting nodes.

A *mapping* (paper §IV) is a one-to-one function from the query network's
nodes to the hosting network's nodes such that every query edge lands on an
existing hosting edge and all node/edge constraints are satisfied.  The
:class:`Mapping` class is the value object returned by every search
algorithm; :func:`validate_mapping` is the independent checker used by the
test suite and by the service layer before reserving resources.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping as TMapping, Optional, Tuple

from repro.constraints import ConstraintExpression, edge_context, node_context
from repro.graphs.network import Edge, Network, NodeId


@dataclass(frozen=True)
class Mapping:
    """An immutable query-node → hosting-node assignment.

    Attributes
    ----------
    assignment:
        The node assignment as a plain dict (copied and never mutated).
    """

    assignment: TMapping[NodeId, NodeId]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", dict(self.assignment))

    # -- mapping protocol ------------------------------------------------ #

    def __getitem__(self, query_node: NodeId) -> NodeId:
        return self.assignment[query_node]

    def __contains__(self, query_node: NodeId) -> bool:
        return query_node in self.assignment

    def __len__(self) -> int:
        return len(self.assignment)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.assignment)

    def items(self) -> Iterator[Tuple[NodeId, NodeId]]:
        """Iterate over (query node, hosting node) pairs."""
        return iter(self.assignment.items())

    def query_nodes(self) -> List[NodeId]:
        """The query nodes covered by this mapping."""
        return list(self.assignment.keys())

    def hosting_nodes(self) -> List[NodeId]:
        """The hosting nodes used by this mapping."""
        return list(self.assignment.values())

    def is_injective(self) -> bool:
        """Whether no two query nodes share a hosting node."""
        values = list(self.assignment.values())
        return len(values) == len(set(values))

    def as_dict(self) -> Dict[NodeId, NodeId]:
        """A plain-dict copy of the assignment."""
        return dict(self.assignment)

    def restricted_to(self, query_nodes) -> "Mapping":
        """The sub-mapping covering only *query_nodes*."""
        keep = set(query_nodes)
        return Mapping({q: r for q, r in self.assignment.items() if q in keep})

    # -- equality is structural (dict equality), hash on frozen items ----- #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return dict(self.assignment) == dict(other.assignment)

    def __hash__(self) -> int:
        return hash(frozenset(self.assignment.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pairs = ", ".join(f"{q}->{r}" for q, r in sorted(self.assignment.items(), key=lambda p: str(p[0])))
        return f"Mapping({pairs})"


@dataclass
class MappingViolation:
    """A single reason a mapping is invalid (produced by :func:`validate_mapping`)."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


def validate_mapping(mapping: Mapping, query: Network, hosting: Network,
                     constraint: Optional[ConstraintExpression] = None,
                     node_constraint: Optional[ConstraintExpression] = None,
                     ) -> List[MappingViolation]:
    """Independently check a mapping against the definition in §IV.

    Returns a (possibly empty) list of violations.  The checker is written
    directly from the problem definition and shares no code with the search
    algorithms, so it can serve as their correctness oracle.
    """
    violations: List[MappingViolation] = []
    assignment = mapping.as_dict()

    missing = set(query.nodes()) - set(assignment.keys())
    if missing:
        violations.append(MappingViolation(
            "coverage", f"query nodes not mapped: {sorted(map(str, missing))}"))

    extra = set(assignment.keys()) - set(query.nodes())
    if extra:
        violations.append(MappingViolation(
            "coverage", f"mapping covers unknown query nodes: {sorted(map(str, extra))}"))

    if not mapping.is_injective():
        violations.append(MappingViolation(
            "injectivity", "two query nodes map to the same hosting node"))

    for query_node, hosting_node in assignment.items():
        if not hosting.has_node(hosting_node):
            violations.append(MappingViolation(
                "node", f"{query_node!r} maps to non-existent hosting node {hosting_node!r}"))

    for q_source, q_target in query.edges():
        if q_source not in assignment or q_target not in assignment:
            continue
        r_source, r_target = assignment[q_source], assignment[q_target]
        if not hosting.has_node(r_source) or not hosting.has_node(r_target):
            continue
        oriented = _hosting_orientation(hosting, r_source, r_target)
        if oriented is None:
            violations.append(MappingViolation(
                "topology",
                f"query edge ({q_source!r}, {q_target!r}) maps to "
                f"({r_source!r}, {r_target!r}) which is not a hosting edge"))
            continue
        if constraint is not None and not constraint.is_trivial:
            context = edge_context(query, (q_source, q_target), hosting, oriented)
            if not constraint.evaluate(context):
                violations.append(MappingViolation(
                    "constraint",
                    f"query edge ({q_source!r}, {q_target!r}) on hosting edge "
                    f"{oriented!r} violates {constraint.source!r}"))

    if node_constraint is not None and not node_constraint.is_trivial:
        for query_node, hosting_node in assignment.items():
            if not hosting.has_node(hosting_node):
                continue
            if not node_constraint.evaluate(
                    node_context(query, query_node, hosting, hosting_node)):
                violations.append(MappingViolation(
                    "node-constraint",
                    f"{query_node!r} -> {hosting_node!r} violates "
                    f"{node_constraint.source!r}"))

    return violations


def is_valid_mapping(mapping: Mapping, query: Network, hosting: Network,
                     constraint: Optional[ConstraintExpression] = None,
                     node_constraint: Optional[ConstraintExpression] = None) -> bool:
    """Whether :func:`validate_mapping` finds no violations."""
    return not validate_mapping(mapping, query, hosting, constraint, node_constraint)


def _hosting_orientation(hosting: Network, r_source: NodeId, r_target: NodeId
                         ) -> Optional[Edge]:
    """The hosting edge orientation a query edge maps onto, or ``None``.

    The oracle's own statement of the rule: :func:`validate_mapping` judges
    what the search algorithms and mapping repair produce, so it shares no
    code with them (their copy is :func:`repro.core.base.hosting_orientation`).
    Directed hosting networks require the edge ``r_source -> r_target``;
    undirected ones accept either stored orientation and report it as
    ``(r_source, r_target)`` because edge attributes are shared.
    """
    if hosting.has_edge(r_source, r_target):
        return (r_source, r_target)
    if not hosting.directed and hosting.has_edge(r_target, r_source):
        return (r_source, r_target)
    return None

"""The query (virtual) network: what an application asks to instantiate.

A :class:`QueryNetwork` is a :class:`~repro.graphs.network.Network` whose
node and edge attributes express *requirements* rather than measurements:
requested link delays, required operating systems, explicit bindings to
particular hosting nodes (the ``bindTo`` idiom of §VI-B), and so on.

It adds the orderings and structural accessors the three NETEMBED search
algorithms rely on:

* the degree-descending ordering used by LNS to seed and grow the Covered set;
* the edge lists incident to a node restricted to already-placed nodes, which
  is the conjunction of constraints the paper's expression (2) intersects;
* feasibility sanity checks (a query larger than the host can never embed).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.graphs.network import Edge, Network, NodeId


class QueryNetwork(Network):
    """The virtual topology (with constraints) to embed into a hosting network."""

    # ------------------------------------------------------------------ #
    # Structural orderings used by the algorithms
    # ------------------------------------------------------------------ #

    def nodes_by_degree(self, descending: bool = True) -> List[NodeId]:
        """Query nodes sorted by degree.

        LNS picks the *highest*-degree node first (heuristic 1 of §V-C) so
        the Covered set quickly becomes highly connected; the default is
        therefore descending order.  Ties are broken by node id (as strings)
        to keep runs deterministic.
        """
        return sorted(self.nodes(),
                      key=lambda n: (-self.degree(n) if descending else self.degree(n),
                                     str(n)))

    def edges_to_placed(self, node: NodeId, placed: Iterable[NodeId]) -> List[Edge]:
        """Edges from *node* to nodes already in *placed* (as (placed, node) pairs).

        This is the set of "connecting edges" of LNS step 6 and the index set
        of the intersection in ECF's expression (2).
        """
        placed_set = set(placed)
        edges: List[Edge] = []
        for neighbor in self.neighbors(node):
            if neighbor in placed_set:
                edges.append((neighbor, node))
        return edges

    def neighbors_in(self, node: NodeId, pool: Iterable[NodeId]) -> List[NodeId]:
        """Neighbors of *node* restricted to *pool*."""
        pool_set = set(pool)
        return [n for n in self.neighbors(node) if n in pool_set]

    # ------------------------------------------------------------------ #
    # Requirement accessors
    # ------------------------------------------------------------------ #

    def bound_nodes(self, attribute: str = "bindTo") -> Dict[NodeId, object]:
        """Query nodes carrying an explicit binding requirement.

        §VI-B's ``isBoundTo(vSource.bindTo, rSource.name)`` idiom: the query
        node attribute ``bindTo`` names the hosting node it must map to.
        Returns a mapping query-node -> required hosting-node name.
        """
        return {node: attrs[attribute]
                for node in self.nodes()
                if (attrs := self.node_attrs(node)) and attribute in attrs}

    def required_node_attributes(self) -> Dict[NodeId, Dict[str, object]]:
        """All node attribute requirements, keyed by query node."""
        return {node: dict(self.node_attrs(node)) for node in self.nodes()}

    def requested_edge_attribute(self, name: str) -> Dict[Edge, object]:
        """Mapping of each query edge to its requested value of *name* (if set)."""
        requested = {}
        for u, v in self.edges():
            value = self.get_edge_attr(u, v, name)
            if value is not None:
                requested[(u, v)] = value
        return requested

    # ------------------------------------------------------------------ #
    # Feasibility pre-checks
    # ------------------------------------------------------------------ #

    def obviously_infeasible_reasons(self, hosting: Network) -> List[str]:
        """Cheap necessary-condition checks before any search is attempted.

        Returns a list of human-readable reasons the query can never embed in
        *hosting* (empty list means "not obviously infeasible").  These checks
        are sound: they only reject queries for which no injective,
        edge-preserving mapping can exist regardless of attribute constraints.
        """
        reasons: List[str] = []
        if self.num_nodes > hosting.num_nodes:
            reasons.append(
                f"query has {self.num_nodes} nodes but the hosting network only "
                f"has {hosting.num_nodes}")
        if self.num_edges > hosting.num_edges and not hosting.directed:
            reasons.append(
                f"query has {self.num_edges} edges but the hosting network only "
                f"has {hosting.num_edges}")
        if self.num_nodes > 0 and hosting.num_nodes > 0:
            max_query_degree = self.max_degree()
            max_host_degree = hosting.max_degree()
            if max_query_degree > max_host_degree:
                reasons.append(
                    f"query has a node of degree {max_query_degree} but the maximum "
                    f"hosting degree is {max_host_degree}")
        return reasons

    def is_obviously_infeasible(self, hosting: Network) -> bool:
        """Whether any necessary condition for embeddability is violated."""
        return bool(self.obviously_infeasible_reasons(hosting))

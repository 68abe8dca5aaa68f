"""The attributed network model shared by hosting and query networks.

A :class:`Network` is a thin, domain-oriented layer over
:class:`networkx.Graph` (or :class:`networkx.DiGraph` for directed
infrastructures).  It adds:

* an :class:`~repro.graphs.attributes.AttributeSchema` describing the typed
  node and edge attributes (so GraphML round-trips preserve types);
* convenient accessors used heavily by the search algorithms
  (:meth:`node_attrs`, :meth:`edge_attrs`, :meth:`neighbors`, :meth:`degree`)
  that avoid repeatedly constructing networkx views in the inner loops;
* validation helpers and a consistent error model.

Node identifiers may be any hashable value; the generators in
:mod:`repro.topology` use strings (e.g. ``"site03"``) or integers.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

import networkx as nx

from repro.graphs.attributes import AttributeSchema, infer_schema
from repro.graphs.errors import DuplicateNodeError, GraphError, MissingNodeError
from repro.graphs.journal import (
    EDGE_ADDED,
    EDGE_ATTRS,
    EDGE_REMOVED,
    NODE_ADDED,
    NODE_ATTRS,
    NODE_REMOVED,
    MutationJournal,
    NetworkDelta,
)

NodeId = Hashable
Edge = Tuple[NodeId, NodeId]


class Network:
    """An attributed graph: the common base of hosting and query networks.

    Parameters
    ----------
    name:
        Human-readable name (carried into GraphML and experiment reports).
    directed:
        Whether edges are directed.  The paper treats PlanetLab and BRITE
        topologies as undirected; directed graphs are supported because the
        filter-update rule in §V-A footnote 3 distinguishes the two cases.
    schema:
        Optional attribute schema.  When omitted, a schema is inferred lazily
        whenever one is needed (e.g. when writing GraphML).
    """

    def __init__(self, name: str = "network", directed: bool = False,
                 schema: Optional[AttributeSchema] = None) -> None:
        self.name = name
        self._graph: nx.Graph = nx.DiGraph() if directed else nx.Graph()
        self._schema = schema
        #: Per-node neighbour lists, filled lazily by :meth:`neighbors` and
        #: invalidated by the mutators below.  The search algorithms call
        #: ``neighbors`` once per expansion step, and for directed graphs the
        #: uncached version built two sets and a union every time.
        self._adjacency: Dict[NodeId, List[NodeId]] = {}
        #: Maximum degree and edge count, filled lazily by :meth:`max_degree`
        #: / :attr:`num_edges` (networkx walks every node for either) and
        #: dropped by the structural mutators only: the feasibility screen
        #: reads both on every request, attribute churn moves neither.
        self._max_degree: Optional[int] = None
        self._num_edges: Optional[int] = None
        #: Monotonic mutation epoch, bumped by every mutator.  Compiled
        #: artifacts derived from this network (hosting compiles, embedding
        #: plans) record the epoch they were built at, so a staleness check
        #: is a single integer comparison instead of a structural diff.
        self._mutation_count: int = 0
        #: Bounded structured history of mutations (what changed, not just
        #: how often).  Consumed by the incremental recompile paths via
        #: :meth:`delta_since`; overflow simply degrades them to a full
        #: rebuild.
        self._journal = MutationJournal()

    # ------------------------------------------------------------------ #
    # Pickling
    # ------------------------------------------------------------------ #

    #: Derived, per-process caches memoised on the instance by other layers
    #: (the hosting compile, the request fingerprint digest).  They are
    #: rebuilt on demand, so pickling — notably shipping networks to the
    #: shard workers of :mod:`repro.core.parallel` — drops them to keep the
    #: payload lean and free of cross-process aliasing.
    _DERIVED_CACHE_ATTRS = ("_hosting_compile", "_structure_digest")

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["_adjacency"] = {}
        state["_max_degree"] = state["_num_edges"] = None
        # The journal is history, not state: a deserialized copy (a shard
        # worker's network) must not claim to know deltas it never saw, so
        # it ships empty with its floor at the current epoch.
        state["_journal"] = MutationJournal(
            capacity=self._journal.capacity,
            floor_epoch=self._mutation_count)
        for attr in self._DERIVED_CACHE_ATTRS:
            state.pop(attr, None)
        return state

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_node(self, node: NodeId, **attrs: Any) -> NodeId:
        """Add *node* with the given attributes.

        Raises
        ------
        DuplicateNodeError
            If the node already exists (silently merging attributes would
            hide workload-generation bugs).
        """
        if node in self._graph:
            raise DuplicateNodeError(f"node {node!r} already exists in {self.name!r}")
        self._graph.add_node(node, **attrs)
        self._max_degree = self._num_edges = None
        self._record_mutation(NODE_ADDED, (node,))
        return node

    def add_edge(self, u: NodeId, v: NodeId, **attrs: Any) -> Edge:
        """Add an edge between existing nodes *u* and *v* with attributes."""
        for endpoint in (u, v):
            if endpoint not in self._graph:
                raise MissingNodeError(f"node {endpoint!r} does not exist in {self.name!r}")
        if u == v:
            raise GraphError(f"self-loop {u!r} is not a meaningful embedding target")
        self._graph.add_edge(u, v, **attrs)
        self._adjacency.pop(u, None)
        self._adjacency.pop(v, None)
        self._max_degree = self._num_edges = None
        self._record_mutation(EDGE_ADDED, (u, v))
        return (u, v)

    def update_node(self, node: NodeId, **attrs: Any) -> None:
        """Merge *attrs* into an existing node's attribute dict."""
        if node not in self._graph:
            raise MissingNodeError(f"node {node!r} does not exist in {self.name!r}")
        self._graph.nodes[node].update(attrs)
        self._record_mutation(NODE_ATTRS, (node,), tuple(attrs))

    def update_edge(self, u: NodeId, v: NodeId, **attrs: Any) -> None:
        """Merge *attrs* into an existing edge's attribute dict."""
        if not self._graph.has_edge(u, v):
            raise MissingNodeError(f"edge ({u!r}, {v!r}) does not exist in {self.name!r}")
        self._graph.edges[u, v].update(attrs)
        self._record_mutation(EDGE_ATTRS, (u, v), tuple(attrs))

    def remove_node(self, node: NodeId) -> None:
        """Remove *node* and its incident edges."""
        if node not in self._graph:
            raise MissingNodeError(f"node {node!r} does not exist in {self.name!r}")
        self._graph.remove_node(node)
        # Every former neighbour's adjacency changed; drop the whole cache.
        self._adjacency.clear()
        self._max_degree = self._num_edges = None
        self._record_mutation(NODE_REMOVED, (node,))

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        """Remove the edge between *u* and *v*."""
        if not self._graph.has_edge(u, v):
            raise MissingNodeError(f"edge ({u!r}, {v!r}) does not exist in {self.name!r}")
        self._graph.remove_edge(u, v)
        self._adjacency.pop(u, None)
        self._adjacency.pop(v, None)
        self._max_degree = self._num_edges = None
        self._record_mutation(EDGE_REMOVED, (u, v))

    def _record_mutation(self, kind: str, subject: Tuple[NodeId, ...],
                         attrs: Tuple[str, ...] = ()) -> None:
        """Bump the epoch and journal one mutation (every mutator funnels here)."""
        self._mutation_count += 1
        self._journal.record(self._mutation_count, kind, subject, attrs)

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    @property
    def directed(self) -> bool:
        """Whether this network's edges are directed."""
        return self._graph.is_directed()

    @property
    def mutation_count(self) -> int:
        """Monotonic count of mutations applied through the mutator methods.

        Mutating the raw :attr:`graph` handle bypasses the counter, exactly
        as it bypasses the adjacency-cache invalidation — use the
        :class:`Network` mutators.
        """
        return self._mutation_count

    @property
    def mutation_journal(self) -> MutationJournal:
        """The bounded structured history behind :meth:`delta_since`."""
        return self._journal

    def delta_since(self, epoch: int) -> Optional[NetworkDelta]:
        """What changed since *epoch*, or ``None`` when unreconstructible.

        ``None`` means the journal overflowed past *epoch* (or *epoch* is
        from the future); callers holding artifacts compiled at *epoch*
        must then rebuild from scratch.  An empty delta means the network
        has not mutated since *epoch*.
        """
        return self._journal.delta_since(epoch, self._mutation_count)

    @property
    def graph(self) -> nx.Graph:
        """The underlying networkx graph (shared, not a copy)."""
        return self._graph

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self._graph.number_of_nodes()

    @property
    def num_edges(self) -> int:
        """Number of edges (memoised until the next structural mutation)."""
        if self._num_edges is None:
            self._num_edges = self._graph.number_of_edges()
        return self._num_edges

    def nodes(self) -> List[NodeId]:
        """All node identifiers (list copy, stable iteration order)."""
        return list(self._graph.nodes())

    def edges(self) -> List[Edge]:
        """All edges as ``(u, v)`` tuples."""
        return list(self._graph.edges())

    def has_node(self, node: NodeId) -> bool:
        """Whether *node* exists."""
        return node in self._graph

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Whether an edge ``u -> v`` (or ``u -- v`` when undirected) exists."""
        return self._graph.has_edge(u, v)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._graph

    def __len__(self) -> int:
        return self.num_nodes

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._graph.nodes())

    def node_attrs(self, node: NodeId) -> Dict[str, Any]:
        """The attribute dict of *node* (live reference)."""
        try:
            return self._graph.nodes[node]
        except KeyError:
            raise MissingNodeError(f"node {node!r} does not exist in {self.name!r}") from None

    def edge_attrs(self, u: NodeId, v: NodeId) -> Dict[str, Any]:
        """The attribute dict of edge ``(u, v)`` (live reference)."""
        try:
            return self._graph.edges[u, v]
        except KeyError:
            raise MissingNodeError(
                f"edge ({u!r}, {v!r}) does not exist in {self.name!r}") from None

    def get_node_attr(self, node: NodeId, name: str, default: Any = None) -> Any:
        """A single node attribute, with a default."""
        return self.node_attrs(node).get(name, default)

    def get_edge_attr(self, u: NodeId, v: NodeId, name: str, default: Any = None) -> Any:
        """A single edge attribute, with a default."""
        return self.edge_attrs(u, v).get(name, default)

    def neighbors(self, node: NodeId) -> List[NodeId]:
        """Neighbors of *node* (successors+predecessors when directed).

        Backed by a per-node cache invalidated by :meth:`add_edge`,
        :meth:`remove_edge` and :meth:`remove_node` — the search algorithms
        ask for adjacency at every expansion step.  Mutating the graph
        through the raw :attr:`graph` handle bypasses the invalidation; use
        the :class:`Network` mutators.  For directed graphs the order is
        deterministic: successors first, then predecessors not already seen.
        """
        cached = self._adjacency.get(node)
        if cached is None:
            graph = self._graph
            if graph.is_directed():
                cached = list(graph.successors(node))
                seen = set(cached)
                cached += [p for p in graph.predecessors(node) if p not in seen]
            else:
                cached = list(graph.neighbors(node))
            self._adjacency[node] = cached
        return list(cached)

    def degree(self, node: NodeId) -> int:
        """Degree of *node* (total degree when directed)."""
        return int(self._graph.degree(node))

    def max_degree(self) -> int:
        """The largest :meth:`degree` of any node, 0 for an empty network
        (memoised until the next structural mutation)."""
        if self._max_degree is None:
            self._max_degree = max(
                (degree for _node, degree in self._graph.degree()), default=0)
        return self._max_degree

    def adjacency(self) -> Dict[NodeId, List[NodeId]]:
        """Full adjacency mapping node -> neighbor list (undirected view)."""
        return {node: self.neighbors(node) for node in self._graph.nodes()}

    def is_connected(self) -> bool:
        """Whether the network is (weakly) connected; empty graphs count as connected."""
        if self.num_nodes == 0:
            return True
        if self.directed:
            return nx.is_weakly_connected(self._graph)
        return nx.is_connected(self._graph)

    def density(self) -> float:
        """Edge density in [0, 1]."""
        return nx.density(self._graph)

    # ------------------------------------------------------------------ #
    # Schema
    # ------------------------------------------------------------------ #

    @property
    def schema(self) -> AttributeSchema:
        """The attribute schema, inferring one from current data if unset."""
        if self._schema is None:
            self._schema = infer_schema(
                (self._graph.nodes[n] for n in self._graph.nodes()),
                (self._graph.edges[e] for e in self._graph.edges()),
            )
        return self._schema

    @schema.setter
    def schema(self, value: Optional[AttributeSchema]) -> None:
        self._schema = value

    def refresh_schema(self) -> AttributeSchema:
        """Re-infer the schema from current attribute data."""
        self._schema = None
        return self.schema

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #

    def copy(self, name: Optional[str] = None) -> "Network":
        """A deep-ish copy (attribute dicts are copied, values shared)."""
        clone = type(self)(name=name or self.name, directed=self.directed,
                           schema=self._schema)
        clone._graph = self._graph.copy()
        return clone

    def subnetwork(self, nodes: Iterable[NodeId], name: Optional[str] = None) -> "Network":
        """The induced sub-network on *nodes* (attributes copied).

        Built explicitly rather than via ``networkx.Graph.subgraph(...)``:
        the view's iteration order runs through a set and therefore varies
        with the process's hash seed, which made sampled workloads (and
        everything seeded from them) irreproducible across processes.  Here
        nodes keep the caller's order and edges follow the adjacency
        structure, so equal inputs yield identical sub-networks everywhere.
        """
        node_list = list(nodes)
        missing = [n for n in node_list if n not in self._graph]
        if missing:
            raise MissingNodeError(f"nodes {missing!r} do not exist in {self.name!r}")
        sub = type(self)(name=name or f"{self.name}-sub", directed=self.directed,
                         schema=self._schema)
        graph = self._graph
        sub_graph = sub._graph
        keep = set(node_list)
        for node in node_list:
            sub_graph.add_node(node, **dict(graph.nodes[node]))
        if self.directed:
            # edges(node) yields each arc exactly once, from its source.
            for node in node_list:
                for _, neighbor, data in graph.edges(node, data=True):
                    if neighbor in keep:
                        sub_graph.add_edge(node, neighbor, **dict(data))
        else:
            # Undirected incidence yields each edge from both endpoints.
            seen = set()
            for node in node_list:
                for _, neighbor, data in graph.edges(node, data=True):
                    if neighbor not in keep or (neighbor, node) in seen:
                        continue
                    seen.add((node, neighbor))
                    sub_graph.add_edge(node, neighbor, **dict(data))
        return sub

    @classmethod
    def from_networkx(cls, graph: nx.Graph, name: str = "network",
                      schema: Optional[AttributeSchema] = None) -> "Network":
        """Wrap an existing networkx graph (copied) as a :class:`Network`."""
        net = cls(name=name, directed=graph.is_directed(), schema=schema)
        net._graph = graph.copy()
        return net

    def to_networkx(self) -> nx.Graph:
        """A copy of the underlying networkx graph."""
        return self._graph.copy()

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "directed" if self.directed else "undirected"
        return (f"<{type(self).__name__} {self.name!r}: {self.num_nodes} nodes, "
                f"{self.num_edges} edges, {kind}>")

"""The ECF/RWB filter matrices and candidate-set algebra (paper §V-A).

During its first stage ECF applies the constraint expression to every pair of
(query edge, hosting edge).  Each *match* of query edge ``(q1, q2)`` against
hosting edge ``(r1, r2)`` contributes two entries to a sparse three-dimensional
structure ``F``::

    F[q1, r1, q2] ← r2        F[q2, r2, q1] ← r1

read as "if ``q1`` is mapped to ``r1``, then ``r2`` is a candidate for
``q2``" (and symmetrically).  Non-matches are recorded in a second structure
``F̄`` the same way.  During the tree search, the candidate set for the next
query node is the intersection of the ``F`` cells indexed by its
already-placed neighbours (expression (2)), or the union of all cells
targeting it when no neighbour is placed yet (expression (1)), always minus
hosting nodes already in use.

Both structures are sparse in ``(placed query node, placed hosting node,
next query node)``; their total entry count is the memory-footprint
statistic reported by the ablation benchmarks (the O(n·|E_Q|·|E_R|) worst
case of §V-C).

**Packed-block backing.**  A filter cell has exactly one stored form: per
directed query pair ``(placed, next)`` one :class:`CellBlock` — a
row-compressed little-endian ``uint64`` array ``words[row, word]`` over the
dense hosting-node index of :class:`~repro.core.indexing.NodeIndexer`, one
row per placed host whose cell is non-empty.  :func:`build_filters` and
:func:`patch_filters` both end in the same producer (:func:`_pack_cells`:
one scatter of the boolean verdict row or of the admitted cells, one
``np.packbits``), the search kernel (:mod:`repro.core.kernel`) reads the
blocks, pickling ships them, and the size statistics are counted while
packing.  ``F̄`` is never stored: a non-match cell is the placed host's
oriented-arc row minus its ``F`` cell, derived on demand from the
:class:`HostingCompile`'s packed arc adjacency.

**Interval blocks.**  The paper's experiments run one constraint shape, a
window on one hosting-edge attribute: ``rEdge.X >= lo && rEdge.X <= hi``
with each bound a ``vEdge`` attribute or a numeric literal
(:func:`_interval_shape`, memoised on the expression).  Where the build
would run the batch kernel and pack each pair once — both networks
undirected, no node screening, the bounds and the ``X`` column numeric —
:func:`_interval_blocks` reads the window off a sorted index instead
(:meth:`HostingCompile.interval_index`, one lazy memo per attribute: the
rows with ``X`` present and not NaN, keyed by placed host and the rank of
``X`` among its distinct values, with their cell addresses).  Four
``searchsorted`` calls and one gather give the admitted cells, which are
packed with no verdict row.  Blocks and counters equal the batch kernel's:
``constraint_evaluations`` credits every existing arc row per query edge,
and a missing or NaN bound admits nothing.  :func:`patch_hosting_compile`
drops the index of each attribute whose column it rewrites; every other
build takes the verdict-row path unchanged.

Nothing here is dict- or set-shaped: :class:`FilterMatrices` is blocks, the
arc adjacency, the node masks and counts.  Tests and diagnostics that want
the paper's ``F`` / ``F̄`` as dicts of sets decode them with
:func:`repro.core.reference.decode_views`, beside the set-semantics oracle
they are compared against.  numpy is a declared install dependency and this
module requires it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.constraints import ConstraintExpression
from repro.constraints.ast_nodes import (
    AttributeRef,
    BinaryOp,
    BoolOp,
    NumberLiteral,
    referenced_attributes,
)
from repro.constraints.vectorizer import cached_vector_kernel
from repro.core.indexing import WORD_BITS, NodeIndexer, word_count
from repro.core.words import unpack_masks, words_to_mask
from repro.graphs.hosting import HostingNetwork
from repro.graphs.journal import NetworkDelta
from repro.graphs.network import Edge, Network, NodeId
from repro.graphs.query import QueryNetwork
from repro.utils.timing import Stopwatch

FilterKey = Tuple[NodeId, NodeId, NodeId]
#: A directed query pair ``(placed query node, next query node)``.
BlockKey = Tuple[NodeId, NodeId]


class CellBlock:
    """The ``F`` cells of one directed query pair, packed and row-compressed.

    ``words[r]`` is the candidate mask for the pair's *next* query node given
    that its *placed* node sits on hosting index ``hosts[r]``: bit *i* of the
    mask lives in word ``i // 64``, bit ``i % 64`` (the layout of
    :mod:`repro.core.words`).  ``hosts`` ascends and lists only hosts whose
    cell is non-empty, so a block costs ``len(hosts) × num_words × 8`` bytes
    plus the index — a host with no candidate stores no row.  ``count`` is
    the number of set bits, taken from the verdict row while packing.

    Blocks are immutable by convention: a patch packs new ones.  That is
    what lets a symmetric query pair store *one* block under both of its
    keys (:func:`_pack_pairs`; pickle's memo keeps it one object), and
    lets the interpreted kernel decode a row only when a walk first reads it
    (:meth:`mask_of`) — :meth:`items` decodes every row and is for
    :func:`repro.core.reference.decode_views`.
    """

    __slots__ = ("hosts", "words", "count")

    def __init__(self, hosts, words, count: int) -> None:
        self.hosts = hosts
        self.words = words
        self.count = int(count)

    @property
    def nbytes(self) -> int:
        """Bytes held by the two arrays."""
        return int(self.hosts.nbytes + self.words.nbytes)

    def items(self):
        """``(host index, int mask)`` per row, ascending (the masks come from
        one ``tobytes()``, sliced)."""
        return zip(self.hosts.tolist(), unpack_masks(self.words))

    def mask_of(self, host_index: int) -> int:
        """The cell of the host at *host_index* (0 when it stores no row)."""
        row = int(np.searchsorted(self.hosts, host_index))
        if row == len(self.hosts) or self.hosts[row] != host_index:
            return 0
        return words_to_mask(self.words[row])

    def host_mask(self) -> int:
        """Bitmask over the hosts that store a row."""
        return _indices_to_mask(self.hosts, self.words.shape[1] * WORD_BITS)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CellBlock):
            return NotImplemented
        return (self.count == other.count
                and np.array_equal(self.hosts, other.hosts)
                and np.array_equal(self.words, other.words))

    __hash__ = None


@dataclass
class FilterMatrices:
    """The match filter ``F``, the derived non-match filter ``F̄`` and the
    per-node candidates.

    :attr:`blocks` is the only stored form of the cells; the kernel plans of
    :mod:`repro.core.kernel` read it directly.
    """

    #: Dense index over the hosting nodes; bit order == ``sorted(key=str)``.
    host_indexer: NodeIndexer = field(default_factory=NodeIndexer)
    #: F: directed query pair -> its packed cells.  Holds both directions of
    #: every constrained query pair (``ab`` then ``ba``, in query pair
    #: order; the same object twice when the pair is symmetric), with an
    #: empty block for a pair nothing matched.
    blocks: Dict[BlockKey, CellBlock] = field(default_factory=dict)
    #: The hosting network's oriented-arc adjacency as a block (shared with
    #: the :class:`HostingCompile`), present iff non-matches are recorded:
    #: ``F̄[(qa, ra, qb)]`` is ``arcs(ra) & ~F[(qa, ra, qb)]``.
    arcs: Optional[CellBlock] = None
    #: Union over all cells targeting a query node (expression (1) per node).
    node_candidate_masks: Dict[NodeId, int] = field(default_factory=dict)
    #: Number of edge-constraint evaluations performed while building.
    constraint_evaluations: int = 0
    #: Wall-clock seconds spent building the filters.
    build_seconds: float = 0.0
    #: Node-screening result (node constraint only) per query node, encoded
    #: over :attr:`host_indexer`.  Retained so the incremental patch path can
    #: re-derive the expression-(1) fallback for nodes that lose every match.
    node_allowed_masks: Dict[NodeId, int] = field(default_factory=dict)
    #: How many incremental patches produced the current state, and how many
    #: hosting-arc rows they re-evaluated in total (0 = built from scratch).
    patches: int = 0
    patched_rows: int = 0

    @property
    def records_non_matches(self) -> bool:
        """Whether ``F̄`` counts towards :attr:`entry_count` and shows in the
        views (it costs no build or patch time either way)."""
        return self.arcs is not None

    # ------------------------------------------------------------------ #
    # Size accounting
    # ------------------------------------------------------------------ #

    @property
    def entry_count(self) -> int:
        """Total number of candidate entries across both filters."""
        if self.arcs is not None:
            # Every oriented arc is either a match or a non-match of each
            # directed pair, so the two filters together hold them all.
            return len(self.blocks) * self.arcs.count
        return sum(block.count for block in self.blocks.values())

    @property
    def cell_count(self) -> int:
        """Number of distinct (placed, host, next) cells in the match filter."""
        return sum(len(block.hosts) for block in self.blocks.values())

    def candidate_count(self, query_node: NodeId) -> int:
        """Cardinality of expression (1)'s candidate set for *query_node*."""
        return self.node_candidate_masks.get(query_node, 0).bit_count()


@dataclass
class HostingCompile:
    """The query-independent half of filter construction, compiled once.

    Everything :func:`build_filters` derives from the hosting network alone —
    the dense :class:`~repro.core.indexing.NodeIndexer`, the oriented-arc
    table with its hoisted attribute dicts, and the vectorizer's per-attribute
    numeric columns — is identical for every query hitting the same model
    version.  Compiling it once per network (and re-using it until the
    network's :attr:`~repro.graphs.network.Network.mutation_count` moves) is
    what makes repeated traffic against a slowly-drifting model cheap: the
    per-query stage only pays for the work that actually depends on the query.
    """

    hosting: HostingNetwork
    indexer: NodeIndexer
    #: ``(ra, rb, bit_a, bit_b, attrs_ab, attrs_ba, attrs_a, attrs_b)`` per
    #: oriented hosting arc — the inner-loop table of the scalar pass.
    host_pair_info: List[Tuple]
    #: ``hosting.mutation_count`` at compile time; the staleness epoch.
    epoch: int
    #: Wall-clock seconds spent compiling.
    compile_seconds: float = 0.0
    _index_arrays: Optional[Tuple] = field(default=None, repr=False)
    _cell_addresses: Optional[Tuple] = field(default=None, repr=False)
    _arcs: Optional[CellBlock] = field(default=None, repr=False)
    _source_rows: Optional[Tuple] = field(default=None, repr=False)
    #: Memoised vectorizer columns: (source slot, attr) -> (values, missing)
    #: array pair, or ``None`` when the attribute is non-numeric somewhere.
    _columns: Dict[Tuple[int, str], Optional[Tuple]] = field(
        default_factory=dict, repr=False)
    #: Memoised window indexes, one per ``rEdge`` attribute
    #: (:meth:`interval_index`); :func:`patch_hosting_compile` drops the
    #: index of every attribute whose column it rewrites.
    _interval_indexes: Dict[str, Tuple] = field(default_factory=dict,
                                                repr=False)
    #: Lazy reverse indexes from hosting node / unordered node pair to the
    #: ``host_pair_info`` rows that read their attribute dicts — the lookup
    #: the incremental patch paths use to turn a mutation delta into the set
    #: of rows that must be re-evaluated.
    _rows_by_node: Optional[Dict[NodeId, List[int]]] = field(
        default=None, repr=False)
    _rows_by_pair: Optional[Dict[Tuple, List[int]]] = field(
        default=None, repr=False)

    @property
    def stale(self) -> bool:
        """Whether the hosting network has mutated since this compile."""
        return self.epoch != self.hosting.mutation_count

    @property
    def num_hosts(self) -> int:
        return len(self.indexer)

    def index_arrays(self) -> Tuple:
        """``(ra_idx, rb_idx, exists_fwd, exists_bwd)`` numpy arrays (lazy)."""
        arrays = self._index_arrays
        if arrays is None:
            info = self.host_pair_info
            rows = len(info)
            index_of = self.indexer.index_of
            arrays = (
                np.fromiter((index_of(row[0]) for row in info),
                            dtype=np.int64, count=rows),
                np.fromiter((index_of(row[1]) for row in info),
                            dtype=np.int64, count=rows),
                np.fromiter((row[4] is not None for row in info),
                            dtype=bool, count=rows),
                np.fromiter((row[5] is not None for row in info),
                            dtype=bool, count=rows),
            )
            self._index_arrays = arrays
        return arrays

    def cell_addresses(self) -> Tuple:
        """``(cell_ab, cell_ba)`` flat cell-bit addresses per arc row (lazy).

        ``cell_ab[i] = ra_idx[i] * padded + rb_idx[i]`` addresses arc *i*'s
        bit in a dense ``num_hosts × padded`` verdict matrix whose rows are
        placed hosts (``padded`` = the host count rounded up to whole
        words); ``cell_ba`` is the transposed placement.  They turn a boolean
        verdict row into cell bits with one fancy-index store.
        """
        addresses = self._cell_addresses
        if addresses is None:
            ra_idx, rb_idx = self.index_arrays()[:2]
            padded = word_count(self.num_hosts) * WORD_BITS
            addresses = (ra_idx * padded + rb_idx, rb_idx * padded + ra_idx)
            self._cell_addresses = addresses
        return addresses

    def arcs(self) -> CellBlock:
        """The oriented-arc adjacency as a packed block (lazy): row ``ra``
        has bit ``rb`` for every ``host_pair_info`` row ``(ra, rb)``.

        Both orientations of every hosting edge are rows, so the block is its
        own transpose and serves either direction of a query pair.  The arc
        table is fixed for the life of a compile — attribute churn patches
        columns in place, a structural change makes a new compile — so the
        memo needs no invalidation of its own.
        """
        if self._arcs is None:
            self._arcs = _pack_cells(self.cell_addresses()[0], None,
                                     self.num_hosts)
        return self._arcs

    def rows_from(self, host_index: int):
        """The ``host_pair_info`` rows whose ``ra`` is the host at
        *host_index*, ascending (a view into a lazily built CSR index).

        One row per hosting neighbour of the host — an arc in either
        direction makes a row — which is what a lazy per-host check (LNS)
        reads instead of the whole table.  Structural like :meth:`arcs`, so
        it needs no invalidation either.
        """
        index = self._source_rows
        if index is None:
            ra_idx = self.index_arrays()[0]
            order = np.argsort(ra_idx, kind="stable")
            starts = np.searchsorted(ra_idx[order],
                                     np.arange(self.num_hosts + 1))
            index = self._source_rows = (order, starts.tolist())
        order, starts = index
        return order[starts[host_index]:starts[host_index + 1]]

    def column(self, source_index: int, attr: str) -> Optional[Tuple]:
        """(values, missing) arrays for one attribute over one dict column.

        Returns ``None`` when any defined value is non-numeric — the scalar
        path owns those semantics.  Both outcomes are memoised, keyed by the
        ``host_pair_info`` slot the column reads from.  On an undirected
        hosting network slots 4 and 5 hold the same edge dict, so slot 5
        answers with slot 4's column.
        """
        if source_index == 5 and not self.hosting.directed:
            source_index = 4
        key = (source_index, attr)
        if key in self._columns:
            return self._columns[key]
        info = self.host_pair_info
        rows = len(info)
        values = np.zeros(rows, dtype=np.float64)
        missing = np.zeros(rows, dtype=bool)
        result: Optional[Tuple] = (values, missing)
        for i, row in enumerate(info):
            attrs = row[source_index]
            value = None if attrs is None else attrs.get(attr)
            if value is None:
                missing[i] = True
            elif _is_plain_number(value):
                values[i] = value
            else:
                result = None
                break
        self._columns[key] = result
        return result

    def interval_index(self, attr: str) -> Optional[Tuple]:
        """``(keys, cells, distinct, host_keys)``: the arc rows sorted by
        placed host, then by their ``rEdge`` *attr* (lazy, per attribute).

        Only rows whose value is present and not NaN are indexed: no window
        admits the others.  ``distinct`` holds the values in ascending
        order; a row's key is ``ra_idx × stride + rank of its value in
        distinct``, with ``stride = len(distinct)``, so each host's rows are
        one run of ``keys`` and a value window is one contiguous slice of it.
        ``cells`` are the rows' ``cell_ab`` addresses in the same order, and
        ``host_keys`` is every host's first key.  Ranks keep each comparison
        exact, where a float key would round.  ``None`` when the column is
        non-numeric somewhere.
        """
        index = self._interval_indexes.get(attr)
        if index is not None:
            return index
        column = self.column(4, attr)
        if column is None:
            return None
        values, missing = column
        rows = np.flatnonzero(~(missing | np.isnan(values)))
        distinct = np.sort(values[rows])
        # Repeats dropped by hand: np.unique would import numpy.ma (~1 MB).
        fresh = np.ones(len(distinct), dtype=bool)
        fresh[1:] = distinct[1:] != distinct[:-1]
        distinct = distinct[fresh]
        del fresh
        stride = max(1, len(distinct))
        padded = word_count(self.num_hosts) * WORD_BITS
        # int32 wherever every key and cell address fits (at 296 sites and
        # at 9.6k): half the bytes to keep.  The dels bound the transient.
        dtype = (np.int32 if self.num_hosts * max(stride, padded) < 2 ** 31
                 else np.int64)
        keys = np.searchsorted(distinct, values[rows]).astype(dtype)
        placed = self.index_arrays()[0][rows].astype(dtype)
        placed *= stride
        keys += placed
        del placed
        order = np.argsort(keys)
        keys = keys[order]
        rows = rows[order]
        del order
        index = self._interval_indexes[attr] = (
            keys, self.cell_addresses()[0][rows].astype(dtype), distinct,
            np.arange(self.num_hosts, dtype=dtype) * stride)
        return index

    def rows_for(self, nodes=(), edges=()) -> List[int]:
        """Indices of ``host_pair_info`` rows reading the given subjects.

        A node affects every row whose arc has it as an endpoint (its
        attribute dict is hoisted into slots 6/7 and gates the node
        screening); an edge affects both orientation rows (slots 4/5).
        Sorted and de-duplicated.
        """
        if self._rows_by_node is None:
            by_node: Dict[NodeId, List[int]] = {}
            by_pair: Dict[Tuple, List[int]] = {}
            for i, row in enumerate(self.host_pair_info):
                ra, rb = row[0], row[1]
                by_node.setdefault(ra, []).append(i)
                by_node.setdefault(rb, []).append(i)
                key = tuple(sorted((ra, rb), key=str))
                by_pair.setdefault(key, []).append(i)
            self._rows_by_node = by_node
            self._rows_by_pair = by_pair
        affected = set()
        for node in nodes:
            affected.update(self._rows_by_node.get(node, ()))
        for u, v in edges:
            affected.update(self._rows_by_pair.get(
                tuple(sorted((u, v), key=str)), ()))
        return sorted(affected)


#: Attribute under which :func:`compile_hosting` memoises the compile on the
#: network object itself; invalidated in O(1) via the mutation epoch.
_COMPILE_CACHE_ATTR = "_hosting_compile"


def peek_hosting_compile(hosting: HostingNetwork) -> Optional[HostingCompile]:
    """The memoised compile of *hosting* if it can be used as it stands, else
    ``None`` — never builds one.

    Usable means fresh, or stale by attribute-only churn (the monitoring
    case): that leaves the topology — and therefore the indexer and the arc
    table, whose attribute dicts are live references — intact, so patching
    the memoised vectorizer columns for the touched rows, done here, is all
    a recompile would do.  This is the one place the staleness rule lives;
    callers that must not pay for a compile (LNS) stop at ``None``.
    """
    cached = getattr(hosting, _COMPILE_CACHE_ATTR, None)
    if cached is None or cached.hosting is not hosting:
        return None
    if cached.stale and not patch_hosting_compile(
            cached, hosting.delta_since(cached.epoch)):
        return None
    return cached


def compile_hosting(hosting: HostingNetwork) -> HostingCompile:
    """Compile (or fetch the memoised compile of) a hosting network.

    The result is cached on the network object and reused until any of the
    network's mutators bumps :attr:`~repro.graphs.network.Network.mutation_count`
    (see :func:`peek_hosting_compile`), so back-to-back filter builds against
    an unchanged model — the dominant pattern of the NETEMBED service — skip
    the whole hosting-side scan.
    """
    cached = peek_hosting_compile(hosting)
    if cached is not None:
        return cached

    stopwatch = Stopwatch().start()
    # Capture the epoch BEFORE scanning: a mutation that lands mid-compile
    # then leaves mutation_count > epoch, so the half-stale compile is
    # correctly treated as stale instead of being served forever.
    epoch = hosting.mutation_count
    indexer = NodeIndexer(hosting.nodes())

    # Candidate ordered host placements: both orientations of every hosting
    # edge.  For directed hosts an orientation can still be rejected later if
    # a required arc does not exist in the needed direction.  Everything the
    # per-query inner loop needs — attribute dicts and the endpoints' bit
    # positions — is hoisted into this table once per model version.
    def arc_attrs(r_from: NodeId, r_to: NodeId):
        if hosting.has_edge(r_from, r_to):
            return hosting.edge_attrs(r_from, r_to)
        if not hosting.directed and hosting.has_edge(r_to, r_from):
            return hosting.edge_attrs(r_to, r_from)
        return None

    host_pair_info: List[Tuple] = []
    seen_pairs = set()
    for r1, r2 in hosting.edges():
        for ra, rb in ((r1, r2), (r2, r1)):
            if ra == rb or (ra, rb) in seen_pairs:
                continue
            seen_pairs.add((ra, rb))
            host_pair_info.append((ra, rb, indexer.bit(ra), indexer.bit(rb),
                                   arc_attrs(ra, rb), arc_attrs(rb, ra),
                                   hosting.node_attrs(ra), hosting.node_attrs(rb)))

    compiled = HostingCompile(hosting=hosting, indexer=indexer,
                              host_pair_info=host_pair_info,
                              epoch=epoch)
    compiled.compile_seconds = stopwatch.stop()
    try:
        setattr(hosting, _COMPILE_CACHE_ATTR, compiled)
    except AttributeError:  # slotted Network subclass: just skip the memo
        pass
    return compiled


def clear_hosting_compile(hosting: HostingNetwork) -> None:
    """Drop the memoised :class:`HostingCompile` from *hosting*, if any.

    Benchmarks that want to measure the historical per-call cost (no
    cross-request amortisation) call this between requests; production code
    never needs it — the epoch check already handles invalidation.
    """
    if hasattr(hosting, _COMPILE_CACHE_ATTR):
        delattr(hosting, _COMPILE_CACHE_ATTR)


def patch_hosting_compile(compiled: HostingCompile,
                          delta: Optional[NetworkDelta]) -> bool:
    """Bring a stale :class:`HostingCompile` up to date for an attr-only delta.

    The arc table holds *live* attribute dicts, so attribute mutations are
    already visible to the scalar pass; the only derived state to fix is the
    memoised vectorizer columns, whose touched rows are re-read in place.
    ``None``-columns (non-numeric somewhere) are dropped from the memo so
    they re-derive lazily — the offending value may have become numeric.
    The window index of every ``rEdge`` attribute whose column is rewritten
    is dropped too, and the next build that wants it sorts it afresh.

    Returns ``True`` when the compile was patched (epoch advanced to the
    delta's target); ``False`` when the delta is unavailable or structural,
    in which case the caller must rebuild from scratch.
    """
    if delta is None or delta.structural:
        return False
    if not delta.empty:
        stopwatch = Stopwatch().start()
        info = compiled.host_pair_info
        #: Which host_pair_info slot a column's source dict sits in: edge
        #: orientations (4/5) re-read on edge touches, endpoint nodes (6/7)
        #: on node touches.  Columns whose attribute the delta never wrote
        #: are untouched — including memoised ``None`` verdicts, which can
        #: only change when their own attribute does.
        touched_rows: Dict[Tuple[bool, str], List[int]] = {}
        for key, column in list(compiled._columns.items()):
            source_index, attr = key
            on_edges = source_index in (4, 5)
            rows = touched_rows.get((on_edges, attr))
            if rows is None:
                touched = (delta.touched_edge_attrs if on_edges
                           else delta.touched_node_attrs)
                subjects = [subject for subject, names in touched.items()
                            if attr in names]
                rows = (compiled.rows_for(edges=subjects) if on_edges
                        else compiled.rows_for(nodes=subjects))
                touched_rows[(on_edges, attr)] = rows
            if not rows:
                continue
            if source_index == 4:
                # The window index sorts this column's old values.
                compiled._interval_indexes.pop(attr, None)
            if column is None:
                # The offending value may have become numeric: forget the
                # verdict and let column() re-derive it lazily.
                del compiled._columns[key]
                continue
            # One gather of the touched rows' current values, then one
            # fancy-index store per array.
            fresh = [None if (attrs := info[i][source_index]) is None
                     else attrs.get(attr) for i in rows]
            if (not set(map(type, fresh)) <= _PLAIN_TYPES
                    and not all(value is None or _is_plain_number(value)
                                for value in fresh)):
                # Non-numeric now: the column leaves the vectorizable
                # fragment, exactly as a from-scratch column() would find.
                compiled._columns[key] = None
                continue
            values, missing = column
            is_missing = np.array([value is None for value in fresh],
                                  dtype=bool)
            fresh_values = np.array(fresh, dtype=np.float64)  # None -> nan
            fresh_values[is_missing] = 0.0
            values[rows] = fresh_values
            missing[rows] = is_missing
        compiled.compile_seconds += stopwatch.stop()
    compiled.epoch = delta.target_epoch
    return True


def _pair_edges(query: QueryNetwork) -> Dict[BlockKey, List[Edge]]:
    """The query's edges grouped by unordered node pair, so that a filter
    cell (placed node, placed host, next node) reflects *every* constraint
    between the pair: a directed query may carry anti-parallel edges with
    different requirements, and a candidate must satisfy both at once."""
    pair_edges: Dict[BlockKey, List[Edge]] = {}
    for q_source, q_target in query.edges():
        qa, qb = sorted((q_source, q_target), key=str)
        pair_edges.setdefault((qa, qb), []).append((q_source, q_target))
    return pair_edges


def build_filters(query: QueryNetwork, hosting: HostingNetwork,
                  constraint: ConstraintExpression,
                  node_constraint: Optional[ConstraintExpression] = None,
                  record_non_matches: bool = True,
                  deadline=None,
                  compiled: Optional[HostingCompile] = None) -> FilterMatrices:
    """Run the first stage of ECF/RWB: evaluate the constraint for every edge pair.

    Parameters
    ----------
    query, hosting:
        The two networks of the embedding problem.
    constraint:
        The edge constraint expression (``ConstraintExpression.always_true()``
        for purely topological embedding).
    node_constraint:
        Optional node-level expression (``vNode`` / ``rNode``) applied to
        restrict each query node's candidate set independently of edges.
        Query nodes without any edges get their candidates from this filter
        alone (or all hosting nodes if it is absent).
    record_non_matches:
        Whether ``F̄`` is part of the result.  It is derived from ``F`` and
        the arc adjacency on demand, so recording it costs nothing here; the
        flag decides whether it counts towards ``entry_count`` and appears
        in the ``non_match`` views (the §V-C space/time ablation), which
        callers that only search (RWB, the perf benchmarks) switch off.
    deadline:
        Optional :class:`~repro.utils.timing.Deadline`; checked once per query
        edge so a search timeout also bounds the filter-construction stage.
    compiled:
        Optional pre-built :class:`HostingCompile` for *hosting*.  A stale or
        foreign compile is ignored and a fresh one fetched via
        :func:`compile_hosting` (which itself memoises per network), so this
        is purely an optimisation knob — semantics never depend on it.
    """
    stopwatch = Stopwatch().start()
    if compiled is None or compiled.hosting is not hosting or compiled.stale:
        compiled = compile_hosting(hosting)
    indexer = compiled.indexer
    allowed_masks = _screen_nodes(query, hosting, node_constraint, indexer)
    pair_edges = _pair_edges(query)
    interval = _interval_blocks(query, constraint, pair_edges, compiled,
                                allowed_masks, deadline)
    if interval is not None:
        blocks, evaluations = interval
    else:
        verdicts, evaluations = _pair_verdicts(
            query, constraint, pair_edges, compiled, allowed_masks, deadline)
        blocks = _pack_pairs(query, constraint, verdicts, compiled,
                             allowed_masks)
    filters = FilterMatrices(
        host_indexer=indexer,
        blocks=blocks,
        arcs=compiled.arcs() if record_non_matches else None,
        node_candidate_masks=_node_candidate_masks(query, blocks,
                                                   allowed_masks),
        constraint_evaluations=evaluations,
        node_allowed_masks=allowed_masks,
    )
    filters.build_seconds = stopwatch.stop()
    return filters


_V_OBJECTS = ("vEdge", "vSource", "vTarget")
#: The ``host_pair_info`` slot each hosting-side object is read from, as
#: ``(forward, backward)``: on a row ``(ra, rb)``, *forward* places
#: ``(rEdge, rSource, rTarget)`` on ``(ab, a, b)`` — the hosting arc runs
#: ``ra -> rb`` — and *backward* on ``(ba, b, a)``.
_COLUMN_SOURCES = {"rEdge": (4, 5), "rSource": (6, 7), "rTarget": (7, 6)}
#: Budget, in cells, for the transient dense boolean the packing step
#: scatters verdicts into: :func:`_pack_cells` works in bands of placed
#: hosts that each fit it.
_MAX_DENSE_CELLS = 64_000_000


#: Exact types that need no per-value look to be numeric-or-missing.
_PLAIN_TYPES = {int, float, type(None)}


def _is_plain_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _query_edge_scalar(query, key, q_source, q_target):
    """(value, missing) for a query-side attribute of one query edge, or
    ``None`` when the defined value is non-numeric (scalar semantics)."""
    obj, attr = key
    if obj == "vEdge":
        attrs = query.edge_attrs(q_source, q_target)
    elif obj == "vSource":
        attrs = query.node_attrs(q_source)
    else:
        attrs = query.node_attrs(q_target)
    value = attrs.get(attr)
    if value is None:
        return 0.0, True
    if not _is_plain_number(value):
        return None
    return float(value), False


def _query_edge_scalars(query, keys, edges):
    """Per-query-edge bindings of the referenced ``v*`` attributes for the
    oriented query *edges*, or ``None`` when any defined value is
    non-numeric."""
    v_keys = [key for key in keys if key[0] in _V_OBJECTS]
    edge_scalars = {}
    for q_source, q_target in edges:
        bindings = {}
        for key in v_keys:
            scalar = _query_edge_scalar(query, key, q_source, q_target)
            if scalar is None:
                return None
            bindings[key] = scalar
        edge_scalars[(q_source, q_target)] = bindings
    return edge_scalars


def _indices_to_mask(indices, num_bits: int) -> int:
    """The int bitmask with exactly the bits at *indices* (an index array)
    set, out of *num_bits*."""
    present = np.zeros(num_bits, dtype=bool)
    present[indices] = True
    return int.from_bytes(
        np.packbits(present, bitorder="little").tobytes(), "little")


def _mask_to_bool_array(mask: int, num_bits: int):
    """Decode an int bitmask into a numpy bool lookup of length *num_bits*."""
    data = mask.to_bytes((num_bits + 7) // 8, "little") if num_bits else b""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8),
                         bitorder="little", count=num_bits).astype(bool)


def _vector_plan(constraint):
    """``(batch kernel, referenced (object, attribute) keys)`` when the edge
    constraint is inside the vectorizable fragment — ``(None, [])`` for a
    trivial one — else ``None``: strict mode (its missing-attribute errors
    belong to the scalar path), an expression shape the vectorizer declines
    (``isBoundTo``, strings, division), or a reference to an object outside
    Table I's edge objects."""
    if getattr(constraint, "strict", False):
        return None
    if constraint.is_trivial:
        return None, []
    kernel = cached_vector_kernel(constraint)
    if kernel is None:
        return None
    keys = referenced_attributes(constraint.ast)
    if any(obj not in _COLUMN_SOURCES and obj not in _V_OBJECTS
           for obj, _ in keys):
        return None
    return kernel, keys


#: Attribute under which :func:`_interval_shape` memoises its answer on the
#: expression (a one-tuple, as the vectorizer's kernel cache does).
_INTERVAL_CACHE_ATTR = "_interval_shape_cache"


def _interval_shape(constraint):
    """``(attr, low, high)`` when the edge constraint reads exactly
    ``rEdge.attr >= low && rEdge.attr <= high`` — each bound a ``vEdge``
    attribute (its ``(object, attribute)`` key) or a numeric literal (a
    float) — else ``None``.  Memoised on the expression."""
    cached = getattr(constraint, _INTERVAL_CACHE_ATTR, None)
    if cached is None:
        cached = (_match_interval(constraint.ast),)
        try:
            setattr(constraint, _INTERVAL_CACHE_ATTR, cached)
        except AttributeError:  # slots/frozen objects: match again next time
            pass
    return cached[0]


def _match_interval(ast):
    if not (isinstance(ast, BoolOp) and ast.op == "&&"
            and isinstance(ast.left, BinaryOp) and ast.left.op == ">="
            and isinstance(ast.right, BinaryOp) and ast.right.op == "<="):
        return None
    column = ast.left.left
    if not (isinstance(column, AttributeRef) and column.obj == "rEdge"
            and ast.right.left == column):
        return None
    bounds = []
    for bound in (ast.left.right, ast.right.right):
        if isinstance(bound, AttributeRef) and bound.obj == "vEdge":
            bounds.append((bound.obj, bound.attribute))
        elif isinstance(bound, NumberLiteral) and _is_plain_number(bound.value):
            bounds.append(float(bound.value))
        else:
            return None
    return column.attribute, bounds[0], bounds[1]


# --------------------------------------------------------------------------- #
# Interval blocks: a delay window read off the compile's sorted index
# --------------------------------------------------------------------------- #

def _interval_blocks(query, constraint, pair_edges, compiled, allowed_masks,
                     deadline):
    """``(blocks, evaluations)`` of an interval constraint
    (:func:`_interval_shape`), each block packed from the cells its window
    admits (:func:`_admitted_cells`) — or ``None`` when the build takes the
    verdict-row path.

    It applies exactly where that path would run the batch kernel and pack
    each pair once: both networks undirected, no node screening, the
    ``vEdge`` bounds and the ``rEdge`` column numeric.  The blocks and
    counts are the batch pass's: every existing arc row counts as evaluated
    per query edge, and a missing or NaN value on either side admits
    nothing.
    """
    shape = _interval_shape(constraint)
    if (shape is None or query.directed or compiled.hosting.directed
            or _vector_plan(constraint) is None):
        return None
    full_mask = compiled.indexer.full_mask
    if any(mask != full_mask for mask in allowed_masks.values()):
        return None
    attr, low, high = shape
    bindings = _query_edge_scalars(
        query, [bound for bound in (low, high) if isinstance(bound, tuple)],
        [edge for edges_between in pair_edges.values()
         for edge in edges_between])
    if bindings is None:
        return None
    index = compiled.interval_index(attr)
    if index is None:
        return None
    # An undirected host fills both orientations of every row it has.
    evaluated = int(np.count_nonzero(compiled.index_arrays()[2]))
    num_hosts = compiled.num_hosts
    blocks: Dict[BlockKey, CellBlock] = {}
    evaluations = 0
    # An undirected query joins a pair by one edge.
    for (qa, qb), ((q_source, q_target),) in pair_edges.items():
        if deadline is not None:
            deadline.check()
        evaluations += evaluated
        window = []
        for bound in (low, high):
            if isinstance(bound, tuple):
                value, missing = bindings[(q_source, q_target)][bound]
                bound = math.nan if missing else value
            window.append(bound)
        blocks[(qa, qb)] = blocks[(qb, qa)] = _pack_cells(
            _admitted_cells(index, *window), None, num_hosts)
    return blocks, evaluations


def _admitted_cells(index, low: float, high: float):
    """The ``cell_ab`` addresses of the rows of
    :meth:`HostingCompile.interval_index` whose value lies in
    ``[low, high]``; none when either bound is NaN or ``low > high``.

    Two ``searchsorted`` calls on the distinct values give the window's rank
    bounds, two more give one slice of ``keys`` per placed host, and one
    repeat/arange gather collects the slices.
    """
    keys, cells, distinct, host_keys = index
    if not low <= high:
        return cells[:0]
    # Python ints keep the needles in the keys' dtype (no copy of keys).
    first = int(np.searchsorted(distinct, low, side="left"))
    stop = int(np.searchsorted(distinct, high, side="right"))
    starts = np.searchsorted(keys, host_keys + first)
    lengths = np.searchsorted(keys, host_keys + stop) - starts
    ends = np.cumsum(lengths)
    picks = np.repeat(starts - ends + lengths, lengths)
    picks += np.arange(len(picks))
    return cells[picks]


# --------------------------------------------------------------------------- #
# Verdict rows: the constraint over (query pair, oriented hosting arc)
# --------------------------------------------------------------------------- #

def _pair_verdicts(query, constraint, pair_edges, compiled, allowed_masks,
                   deadline, rows=None):
    """``({unordered query pair: boolean verdict per arc row}, evaluations)``.

    *rows* selects the ``host_pair_info`` rows to evaluate (``None`` = all —
    a build; a sorted index array — a patch).  The batch kernel runs when the
    workload is inside the vectorizable fragment, the scalar loop otherwise;
    both give the same verdicts and the same short-circuit evaluation count.
    """
    result = _pair_verdicts_vectorized(query, constraint, pair_edges,
                                       compiled, allowed_masks, rows, deadline)
    if result is None:
        result = _pair_verdicts_scalar(query, constraint, pair_edges,
                                       compiled, allowed_masks, rows, deadline)
    return result


def _pair_verdicts_vectorized(query, constraint, pair_edges, compiled,
                              allowed_masks, rows, deadline):
    """Evaluate the edge constraint as a numpy batch kernel over the arc rows.

    Replicates the scalar pass exactly, including its short-circuit
    structure (a row dead after edge *k* is not evaluated at edge *k+1*).
    Returns ``None`` when the workload is outside the vectorizable fragment
    (non-numeric attributes, strict mode, unsupported expression shapes).

    The hosting-side inputs — arc index arrays and per-attribute numeric
    columns — come memoised from the :class:`HostingCompile`, so repeated
    queries against an unchanged model only pay for the per-query batch
    evaluation.
    """
    plan = _vector_plan(constraint)
    if plan is None:
        return None
    kernel, keys = plan
    trivial = kernel is None
    indexer = compiled.indexer
    num_hosts = len(indexer)

    ra_idx, rb_idx, exists_fwd, exists_bwd = compiled.index_arrays()
    if rows is not None:
        ra_idx, rb_idx = ra_idx[rows], rb_idx[rows]
        exists_fwd, exists_bwd = exists_fwd[rows], exists_bwd[rows]

    # One (values, missing) column pair per referenced hosting-side
    # attribute, per orientation (see _COLUMN_SOURCES and the scalar loop).
    env_fwd = {}
    env_bwd = {}
    for key in keys:
        obj, attr = key
        if obj not in _COLUMN_SOURCES:
            continue
        fwd_source, bwd_source = _COLUMN_SOURCES[obj]
        fwd = compiled.column(fwd_source, attr)
        bwd = fwd if bwd_source == fwd_source else compiled.column(bwd_source, attr)
        if fwd is None or bwd is None:
            return None
        if rows is not None:
            fwd = (fwd[0][rows], fwd[1][rows])
            bwd = (bwd[0][rows], bwd[1][rows])
        env_fwd[key] = fwd
        env_bwd[key] = bwd

    # Pre-scan the query side: every referenced attribute must be numeric or
    # missing on every query edge, otherwise scalar error semantics apply.
    edge_scalars = _query_edge_scalars(
        query, keys, [edge for edges_between in pair_edges.values()
                      for edge in edges_between])
    if edge_scalars is None:
        return None

    # Node screening gates a row on both endpoints.  Without a node
    # constraint every mask is full and no gate is built at all; otherwise
    # equal masks share one boolean lookup.
    full_mask = indexer.full_mask
    lookups: Dict[int, object] = {}

    def gate(node, host_idx):
        mask = allowed_masks.get(node, 0)
        if mask == full_mask:
            return None
        lookup = lookups.get(mask)
        if lookup is None:
            lookup = lookups[mask] = _mask_to_bool_array(mask, num_hosts)
        return lookup[host_idx]

    evaluations = 0
    verdicts = {}
    for (qa, qb), edges_between in pair_edges.items():
        if deadline is not None:
            deadline.check()
        alive = None    # None: every row is still alive
        for gated in (gate(qa, ra_idx), gate(qb, rb_idx)):
            if gated is not None:
                alive = gated if alive is None else alive & gated
        for q_source, q_target in edges_between:
            forward = q_source == qa
            exists = exists_fwd if forward else exists_bwd
            evaluable = exists if alive is None else alive & exists
            if trivial:
                alive = evaluable
                continue
            evaluations += int(np.count_nonzero(evaluable))
            env = dict(env_fwd if forward else env_bwd)
            env.update(edge_scalars[(q_source, q_target)])
            value, bad = kernel(env)
            alive = evaluable & np.logical_and(value, np.logical_not(bad))
        verdicts[(qa, qb)] = alive
    return verdicts, evaluations


def _pair_verdicts_scalar(query, constraint, pair_edges, compiled,
                          allowed_masks, rows, deadline):
    """The scalar pass: one ``constraint.evaluate`` per live (query edge,
    arc row), for everything the batch kernel does not cover."""
    info = compiled.host_pair_info
    row_info = info if rows is None else [info[i] for i in rows.tolist()]
    trivial = constraint.is_trivial
    evaluate = constraint.evaluate
    evaluations = 0
    verdicts = {}
    for (qa, qb), edges_between in pair_edges.items():
        if deadline is not None:
            deadline.check()
        allowed_a = allowed_masks.get(qa, 0)
        allowed_b = allowed_masks.get(qb, 0)
        # Pre-build one evaluation context per query edge of the pair; the
        # inner loop only rebinds the three hosting-side slots.
        edge_contexts = []
        for q_source, q_target in edges_between:
            edge_contexts.append((q_source == qa, {
                "vEdge": query.edge_attrs(q_source, q_target),
                "vSource": query.node_attrs(q_source),
                "vTarget": query.node_attrs(q_target),
                "rEdge": None, "rSource": None, "rTarget": None,
            }))
        verdict = []
        for ra, rb, bit_a, bit_b, attrs_ab, attrs_ba, attrs_a, attrs_b in row_info:
            matched = bool(allowed_a & bit_a) and bool(allowed_b & bit_b)
            if matched:
                for forward, context in edge_contexts:
                    # The hosting arc must run in the query edge's direction
                    # under the placement qa -> ra, qb -> rb.
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
            verdict.append(matched)
        verdicts[(qa, qb)] = np.fromiter(verdict, dtype=bool,
                                         count=len(verdict))
    return verdicts, evaluations


# --------------------------------------------------------------------------- #
# Lazy verdicts: the constraint over one placed host's arcs (LNS)
# --------------------------------------------------------------------------- #

#: Budget, in bytes, for the verdict masks one :class:`LazyEdgeVerdicts`
#: keeps between executes; past it the whole memo is dropped.
_VERDICT_MEMO_BYTES = 1 << 19


def _placed_host_arcs(compiled: HostingCompile, placed_index: int,
                      placed_is_source: bool):
    """``(rows, offered, exists, side)``: how one placed host's arc rows are
    read for a connecting query edge — the one statement of the lazy check's
    orientation and existence rule (the array form of
    :func:`repro.core.base.hosting_orientation` followed by
    :func:`~repro.constraints.edge_context`).

    The host at *placed_index* carries one endpoint of the query edge and
    every row ``(ra=placed, rb)`` offers ``rb`` for the other.  When the
    placed endpoint is the edge's source the hosting arc must run
    ``placed -> offered`` and the row is read forward (*side* 0 of
    :data:`_COLUMN_SOURCES`: ``rEdge`` from slot 4, ``rSource`` 6,
    ``rTarget`` 7); when it is the target the arc must run
    ``offered -> placed`` and the same row is read backward (*side* 1:
    slots 5, 7, 6).  *exists* is that slot being filled: on an undirected
    hosting network either stored direction fills both, on a directed one
    only the arc in the query edge's direction does.
    """
    rows = compiled.rows_from(placed_index)
    _ra_idx, rb_idx, exists_fwd, exists_bwd = compiled.index_arrays()
    side = 0 if placed_is_source else 1
    return rows, rb_idx[rows], (exists_bwd if side else exists_fwd)[rows], side


class LazyEdgeVerdicts:
    """LNS's connecting-edge check for every hosting neighbour of a placed
    host at once, memoised for the life of one ``PreparedSearch``.

    :meth:`plan` holds what is fixed by (query, constraint) — the batch
    kernel, the hosting-side keys it reads and the query-side bindings of
    every query edge; :meth:`bind` adds what one execute reads off the
    hosting compile it found.  A lookup answers, for one query edge and the
    host its placed endpoint sits on, two bitmasks over the dense host
    index: *exists* (hosts joined to the placed one by an arc in the edge's
    direction — the ones the scalar check would evaluate the constraint for)
    and *passed* (those of them the constraint accepts).  Both are pure
    functions of the model at the plan's epoch, which is why they may be
    kept between executes and must not be carried to a patched plan.
    """

    __slots__ = ("kernel", "r_keys", "bindings", "masks")

    def __init__(self, kernel, r_keys, bindings) -> None:
        #: ``None`` for a trivial constraint: *passed* is *exists*.
        self.kernel = kernel
        self.r_keys = r_keys
        self.bindings = bindings
        #: ``(q_source, q_target, placed index, placed_is_source)`` ->
        #: ``(exists, passed)``.  Replaced, never cleared, on overflow: an
        #: execute running beside the one that overflowed keeps its dict.
        self.masks: Dict[Tuple, Tuple[int, int]] = {}

    @classmethod
    def plan(cls, query: QueryNetwork, constraint: ConstraintExpression
             ) -> Optional["LazyEdgeVerdicts"]:
        """The verdicts of (*query*, *constraint*), or ``None`` when the
        scalar checks must answer: the constraint is outside the
        vectorizable fragment (:func:`_vector_plan`) or a query-side
        attribute it reads is non-numeric on some query edge."""
        vector_plan = _vector_plan(constraint)
        if vector_plan is None:
            return None
        kernel, keys = vector_plan
        # An undirected query edge is checked in whichever orientation the
        # walk meets it.
        edges = query.edges()
        if not query.directed:
            edges += [(q_target, q_source) for q_source, q_target in edges]
        bindings = _query_edge_scalars(query, keys, edges)
        if bindings is None:
            return None
        return cls(kernel, [key for key in keys if key[0] in _COLUMN_SOURCES],
                   bindings)

    def bind(self, compiled: HostingCompile):
        """This execute's lookup ``(q_source, q_target, placed_index,
        placed_is_source) -> (exists, passed)`` over *compiled*, or ``None``
        when a hosting attribute the constraint reads is non-numeric."""
        columns = ({}, {})
        for key in self.r_keys:
            obj, attr = key
            for side, slot in enumerate(_COLUMN_SOURCES[obj]):
                column = compiled.column(slot, attr)
                if column is None:
                    return None
                columns[side][key] = column
        kernel = self.kernel
        bindings = self.bindings
        num_hosts = compiled.num_hosts
        # Two masks of num_hosts bits, their tuple, the key and a dict slot.
        limit = max(1, _VERDICT_MEMO_BYTES // (2 * (num_hosts // 7 + 32) + 256))

        def lookup(q_source, q_target, placed_index, placed_is_source):
            key = (q_source, q_target, placed_index, placed_is_source)
            memo = self.masks
            found = memo.get(key)
            if found is not None:
                return found
            rows, offered, exists, side = _placed_host_arcs(
                compiled, placed_index, placed_is_source)
            exists_mask = passed_mask = _indices_to_mask(offered[exists],
                                                         num_hosts)
            if kernel is not None:
                env = dict(bindings[(q_source, q_target)])
                for r_key, (values, missing) in columns[side].items():
                    env[r_key] = (values[rows], missing[rows])
                value, bad = kernel(env)
                passed = exists & np.logical_and(value, np.logical_not(bad))
                passed_mask = _indices_to_mask(offered[passed], num_hosts)
            found = (exists_mask, passed_mask)
            if len(memo) >= limit:
                memo = self.masks = {}
            memo[key] = found
            return found

        return lookup


# --------------------------------------------------------------------------- #
# Verdict rows -> packed blocks (the one producer)
# --------------------------------------------------------------------------- #

def _pack_band(cells, verdict, padded: int, start: int, stop: int,
               base: Optional[CellBlock]):
    """``(rows, words, dense)`` for the placed hosts ``[start, stop)``: the
    band's non-empty rows, their packed words and the dense boolean they
    were packed from.  *cells* and *verdict* are already restricted to the
    band, and *cells* — like the returned *rows* — count from its first
    row.  A ``None`` *verdict* sets every addressed cell."""
    dense = np.zeros((stop - start, padded), dtype=bool)
    if base is not None:
        lo, hi = np.searchsorted(base.hosts, (start, stop))
        dense[base.hosts[lo:hi] - start] = np.unpackbits(
            base.words[lo:hi].view(np.uint8), axis=1, bitorder="little")
    dense.reshape(-1)[cells] = True if verdict is None else verdict
    packed = np.packbits(dense, axis=1, bitorder="little").view("<u8")
    kept = np.flatnonzero(packed.any(axis=1))
    return kept, packed[kept], dense


def _pack_cells(cells, verdict, num_hosts: int,
                base: Optional[CellBlock] = None) -> CellBlock:
    """Pack boolean verdicts into one directed pair's :class:`CellBlock`.

    ``cells[i]`` is the flat address ``placed_host * padded + offered_host``
    of the bit ``verdict[i]`` decides (see
    :meth:`HostingCompile.cell_addresses`).  A build passes every arc row over
    no *base*, or only the admitted cells with no *verdict* (the interval
    path, the arc adjacency); a patch passes the re-evaluated rows over the
    block it replaces, whose other bits carry over.  Either way the verdicts
    are scattered into a dense boolean with one fancy-index store, packed
    with one ``np.packbits`` and row-compressed, so a patched block is
    array-equal to the rebuilt one by construction.

    Placed hosts are processed in bands of at most ``_MAX_DENSE_CELLS``
    cells, which bounds the transient boolean on large hosts; anything below
    ~8000 nodes is one band, whose rows are the block as they stand.
    """
    num_words = word_count(num_hosts)
    padded = num_words * WORD_BITS
    band = max(1, _MAX_DENSE_CELLS // padded)
    if band >= num_hosts:
        hosts, words, dense = _pack_band(cells, verdict, padded, 0, num_hosts,
                                         base)
        # A build's arc rows address distinct cells, so its set bits are its
        # true verdicts; a patch writes over bits the base carried in.
        if base is not None:
            count = np.count_nonzero(dense)
        else:
            count = len(cells) if verdict is None else np.count_nonzero(verdict)
        return CellBlock(hosts, words, count)
    host_parts = []
    word_parts = []
    count = 0
    for start in range(0, num_hosts, band):
        stop = min(start + band, num_hosts)
        inside = (cells >= start * padded) & (cells < stop * padded)
        kept, words, dense = _pack_band(
            cells[inside] - start * padded,
            None if verdict is None else verdict[inside], padded, start, stop,
            base)
        host_parts.append(kept + start)
        word_parts.append(words)
        count += int(np.count_nonzero(dense))
    return CellBlock(np.concatenate(host_parts), np.concatenate(word_parts),
                     count)


def _mirrors_hosting_arcs(query: QueryNetwork, constraint,
                          hosting: HostingNetwork) -> bool:
    """Whether arc row ``(ra, rb)`` and its mirror ``(rb, ra)`` get the same
    edge verdict for every query pair: on an undirected hosting network the
    two rows read one ``rEdge`` dict, and the (single, undirected) query
    edge of a pair reads nothing but ``rEdge`` / ``vEdge``.  A directed
    side, an ``rSource`` / ``vTarget`` read or a constraint the vectorizer
    declines answers ``False``."""
    if query.directed or hosting.directed:
        return False
    plan = _vector_plan(constraint)
    return plan is not None and all(obj in ("rEdge", "vEdge")
                                    for obj, _attr in plan[1])


def _pack_pairs(query: QueryNetwork, constraint, verdicts,
                compiled: HostingCompile, allowed_masks: Dict[NodeId, int],
                rows=None, base: Optional[Dict[BlockKey, CellBlock]] = None
                ) -> Dict[BlockKey, CellBlock]:
    """Both directions' blocks of every query pair, in canonical order
    (query pair order, ``ab`` before ``ba``).  A patch passes the *rows* its
    verdicts cover and the *base* blocks they are written over.

    A *symmetric* pair packs once and stores the one block under both keys:
    when mirrored arc rows get the same edge verdict
    (:func:`_mirrors_hosting_arcs`) and the pair's endpoints are screened
    alike, ``F(qa -> qb)`` is its own transpose ``F(qb -> qa)``.  A patch
    keeps the property — the rows of a touched node or edge come in mirrored
    couples (:meth:`HostingCompile.rows_for`) — whatever its base held.
    """
    cell_ab, cell_ba = compiled.cell_addresses()
    if rows is not None:
        cell_ab, cell_ba = cell_ab[rows], cell_ba[rows]
    num_hosts = compiled.num_hosts
    mirrored = _mirrors_hosting_arcs(query, constraint, compiled.hosting)
    blocks: Dict[BlockKey, CellBlock] = {}
    for (qa, qb), verdict in verdicts.items():
        packed = blocks[(qa, qb)] = _pack_cells(
            cell_ab, verdict, num_hosts,
            None if base is None else base[(qa, qb)])
        if not (mirrored
                and allowed_masks.get(qa, 0) == allowed_masks.get(qb, 0)):
            packed = _pack_cells(cell_ba, verdict, num_hosts,
                                 None if base is None else base[(qb, qa)])
        blocks[(qb, qa)] = packed
    return blocks


def _node_candidate_masks(query: QueryNetwork,
                          blocks: Dict[BlockKey, CellBlock],
                          allowed_masks: Dict[NodeId, int]) -> Dict[NodeId, int]:
    """Expression (1) per query node: a host is a candidate iff some cell it
    is placed in is non-empty.  Query nodes with no filter entry (no edges,
    or no matching pair at all) fall back to the node-screening mask so
    expression (1) still has something to offer."""
    derived: Dict[NodeId, int] = {}
    # A symmetric pair's one block sits under both keys: decode it once.
    host_masks: Dict[int, int] = {}
    for (placed, _following), block in blocks.items():
        if len(block.hosts):
            mask = host_masks.get(id(block))
            if mask is None:
                mask = host_masks[id(block)] = block.host_mask()
            derived[placed] = derived.get(placed, 0) | mask
    return {node: derived.get(node, 0) or allowed_masks.get(node, 0)
            for node in query.nodes()}


# --------------------------------------------------------------------------- #
# Node screening
# --------------------------------------------------------------------------- #

def _screen_nodes(query: QueryNetwork, hosting: Network,
                  node_constraint: Optional[ConstraintExpression],
                  indexer: NodeIndexer) -> Dict[NodeId, int]:
    """:func:`compute_node_candidates` as masks over *indexer*; without a
    node constraint every query node shares the indexer's full mask."""
    if node_constraint is None or node_constraint.is_trivial:
        full_mask = indexer.full_mask
        return {node: full_mask for node in query.nodes()}
    allowed = compute_node_candidates(query, hosting, node_constraint)
    return {node: indexer.encode(allowed[node]) for node in query.nodes()}


def rescreen_nodes(query: QueryNetwork, hosting: Network,
                   node_constraint: ConstraintExpression, indexer: NodeIndexer,
                   touched: Iterable[NodeId],
                   allowed_masks: Dict[NodeId, int]) -> None:
    """Re-evaluate *node_constraint* for the *touched* hosting nodes and set
    or clear their bit in every query node's mask of *allowed_masks*, in
    place — the node-screening half of an attr-only patch (hosts the delta
    names but the network no longer has are skipped)."""
    touched_hosts = [(hosting.node_attrs(host), indexer.bit(host))
                     for host in sorted(touched, key=str)
                     if hosting.has_node(host)]
    evaluate = node_constraint.evaluate
    for query_node in query.nodes():
        context = {"vNode": query.node_attrs(query_node), "rNode": None}
        mask = allowed_masks.get(query_node, 0)
        for attrs, bit in touched_hosts:
            context["rNode"] = attrs
            if evaluate(context):
                mask |= bit
            else:
                mask &= ~bit
        allowed_masks[query_node] = mask


def compute_node_candidates(query: QueryNetwork, hosting: Network,
                            node_constraint: Optional[ConstraintExpression] = None
                            ) -> Dict[NodeId, Set[NodeId]]:
    """Per-query-node hosting candidates from node-level constraints alone.

    Without a node constraint every hosting node is a candidate for every
    query node; with one, the expression is evaluated for every
    (query node, hosting node) pair.  This is the node-screening step that
    §V-A describes as "applying the constraint expression [to] determine the
    number of possible mappings for each virtual node".

    The query-side half of the evaluation context is built once per query
    node and only the ``rNode`` slot is rebound in the inner loop, mirroring
    the context-hoisting that :func:`build_filters` does for edges.
    """
    hosts = hosting.nodes()
    if node_constraint is None or node_constraint.is_trivial:
        return {node: set(hosts) for node in query.nodes()}
    host_attrs = [(host, hosting.node_attrs(host)) for host in hosts]
    evaluate = node_constraint.evaluate
    allowed: Dict[NodeId, Set[NodeId]] = {}
    for query_node in query.nodes():
        context = {"vNode": query.node_attrs(query_node), "rNode": None}
        matches: Set[NodeId] = set()
        for host, attrs in host_attrs:
            context["rNode"] = attrs
            if evaluate(context):
                matches.add(host)
        allowed[query_node] = matches
    return allowed


# --------------------------------------------------------------------------- #
# Incremental filter patching (delta-aware recompiles)
# --------------------------------------------------------------------------- #

#: Above this fraction of re-evaluated arc rows the patch declines and the
#: caller rebuilds.
PATCH_ROW_FRACTION = 0.25


def patch_filters(filters: FilterMatrices, query: QueryNetwork,
                  hosting: HostingNetwork, constraint: ConstraintExpression,
                  node_constraint: Optional[ConstraintExpression] = None,
                  compiled: Optional[HostingCompile] = None,
                  delta: Optional[NetworkDelta] = None,
                  deadline=None) -> Optional[FilterMatrices]:
    """Re-derive *filters* for an attr-only hosting delta by patching rows.

    Re-evaluates the edge constraint only for the hosting-arc rows the delta
    touched (and the node constraint only for the touched hosting nodes),
    writes those verdicts over a copy of each block's bits and re-packs
    (:func:`_pack_cells`, the step a build ends in), then re-derives the
    per-node candidate masks.  The result is **element identical** to
    :func:`build_filters` run from scratch on the mutated network — same
    blocks array for array, same fallbacks — which is the property the test
    suite verifies over randomised mutation sequences.

    Returns a *new* :class:`FilterMatrices` (the input is never mutated, so
    concurrent executes against the old plan stay safe), or ``None`` when
    patching does not apply: no delta (journal overflow), a structural
    delta, a foreign/stale hosting compile, or a delta touching more than
    :data:`PATCH_ROW_FRACTION` of the arc rows.

    Cumulative statistics: ``constraint_evaluations`` / ``build_seconds``
    accumulate the patch work on top of the original build's, and
    ``patches`` / ``patched_rows`` record how much incremental work produced
    the current state.
    """
    if delta is None or delta.structural:
        return None
    if compiled is None:
        compiled = compile_hosting(hosting)
    if compiled.hosting is not hosting or compiled.stale:
        return None
    indexer = filters.host_indexer
    if compiled.indexer.nodes != indexer.nodes:
        return None   # dense index drifted; masks would be misaligned
    if delta.empty:
        return filters

    # Relevance filtering: only mutations that wrote an attribute one of the
    # expressions actually reads can flip any bit.  Everything else — load
    # jitter under a delay constraint, bookkeeping attributes — re-derives
    # to the exact same filters, so those rows are skipped outright.
    edge_attrs_read: set = set()
    node_attrs_read: set = set()
    if not constraint.is_trivial:
        for obj, attr in referenced_attributes(constraint.ast):
            if obj == "rEdge":
                edge_attrs_read.add(attr)
            elif obj in ("rSource", "rTarget"):
                node_attrs_read.add(attr)
    screening = node_constraint is not None and not node_constraint.is_trivial
    screen_attrs_read: set = set()
    if screening:
        for obj, attr in referenced_attributes(node_constraint.ast):
            if obj == "rNode":
                screen_attrs_read.add(attr)

    relevant_edges = [edge for edge, names in delta.touched_edge_attrs.items()
                      if names & edge_attrs_read]
    # A re-screened host gates `matched` on every row it appears in, so
    # screening-relevant nodes join the row set alongside rSource/rTarget
    # reads.
    screen_nodes = [node for node, names in delta.touched_node_attrs.items()
                    if names & screen_attrs_read]
    relevant_nodes = set(screen_nodes)
    relevant_nodes.update(node for node, names
                          in delta.touched_node_attrs.items()
                          if names & node_attrs_read)

    if not relevant_edges and not relevant_nodes:
        return filters   # the delta never touched anything the filters read

    rows = np.asarray(
        compiled.rows_for(nodes=relevant_nodes, edges=relevant_edges),
        dtype=np.int64)
    if len(rows) > PATCH_ROW_FRACTION * max(1, len(compiled.host_pair_info)):
        return None

    stopwatch = Stopwatch().start()

    # Re-screen the relevantly-touched hosting nodes against the node
    # constraint; this both gates the row re-evaluation below and refreshes
    # the expression-(1) fallback for query nodes left without any match.
    allowed_masks = dict(filters.node_allowed_masks)
    if screening and screen_nodes:
        rescreen_nodes(query, hosting, node_constraint, indexer, screen_nodes,
                       allowed_masks)

    verdicts, evaluations = _pair_verdicts(
        query, constraint, _pair_edges(query), compiled, allowed_masks,
        deadline, rows=rows)
    blocks = _pack_pairs(query, constraint, verdicts, compiled, allowed_masks,
                         rows=rows, base=filters.blocks)
    patched = FilterMatrices(
        host_indexer=indexer,
        blocks=blocks,
        arcs=filters.arcs,
        node_candidate_masks=_node_candidate_masks(query, blocks,
                                                   allowed_masks),
        constraint_evaluations=filters.constraint_evaluations + evaluations,
        node_allowed_masks=allowed_masks,
        patches=filters.patches + 1,
        patched_rows=filters.patched_rows + len(rows),
    )
    patched.build_seconds = filters.build_seconds + stopwatch.stop()
    return patched

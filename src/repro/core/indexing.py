"""Dense node indexing and bitmask encoding for the candidate-set algebra.

The filter matrices and the search inner loops historically manipulated
Python ``set`` objects keyed by arbitrary hashable node ids.  Re-encoding
those sets as integer bitmasks over a *dense index* turns every intersection,
union and subtraction of the hot path into single-instruction-per-word
bitwise arithmetic on Python ints:

* expression (2)'s intersection chain becomes ``mask & cell``;
* the "minus hosts already in use" subtraction becomes ``mask & ~used_mask``;
* candidate counting becomes ``mask.bit_count()``.

:class:`NodeIndexer` owns the id ↔ index mapping.  Indices are assigned in
``sorted(nodes, key=str)`` order, so decoding a mask by ascending bit index
yields exactly the ``sorted(candidates, key=str)`` order the pre-bitset
search used — the mapping streams produced by ECF/RWB/LNS stay byte-for-byte
identical to the set-based engine.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, List, Set, Tuple

NodeId = Hashable

#: Fixed mask-word width.  Filter cells are stored, shipped across process
#: boundaries and read by the compiled kernel as little-endian arrays of
#: this many bits per word (see :mod:`repro.core.words`); unbounded Python
#: ints are decoded from them where arbitrary-precision ``&``/``|`` is the
#: convenient algebra (the interpreted kernel, the accessor API).
WORD_BITS = 64


def word_count(num_bits: int) -> int:
    """How many fixed-width words cover *num_bits* mask bits (at least one,
    so degenerate empty indexes still yield well-formed word arrays)."""
    return max(1, (num_bits + WORD_BITS - 1) // WORD_BITS)


class NodeIndexer:
    """A stable, dense mapping from node ids to contiguous bit positions.

    Parameters
    ----------
    nodes:
        The node universe.  Bit positions follow ``sorted(nodes, key=str)``
        (ties between distinct ids with equal ``str`` keep the input order,
        which is the network's deterministic insertion order), so ascending
        bit order *is* the canonical candidate order of the search.
    """

    __slots__ = ("_nodes", "_index")

    def __init__(self, nodes: Iterable[NodeId] = ()) -> None:
        self._nodes: Tuple[NodeId, ...] = tuple(sorted(nodes, key=str))
        self._index = {node: i for i, node in enumerate(self._nodes)}
        if len(self._index) != len(self._nodes):
            raise ValueError("duplicate node ids cannot be densely indexed")

    # ------------------------------------------------------------------ #
    # Index protocol
    # ------------------------------------------------------------------ #

    @property
    def nodes(self) -> Tuple[NodeId, ...]:
        """All indexed nodes in bit order (ascending ``str`` order)."""
        return self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._index

    def index_of(self, node: NodeId) -> int:
        """The bit position of *node* (raises ``KeyError`` if unindexed)."""
        return self._index[node]

    def node_at(self, index: int) -> NodeId:
        """The node occupying bit position *index*."""
        return self._nodes[index]

    def bit(self, node: NodeId) -> int:
        """The single-bit mask ``1 << index_of(node)``."""
        return 1 << self._index[node]

    @property
    def full_mask(self) -> int:
        """The mask with every indexed node's bit set."""
        return (1 << len(self._nodes)) - 1

    # ------------------------------------------------------------------ #
    # Mask encoding / decoding
    # ------------------------------------------------------------------ #

    def encode(self, nodes: Iterable[NodeId]) -> int:
        """The bitmask over *nodes*.

        Ids outside the index are ignored: subtracting or intersecting an
        unknown node is a no-op under set semantics, and tolerating them
        keeps the decode views drop-in compatible with the old set API.
        """
        index = self._index
        mask = 0
        for node in nodes:
            i = index.get(node)
            if i is not None:
                mask |= 1 << i
        return mask

    def iter_indices(self, mask: int) -> Iterator[int]:
        """Yield the set bit positions of *mask* in ascending order."""
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def decode(self, mask: int) -> List[NodeId]:
        """The nodes of *mask* in ascending bit order (= ``sorted(key=str)``)."""
        nodes = self._nodes
        return [nodes[i] for i in self.iter_indices(mask)]

    def decode_set(self, mask: int) -> Set[NodeId]:
        """The nodes of *mask* as a plain set."""
        nodes = self._nodes
        return {nodes[i] for i in self.iter_indices(mask)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NodeIndexer over {len(self._nodes)} nodes>"


def popcount(mask: int) -> int:
    """Number of set bits in *mask* (the cardinality of the encoded set)."""
    return mask.bit_count()

"""Fixed-width word encoding of the candidate-set bitmasks.

Bit *i* of a mask lives in word ``i // 64``, bit ``i % 64`` — i.e. a word
row is exactly ``mask.to_bytes(..., "little")`` viewed as ``uint64``.  That
layout is the stored form of every filter cell
(:class:`~repro.core.filters.CellBlock` packs its rows with
``np.packbits(..., bitorder="little")``) and what the compiled search
kernel (:mod:`repro.core.kernel`) iterates — fixed-width words admit
branch-free popcount/ctz and ``nogil`` compilation, which
arbitrary-precision ints never can.  Python ints are the *derived* form:
the interpreted kernel and the accessor views of
:class:`~repro.core.filters.FilterMatrices` decode them from the words on
demand, and nothing keeps the two in step because only one is ever stored.

This module holds the conversions between the two forms, all loss-free and
exact on round trip (including masks of zero and masks whose top bit sits
on a word boundary), and :class:`WordTable`, the keyed family of word rows
that carries LNS's small per-node mask dicts across process boundaries and
backs the :class:`~repro.core.filters.FilterWords` diagnostic views.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.constraints.vectorizer import HAVE_NUMPY, np

from repro.core.indexing import WORD_BITS, word_count

__all__ = [
    "WORD_BITS",
    "word_count",
    "mask_to_words",
    "words_to_mask",
    "pack_masks",
    "unpack_masks",
    "WordTable",
]

_WORD_BYTES = WORD_BITS // 8


def _require_numpy() -> None:
    if not HAVE_NUMPY:  # pragma: no cover - numpy is a baked-in dependency
        raise RuntimeError("word-array masks require numpy")


def mask_to_words(mask: int, num_words: int):
    """Encode a non-negative int *mask* as ``num_words`` little-endian uint64.

    Raises ``OverflowError`` if the mask does not fit — a mask wider than
    its indexer is always a bug upstream, never something to truncate.
    """
    _require_numpy()
    if mask < 0:
        raise ValueError("masks are non-negative candidate sets")
    raw = mask.to_bytes(num_words * _WORD_BYTES, "little")
    return np.frombuffer(raw, dtype=np.uint64).copy()


def words_to_mask(row) -> int:
    """Decode one word row (any uint64 sequence) back to the Python int."""
    _require_numpy()
    arr = np.ascontiguousarray(row, dtype=np.uint64)
    return int.from_bytes(arr.tobytes(), "little")


def pack_masks(masks: Sequence[int], num_words: int):
    """Stack many masks into one C-contiguous ``(len(masks), num_words)``
    uint64 array (zero rows when *masks* is empty — no row is ever
    referenced in that case)."""
    _require_numpy()
    if not masks:
        return np.zeros((0, num_words), dtype=np.uint64)
    raw = b"".join(mask.to_bytes(num_words * _WORD_BYTES, "little")
                   for mask in masks)
    out = np.frombuffer(raw, dtype=np.uint64).copy()
    return out.reshape(len(masks), num_words)


def unpack_masks(words) -> List[int]:
    """Inverse of :func:`pack_masks` — one int per row."""
    _require_numpy()
    arr = np.ascontiguousarray(words, dtype=np.uint64)
    width = arr.shape[1] * _WORD_BYTES if arr.ndim == 2 else _WORD_BYTES
    raw = arr.tobytes()
    return [int.from_bytes(raw[i * width:(i + 1) * width], "little")
            for i in range(arr.shape[0])]


class WordTable:
    """A keyed family of masks backed by one contiguous word array.

    This is the word-array twin of a ``{key: int_mask}`` dict: ``keys[r]``
    owns row ``r`` of ``words``.  Zero-valued masks keep their key — an
    empty candidate set is real information (an infeasible node), not an
    absent entry — so ``to_masks()`` round-trips the source dict exactly,
    including insertion order.
    """

    __slots__ = ("keys", "rows", "words", "num_bits")

    def __init__(self, keys: Tuple, words, num_bits: int) -> None:
        self.keys = tuple(keys)
        self.words = words
        self.num_bits = int(num_bits)
        self.rows: Dict[object, int] = {k: r for r, k in enumerate(self.keys)}

    @classmethod
    def from_masks(cls, masks: Dict[object, int], num_bits: int) -> "WordTable":
        nw = word_count(num_bits)
        return cls(tuple(masks.keys()),
                   pack_masks(list(masks.values()), nw), num_bits)

    @property
    def num_words(self) -> int:
        return int(self.words.shape[1])

    def __len__(self) -> int:
        return len(self.keys)

    def row_of(self, key) -> int:
        """Row index of *key*, or -1 when absent (kernel sentinel for an
        empty/deleted cell)."""
        return self.rows.get(key, -1)

    def mask_of(self, key) -> int:
        row = self.rows.get(key)
        return 0 if row is None else words_to_mask(self.words[row])

    def to_masks(self) -> Dict[object, int]:
        """Rebuild the ``{key: int_mask}`` dict, order and zeros preserved."""
        ints = unpack_masks(self.words)
        return {key: ints[r] for r, key in enumerate(self.keys)}

    # ------------------------------------------------------------------ #
    # Pickling: ship a private copy, never a view of the parent buffer
    # ------------------------------------------------------------------ #

    def __getstate__(self):
        # np.ascontiguousarray + copy guarantees the pickled payload owns
        # its memory even if self.words is a view into a larger buffer; the
        # rows dict is derivable and stays out of the payload.
        return (self.keys, np.ascontiguousarray(self.words).copy(),
                self.num_bits)

    def __setstate__(self, state):
        keys, words, num_bits = state
        self.keys = tuple(keys)
        self.words = words
        self.num_bits = int(num_bits)
        self.rows = {k: r for r, k in enumerate(self.keys)}

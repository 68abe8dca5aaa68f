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
on a word boundary).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.constraints.vectorizer import HAVE_NUMPY, np

from repro.core.indexing import WORD_BITS, word_count

__all__ = [
    "WORD_BITS",
    "word_count",
    "mask_to_words",
    "words_to_mask",
    "pack_masks",
    "unpack_masks",
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

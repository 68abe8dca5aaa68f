"""The search kernel: the one engine behind ECF and RWB.

ECF's explicit-stack depth-first expansion and RWB's candidate algebra run
here, over a :class:`KernelPlan` — the search-ready view of one
``(filters, order, prior)`` triple — on one of two backends:

* ``python`` — a chunked pure-Python driver over int masks, reading
  per-slot cell tables that decode a mask from the filters' packed blocks
  the first time a walk reads it — only the one direction of each query
  edge the visiting order uses, only the hosts the search places.  Always
  available.
* ``numba`` — the same algorithm transliterated to ``numba.njit`` over the
  blocks' fixed-width ``uint64`` words themselves (:mod:`repro.core.words`),
  compiled ``nogil`` so that thread-based shards are not GIL-bound (what
  it gains is unmeasured: no committed record was taken with numba).

The backend is detected, not selected: it is ``numba`` exactly when numba
imports *and* the compiled kernels pass a tiny compile-and-verify self-test
(a failed self-test warns), ``python`` otherwise.  The probe runs once per
process, on the first search or :func:`active_backend` call — importing this
module probes nothing and reads no environment variable.

Expression (2) — the intersection of the filter cells indexed by a node's
placed neighbours — is written here and nowhere else in the production
path: :func:`candidates_mask` for the interpreted backend (the chunk loop
inlines the same chain) and the njit sources for the compiled one.

**Byte-identity contract.**  Whatever the backend, the mapping stream and
the evaluation counters (``nodes_expanded`` / ``candidates_considered`` /
``backtracks``) are identical to the reference engine's
(:mod:`repro.core.reference`, set semantics over its own filter build):
candidates are tried lowest-bit-first (the canonical ``sorted(key=str)``
order), expansions are counted before the emptiness test, and a result cap
pauses the kernel at exactly the capping leaf.  The one sanctioned
divergence is deadline granularity: the reference polls the deadline every
node, the kernel polls between chunks (a few thousand expansions), so a
*timed-out* run may stop a chunk-width later — never a completed one.
"""

from __future__ import annotations

import threading
import warnings
from typing import Dict, List, Optional, Sequence

from repro.constraints.vectorizer import HAVE_NUMPY, np
from repro.core.indexing import word_count
from repro.core.words import mask_to_words, pack_masks

__all__ = [
    "active_backend",
    "require_backend",
    "describe",
    "numba_available",
    "candidates_mask",
    "ecf_search",
    "RwbCursor",
    "KernelPlan",
]

#: Expansions per kernel chunk before control returns to Python for the
#: deadline/cancellation poll.  Small enough that a cancel lands within
#: milliseconds, large enough that the poll is invisible in profiles.
CHUNK_STEPS = 2048
#: Leaf buffer per chunk; full-enumeration workloads flush mappings to the
#: context in batches of this size (in discovery order).
CHUNK_LEAVES = 256

_DONE = 0
_PAUSED = 1

_NUMBA: Optional[dict] = None
_NUMBA_LOAD_TRIED = False
_LOCK = threading.Lock()


# ---------------------------------------------------------------------- #
# Backend detection
# ---------------------------------------------------------------------- #

def _load_numba() -> Optional[dict]:
    """The njit callable table, or ``None`` when numba is missing or its
    kernels fail their self-test (the latter with a warning).

    Resolved once per process, by the first caller: compiled (or loaded
    from ``NUMBA_CACHE_DIR``) and self-verified under ``_LOCK``, so threads
    racing the first search probe once and agree on the answer."""
    global _NUMBA, _NUMBA_LOAD_TRIED
    if _NUMBA_LOAD_TRIED:
        return _NUMBA
    with _LOCK:
        if _NUMBA_LOAD_TRIED:
            return _NUMBA
        try:
            if not HAVE_NUMPY:
                return None
            try:
                import numba
            except Exception:
                return None
            try:
                table = _compile_numba(numba)
                _self_test(table)
            except Exception as exc:  # pragma: no cover - depends on numba build
                warnings.warn(
                    f"numba search kernel failed its compile/self-test ({exc!r}); "
                    f"using the pure-python kernel instead", RuntimeWarning,
                    stacklevel=3)
                return None
            _NUMBA = table
            return table
        finally:
            # Set last: the unlocked read above only ever sees a finished probe.
            _NUMBA_LOAD_TRIED = True


def active_backend() -> str:
    """The backend searches run on: ``"numba"`` when the compiled kernels
    loaded and verified in this process, ``"python"`` otherwise."""
    return "numba" if _load_numba() is not None else "python"


def require_backend(name: str) -> None:
    """Assert the active backend is *name* — CI calls this so a numba job
    that silently fell back to python fails loudly instead of green-washing
    the matrix."""
    backend = active_backend()
    if backend != name:
        raise RuntimeError(
            f"kernel backend is {backend!r}, expected {name!r}")


def numba_available() -> bool:
    """Whether the numba kernels load and verify in this process (the first
    call makes the once-per-process load attempt)."""
    return _load_numba() is not None


def describe() -> Dict[str, object]:
    """Diagnostic snapshot (surfaced by ``EmbeddingPlan.describe`` and CI)."""
    return {
        "backend": active_backend(),
        "numba_available": numba_available(),
        "chunk_steps": CHUNK_STEPS,
        "chunk_leaves": CHUNK_LEAVES,
    }


# ---------------------------------------------------------------------- #
# Kernel plans: the search-ready view of one (filters, order) pair
# ---------------------------------------------------------------------- #

class _SlotCells(dict):
    """One slot's ``host index -> int mask`` table, decoded on first read.

    A miss decodes the host's row of the slot's block
    (:meth:`~repro.core.filters.CellBlock.mask_of`; an absent block or row
    is the zero mask, which prunes the branch like any other empty
    intersection) and keeps it, so the table only ever holds the hosts a
    walk placed the slot's neighbour on.  Filling is idempotent: thread
    shards racing on one miss store the same int.
    """

    __slots__ = ("block",)

    def __init__(self, block) -> None:
        self.block = block

    def __missing__(self, host: int) -> int:
        block = self.block
        mask = self[host] = 0 if block is None else block.mask_of(host)
        return mask


class KernelPlan:
    """The search-ready view of one ``(filters, order, prior)`` triple.

    Every depth gets one *slot* per prior neighbour, and a slot reads the
    one direction of that query edge the visiting order uses — the filters'
    packed :class:`~repro.core.filters.CellBlock` for ``(neighbour, node)``.
    The python backend reads a slot through a :class:`_SlotCells` table that
    decodes ``host index -> int mask`` from the block on first read, so
    building a plan costs O(slots) and a held plan fills in only the
    ``(slot, host)`` pairs its searches reach; the numba backend stacks the
    same blocks into one word array with a ``host index -> row`` table per
    slot (``-1`` = empty cell).

    A plan is a function of its triple and nothing else, so the
    :class:`~repro.core.plan.PreparedSearch` that holds the triple owns it
    (:meth:`~repro.core.plan.PreparedSearch.kernel_plan`): built on first
    search, never pickled (shards rebuild from the shipped blocks in their
    own process).  It holds the blocks and ints it reads, never the filters
    or the prepared search, so owning it creates no reference cycle.
    """

    __slots__ = ("order", "prior", "indexer", "host_nodes", "depth_of", "n",
                 "num_hosts", "node_ints", "cell_tables", "_words")

    def __init__(self, filters, order: Sequence, prior: Sequence) -> None:
        self.order = tuple(order)
        self.prior = tuple(tuple(p) for p in prior)
        self.indexer = filters.host_indexer
        self.host_nodes = self.indexer.nodes
        self.depth_of = {node: d for d, node in enumerate(self.order)}
        self.n = len(self.order)
        self.num_hosts = len(self.host_nodes)
        node_masks = filters.node_candidate_masks
        self.node_ints: List[int] = [node_masks.get(node, 0)
                                     for node in self.order]
        blocks = filters.blocks
        #: Per depth, ``None`` (no prior neighbour) or one ``(neighbour's
        #: depth, cells)`` slot per prior neighbour.
        self.cell_tables = tuple(
            tuple((self.depth_of[neighbor],
                   _SlotCells(blocks.get((neighbor, node))))
                  for neighbor in neighbors) if neighbors else None
            for node, neighbors in zip(self.order, self.prior))
        self._words = None

    def words(self):
        """The numba-side arrays, built once: ``(match_words, node_words,
        prior_off, slot_depth, slot_rows, num_words)``.

        ``match_words`` stacks the slots' blocks in slot order, so a slot's
        row ids are its block's offset plus the position of each host that
        stores a row; every other host maps to ``-1``.
        """
        cached = self._words
        if cached is None:
            nw = word_count(self.num_hosts)
            slots = [slot for depth_slots in self.cell_tables
                     for slot in depth_slots or ()]
            slot_rows = np.full((len(slots), max(1, self.num_hosts)), -1,
                                dtype=np.int64)
            stacked = [np.zeros((0, nw), dtype=np.uint64)]
            offset = 0
            for slot, (_nb_depth, cells) in enumerate(slots):
                block = cells.block
                if block is None:
                    continue
                rows = len(block.hosts)
                slot_rows[slot, block.hosts] = np.arange(offset, offset + rows)
                stacked.append(block.words)
                offset += rows
            offsets = np.cumsum([0] + [len(depth_slots or ())
                                       for depth_slots in self.cell_tables])
            cached = (np.ascontiguousarray(np.concatenate(stacked),
                                           dtype=np.uint64),
                      pack_masks(self.node_ints, nw),
                      np.asarray(offsets, dtype=np.int64),
                      np.asarray([nb_depth for nb_depth, _cells in slots],
                                 dtype=np.int64),
                      slot_rows,
                      nw)
            self._words = cached
        return cached


# ---------------------------------------------------------------------- #
# Shared candidate algebra (python ints)
# ---------------------------------------------------------------------- #

def candidates_mask(plan: KernelPlan, depth: int, assign_idx, used: int) -> int:
    """Expression (2) for ``order[depth]`` over the plan's cell tables
    (expression (1) when no neighbour is placed), minus used hosts.

    *assign_idx* holds the host index placed at each earlier depth.  Every
    expansion outside a chunk goes through here: the search's root, ECF's
    shard-split prefix levels and the interpreted RWB cursor."""
    slots = plan.cell_tables[depth]
    if slots is None:
        mask = plan.node_ints[depth]
    else:
        mask = -1
        for nb_depth, cells in slots:
            mask &= cells[assign_idx[nb_depth]]
            if not mask:
                return 0
    return mask & ~used


# ---------------------------------------------------------------------- #
# ECF: chunked explicit-stack drivers
# ---------------------------------------------------------------------- #

def _ecf_chunk_ints(remaining: List[int], placed: List[int],
                    assign_idx: List[int], depth: int, start_depth: int,
                    n: int, used: int, node_ints, cell_tables,
                    max_steps: int, leaves: list, max_leaves: int):
    """One chunk of the explicit-stack DFS on int masks.

    Lowest-bit-first trials, expansions counted before the emptiness test,
    a backtrack counted per freshly empty child.  Leaves are buffered (as
    assignment-index rows) and the chunk returns after *max_steps*
    expansions or *max_leaves* leaves so the driver can poll the deadline
    and flush.  The child expansion inlines :func:`candidates_mask`.
    """
    steps = expanded = considered = backtracks = 0
    last = n - 1
    while depth >= start_depth:
        mask = remaining[depth]
        if not mask:
            bit = placed[depth]
            if bit:
                used ^= bit
                placed[depth] = 0
            depth -= 1
            continue
        low = mask & -mask
        remaining[depth] = mask ^ low
        prev = placed[depth]
        if prev:
            used ^= prev
        placed[depth] = low
        used |= low
        assign_idx[depth] = low.bit_length() - 1
        if depth == last:
            leaves.append(assign_idx[start_depth:])
            if len(leaves) >= max_leaves:
                return _PAUSED, depth, used, expanded, considered, backtracks
            continue
        depth += 1
        slots = cell_tables[depth]
        if slots is None:
            child = node_ints[depth] & ~used
        else:
            child = -1
            for nb_depth, cells in slots:
                child &= cells[assign_idx[nb_depth]]
                if not child:
                    break
            if child:
                child &= ~used
        expanded += 1
        considered += child.bit_count()
        remaining[depth] = child
        placed[depth] = 0
        if not child:
            backtracks += 1
        steps += 1
        if steps >= max_steps:
            return _PAUSED, depth, used, expanded, considered, backtracks
    return _DONE, depth, used, expanded, considered, backtracks


def _leaf_budget(context, n_mapped_cap: Optional[int]) -> int:
    """Leaves the next chunk may buffer: the result cap (minus what is
    already recorded) bounds it so the kernel pauses at exactly the capping
    leaf and never explores — or counts — past what the reference would."""
    if n_mapped_cap is None:
        return CHUNK_LEAVES
    return max(1, min(CHUNK_LEAVES, n_mapped_cap - len(context.mappings)))


def ecf_search(context, plan: KernelPlan, start_depth: int = 0,
               assignment: Optional[dict] = None, used_mask: int = 0,
               start_mask: Optional[int] = None) -> bool:
    """ECF's ordered depth-first search (Fig. 4).  Returns ``False`` iff the
    search stopped early on the result cap.

    A shard of the parallel engine resumes below an assignment prefix:
    *start_depth* / *assignment* / *used_mask* describe the prefix and
    *start_mask* is its precomputed (and already counted, by
    ``ECF._shard_specs``) candidate mask for ``order[start_depth]``;
    backtracking bottoms out at the prefix instead of the root.
    """
    # An already-expired budget must surface zero mappings, not a chunk's
    # worth.  Mid-run granularity stays chunk-width (sanctioned).
    context.check_deadline()
    if _load_numba() is not None:
        return _ecf_search_words(context, plan, start_depth, assignment,
                                 used_mask, start_mask)
    return _ecf_search_ints(context, plan, start_depth, assignment,
                            used_mask, start_mask)


def _prefix_indices(plan: KernelPlan, prefix: dict, assign_idx) -> None:
    index_of = plan.indexer.index_of
    depth_of = plan.depth_of
    for node, host in prefix.items():
        assign_idx[depth_of[node]] = index_of(host)


def _ecf_search_ints(context, plan, start_depth, assignment, used_mask,
                     start_mask) -> bool:
    n = plan.n
    stats = context.stats
    prefix = dict(assignment) if assignment else {}
    assign_idx = [-1] * n
    _prefix_indices(plan, prefix, assign_idx)

    if start_mask is None:
        mask = candidates_mask(plan, start_depth, assign_idx, used_mask)
        stats.nodes_expanded += 1
        stats.candidates_considered += mask.bit_count()
        if not mask:
            stats.backtracks += 1
            return True
    else:
        mask = start_mask    # expansion already counted by _shard_specs
        if not mask:
            return True

    remaining = [0] * n
    placed = [0] * n
    remaining[start_depth] = mask
    depth = start_depth
    used = used_mask
    order = plan.order
    host_nodes = plan.host_nodes
    cap = context.max_results
    record_mapping = context.record_mapping

    while True:
        leaves: list = []
        status, depth, used, expanded, considered, backtracks = \
            _ecf_chunk_ints(remaining, placed, assign_idx, depth, start_depth,
                            n, used, plan.node_ints, plan.cell_tables,
                            CHUNK_STEPS, leaves, _leaf_budget(context, cap))
        stats.nodes_expanded += expanded
        stats.candidates_considered += considered
        stats.backtracks += backtracks
        for row in leaves:
            mapping = dict(prefix)
            for d in range(start_depth, n):
                mapping[order[d]] = host_nodes[row[d - start_depth]]
            if record_mapping(mapping):
                return False
        if status == _DONE:
            return True
        context.check_deadline()


def _ecf_search_words(context, plan, start_depth, assignment, used_mask,
                      start_mask) -> bool:
    kernels = _NUMBA
    match_words, node_words, prior_off, slot_depth, slot_rows, nw = plan.words()
    n = plan.n
    stats = context.stats
    prefix = dict(assignment) if assignment else {}
    assign_idx = np.full(n, -1, dtype=np.int64)
    _prefix_indices(plan, prefix, assign_idx)

    if start_mask is None:
        mask = candidates_mask(plan, start_depth, assign_idx, used_mask)
        stats.nodes_expanded += 1
        stats.candidates_considered += mask.bit_count()
        if not mask:
            stats.backtracks += 1
            return True
    else:
        mask = start_mask
        if not mask:
            return True

    remaining = np.zeros((n, nw), dtype=np.uint64)
    remaining[start_depth] = mask_to_words(mask, nw)
    placed_idx = np.full(n, -1, dtype=np.int64)
    used = mask_to_words(used_mask, nw)
    out = np.zeros(5, dtype=np.int64)
    depth = start_depth
    order = plan.order
    host_nodes = plan.host_nodes
    cap = context.max_results
    record_mapping = context.record_mapping
    ecf_chunk = kernels["ecf"]

    while True:
        max_leaves = _leaf_budget(context, cap)
        leaves = np.empty((max_leaves, n), dtype=np.int64)
        status = ecf_chunk(remaining, placed_idx, assign_idx, used,
                           node_words, prior_off, slot_depth, slot_rows,
                           match_words, depth, start_depth, n, nw,
                           CHUNK_STEPS, leaves, max_leaves, out)
        depth = int(out[0])
        stats.nodes_expanded += int(out[1])
        stats.candidates_considered += int(out[2])
        stats.backtracks += int(out[3])
        for i in range(int(out[4])):
            mapping = dict(prefix)
            for d in range(start_depth, n):
                mapping[order[d]] = host_nodes[int(leaves[i, d])]
            if record_mapping(mapping):
                return False
        if status == _DONE:
            return True
        context.check_deadline()


# ---------------------------------------------------------------------- #
# RWB: kernel-backed candidate cursor
# ---------------------------------------------------------------------- #

class RwbCursor:
    """Incremental candidate algebra for the randomised walk.

    RWB's *control* loop (shuffles, placements) must stay in Python — its
    stream identity is pinned to ``random.Random`` — but its candidate-set
    computation is the same expression-(2) chain as ECF and runs on the
    kernel tables here.  ``candidates(depth)`` returns host *indices* in
    ascending order — the canonical ``sorted(key=str)`` order the reference
    walk shuffles — so the seeded permutations coincide
    (``random.shuffle`` depends only on the length and the rng state).
    """

    __slots__ = ("_plan", "_numba", "_used", "_assign", "_scratch", "_out")

    def __init__(self, plan: KernelPlan) -> None:
        self._plan = plan
        self._numba = _load_numba() is not None
        if self._numba:
            _, _, _, _, _, nw = plan.words()
            self._used = np.zeros(nw, dtype=np.uint64)
            self._assign = np.full(plan.n, -1, dtype=np.int64)
            self._scratch = np.zeros(nw, dtype=np.uint64)
            self._out = np.empty(max(1, plan.num_hosts), dtype=np.int64)
        else:
            self._used = 0
            self._assign = [-1] * plan.n
            self._scratch = self._out = None

    def place(self, depth: int, host_index: int) -> None:
        if self._numba:
            self._used[host_index >> 6] |= np.uint64(1 << (host_index & 63))
        else:
            self._used |= 1 << host_index
        self._assign[depth] = host_index

    def unplace(self, depth: int, host_index: int) -> None:
        if self._numba:
            self._used[host_index >> 6] ^= np.uint64(1 << (host_index & 63))
        else:
            self._used ^= 1 << host_index
        self._assign[depth] = -1

    def candidates(self, depth: int) -> List[int]:
        """Untried host indices for ``order[depth]``, ascending."""
        plan = self._plan
        if self._numba:
            match_words, node_words, prior_off, slot_depth, slot_rows, nw = \
                plan.words()
            count = _NUMBA["rwb"](depth, self._assign, self._used, node_words,
                                  prior_off, slot_depth, slot_rows,
                                  match_words, nw, self._scratch, self._out)
            return [int(h) for h in self._out[:count]]
        mask = candidates_mask(plan, depth, self._assign, self._used)
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out


# ---------------------------------------------------------------------- #
# numba backend: compile + self-test
# ---------------------------------------------------------------------- #

if HAVE_NUMPY:
    # uint64 constants as module globals: numba freezes globals at compile
    # time, and keeping every operand explicitly uint64 avoids the silent
    # uint64/int64 -> float64 promotion trap inside njit code.
    _U0 = np.uint64(0)
    _U1 = np.uint64(1)
    _P5 = np.uint64(0x5555555555555555)
    _P3 = np.uint64(0x3333333333333333)
    _PF = np.uint64(0x0F0F0F0F0F0F0F0F)
    _PH = np.uint64(0x0101010101010101)
    _S32 = np.uint64(32)
    _S16 = np.uint64(16)
    _S8 = np.uint64(8)
    _S4 = np.uint64(4)
    _S2 = np.uint64(2)
    _S1 = np.uint64(1)
    _S56 = np.uint64(56)
    _M32 = np.uint64(0xFFFFFFFF)
    _M16 = np.uint64(0xFFFF)
    _M8 = np.uint64(0xFF)
    _M4 = np.uint64(0xF)
    _M2 = np.uint64(0x3)
    _M1 = np.uint64(0x1)


def _nb_popcount64(x):
    x = x - ((x >> _S1) & _P5)
    x = (x & _P3) + ((x >> _S2) & _P3)
    x = (x + (x >> _S4)) & _PF
    return np.int64((x * _PH) >> _S56)


def _nb_ctz64(x):
    # x is nonzero; binary search over the low bits.
    n = 0
    if x & _M32 == _U0:
        n += 32
        x >>= _S32
    if x & _M16 == _U0:
        n += 16
        x >>= _S16
    if x & _M8 == _U0:
        n += 8
        x >>= _S8
    if x & _M4 == _U0:
        n += 4
        x >>= _S4
    if x & _M2 == _U0:
        n += 2
        x >>= _S2
    if x & _M1 == _U0:
        n += 1
    return n


def _nb_ecf_chunk(remaining, placed_idx, assign_idx, used, node_words,
                  prior_off, slot_depth, slot_rows, match_words, depth,
                  start_depth, n, num_words, max_steps, leaves, max_leaves,
                  out):
    # Word-array transliteration of _ecf_chunk_ints; out receives
    # (depth, expanded, considered, backtracks, n_leaves).
    steps = 0
    expanded = 0
    considered = 0
    backtracks = 0
    n_leaves = 0
    last = n - 1
    while depth >= start_depth:
        w = -1
        for k in range(num_words):
            if remaining[depth, k] != _U0:
                w = k
                break
        if w < 0:
            prev = placed_idx[depth]
            if prev >= 0:
                used[prev >> 6] ^= _U1 << np.uint64(prev & 63)
                placed_idx[depth] = -1
            depth -= 1
            continue
        word = remaining[depth, w]
        b = _nb_ctz64(word)
        remaining[depth, w] = word & (word - _U1)
        host = (w << 6) + b
        prev = placed_idx[depth]
        if prev >= 0:
            used[prev >> 6] ^= _U1 << np.uint64(prev & 63)
        placed_idx[depth] = host
        used[w] |= _U1 << np.uint64(b)
        assign_idx[depth] = host
        if depth == last:
            for d in range(n):
                leaves[n_leaves, d] = assign_idx[d]
            n_leaves += 1
            if n_leaves >= max_leaves:
                out[0] = depth
                out[1] = expanded
                out[2] = considered
                out[3] = backtracks
                out[4] = n_leaves
                return 1
            continue
        depth += 1
        lo = prior_off[depth]
        hi = prior_off[depth + 1]
        count = 0
        if lo == hi:
            for k in range(num_words):
                v = node_words[depth, k] & ~used[k]
                remaining[depth, k] = v
                count += _nb_popcount64(v)
        else:
            alive = True
            row = slot_rows[lo, assign_idx[slot_depth[lo]]]
            if row < 0:
                alive = False
            else:
                for k in range(num_words):
                    remaining[depth, k] = match_words[row, k]
                for j in range(lo + 1, hi):
                    row = slot_rows[j, assign_idx[slot_depth[j]]]
                    if row < 0:
                        alive = False
                        break
                    nz = _U0
                    for k in range(num_words):
                        v = remaining[depth, k] & match_words[row, k]
                        remaining[depth, k] = v
                        nz |= v
                    if nz == _U0:
                        alive = False
                        break
            if alive:
                for k in range(num_words):
                    v = remaining[depth, k] & ~used[k]
                    remaining[depth, k] = v
                    count += _nb_popcount64(v)
            else:
                for k in range(num_words):
                    remaining[depth, k] = _U0
        expanded += 1
        considered += count
        placed_idx[depth] = -1
        if count == 0:
            backtracks += 1
        steps += 1
        if steps >= max_steps:
            out[0] = depth
            out[1] = expanded
            out[2] = considered
            out[3] = backtracks
            out[4] = n_leaves
            return 1
    out[0] = depth
    out[1] = expanded
    out[2] = considered
    out[3] = backtracks
    out[4] = n_leaves
    return 0


def _nb_rwb_candidates(depth, assign_idx, used, node_words, prior_off,
                       slot_depth, slot_rows, match_words, num_words,
                       scratch, out_idx):
    lo = prior_off[depth]
    hi = prior_off[depth + 1]
    if lo == hi:
        for k in range(num_words):
            scratch[k] = node_words[depth, k] & ~used[k]
    else:
        row = slot_rows[lo, assign_idx[slot_depth[lo]]]
        if row < 0:
            return 0
        for k in range(num_words):
            scratch[k] = match_words[row, k]
        for j in range(lo + 1, hi):
            row = slot_rows[j, assign_idx[slot_depth[j]]]
            if row < 0:
                return 0
            nz = _U0
            for k in range(num_words):
                v = scratch[k] & match_words[row, k]
                scratch[k] = v
                nz |= v
            if nz == _U0:
                return 0
        for k in range(num_words):
            scratch[k] &= ~used[k]
    count = 0
    for k in range(num_words):
        word = scratch[k]
        base = k << 6
        while word != _U0:
            out_idx[count] = base + _nb_ctz64(word)
            count += 1
            word &= word - _U1
    return count


def _compile_numba(numba) -> dict:
    # Rebind the module-level kernel sources to their jitted dispatchers so
    # the cross-calls (_nb_ecf_chunk -> _nb_ctz64) resolve to compiled code.
    # Module-level functions keep numba's on-disk cache (NUMBA_CACHE_DIR)
    # usable; locally-defined closures would defeat it.
    global _nb_popcount64, _nb_ctz64, _nb_ecf_chunk, _nb_rwb_candidates
    njit = numba.njit(cache=True, nogil=True)
    if not hasattr(_nb_ecf_chunk, "py_func"):
        _nb_popcount64 = njit(_nb_popcount64)
        _nb_ctz64 = njit(_nb_ctz64)
        _nb_ecf_chunk = njit(_nb_ecf_chunk)
        _nb_rwb_candidates = njit(_nb_rwb_candidates)
    return {"ecf": _nb_ecf_chunk, "rwb": _nb_rwb_candidates}


def _self_test(table: dict) -> None:
    """Run the compiled kernels on a 2-node / 2-host universe and verify
    the mapping order and every counter against hand-computed values."""
    n, hosts, nw = 2, 2, 1
    node_words = np.array([[3], [3]], dtype=np.uint64)
    prior_off = np.array([0, 0, 0], dtype=np.int64)
    slot_depth = np.zeros(0, dtype=np.int64)
    slot_rows = np.zeros((0, hosts), dtype=np.int64)
    match_words = np.zeros((0, nw), dtype=np.uint64)
    remaining = np.zeros((n, nw), dtype=np.uint64)
    remaining[0, 0] = 3
    placed_idx = np.full(n, -1, dtype=np.int64)
    assign_idx = np.full(n, -1, dtype=np.int64)
    used = np.zeros(nw, dtype=np.uint64)
    leaves = np.zeros((8, n), dtype=np.int64)
    out = np.zeros(5, dtype=np.int64)
    status = table["ecf"](remaining, placed_idx, assign_idx, used, node_words,
                          prior_off, slot_depth, slot_rows, match_words,
                          0, 0, n, nw, 64, leaves, 8, out)
    expected = [(0, 1), (1, 0)]
    got = [tuple(int(x) for x in leaves[i]) for i in range(int(out[4]))]
    if (status != 0 or got != expected or int(out[1]) != 2
            or int(out[2]) != 2 or int(out[3]) != 0):
        raise RuntimeError(
            f"ecf kernel self-test mismatch: status={status} leaves={got} "
            f"counters={[int(x) for x in out]}")
    scratch = np.zeros(nw, dtype=np.uint64)
    out_idx = np.zeros(hosts, dtype=np.int64)
    used[0] = 0
    assign_idx[:] = -1
    count = table["rwb"](0, assign_idx, used, node_words, prior_off,
                         slot_depth, slot_rows, match_words, nw, scratch,
                         out_idx)
    if count != 2 or list(out_idx[:2]) != [0, 1]:
        raise RuntimeError(
            f"rwb kernel self-test mismatch: count={count} "
            f"idx={list(out_idx[:count])}")


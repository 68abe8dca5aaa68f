"""The word-array mask backing: encoding, pickling, boundaries.

Every ``FilterMatrices`` cell is stored as numpy ``uint64`` words behind the
accessor API.  This suite pins the encoding itself (bit *i* lives in word
``i // 64``), the boundary cases the word width introduces (exactly 64
hosts, 65, multiples of 64, all-zero and all-one words, removals that empty
a trailing word), and the pickling contract: shipped blocks are private
copies, never views aliasing the parent's buffers, and kernel plans never
travel.
"""

from __future__ import annotations

import pickle
import random

import pytest
from conftest import pinned_kernel, search

from repro.constraints import ConstraintExpression
from repro.constraints.vectorizer import HAVE_NUMPY, np
from repro.api import SearchRequest
from repro.core import ECF, LNS, build_filters, compile_hosting
from repro.core.indexing import WORD_BITS, word_count
from repro.core.reference import ReferenceECF
from repro.graphs.hosting import HostingNetwork
from repro.graphs.query import QueryNetwork

if HAVE_NUMPY:
    from repro.core.words import (mask_to_words, pack_masks, unpack_masks,
                                  words_to_mask)

pytestmark = pytest.mark.skipif(not HAVE_NUMPY,
                                reason="word arrays require numpy")

WINDOW = ConstraintExpression(
    "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay")


# --------------------------------------------------------------------------- #
# Encoding round-trips
# --------------------------------------------------------------------------- #

class TestWordEncoding:
    @pytest.mark.parametrize("num_bits", [1, 63, 64, 65, 128, 130])
    def test_round_trip_structured(self, num_bits):
        nw = word_count(num_bits)
        masks = [
            0,                           # all-zero words
            (1 << num_bits) - 1,         # all-one (up to width)
            1,                           # lowest bit
            1 << (num_bits - 1),         # highest bit
        ]
        if num_bits > WORD_BITS:
            masks += [1 << 63, 1 << 64, (1 << 64) | 1]  # word-boundary bits
        for mask in masks:
            row = mask_to_words(mask, nw)
            assert row.shape == (nw,)
            assert row.dtype == np.uint64
            assert words_to_mask(row) == mask

    def test_round_trip_random(self):
        rng = random.Random(7)
        for num_bits in (64, 65, 127, 128, 192, 300):
            nw = word_count(num_bits)
            for _ in range(50):
                mask = rng.getrandbits(num_bits)
                assert words_to_mask(mask_to_words(mask, nw)) == mask

    def test_bit_position_convention(self):
        # Bit i lives in word i // 64 at in-word position i % 64 — the
        # little-endian layout the compiled kernels assume.
        row = mask_to_words(1 << 70, word_count(128))
        assert row[0] == 0
        assert int(row[1]) == 1 << (70 - 64)

    def test_negative_mask_rejected(self):
        with pytest.raises(ValueError):
            mask_to_words(-1, 1)

    def test_too_wide_mask_rejected(self):
        with pytest.raises(OverflowError):
            mask_to_words(1 << 64, 1)

    def test_pack_unpack(self):
        masks = {"a": 0, "b": (1 << 65) | 3, "c": 1 << 64}
        words = pack_masks(masks.values(), word_count(66))
        assert words.shape == (3, 2)
        assert unpack_masks(words) == list(masks.values())

    def test_pack_empty(self):
        words = pack_masks([], word_count(10))
        assert words.shape == (0, 1)
        assert unpack_masks(words) == []


# --------------------------------------------------------------------------- #
# Workload helpers
# --------------------------------------------------------------------------- #

def ring_workload(num_hosts: int, num_query: int = 3):
    """A hosting ring of *num_hosts* nodes and a path query over it."""
    hosting = HostingNetwork(f"ring-{num_hosts}")
    for i in range(num_hosts):
        hosting.add_node(f"h{i}", name=f"h{i}", osType="linux")
    for i in range(num_hosts):
        hosting.add_edge(f"h{i}", f"h{(i + 1) % num_hosts}",
                         avgDelay=10.0 + (i % 5))
    query = QueryNetwork("path")
    for i in range(num_query):
        query.add_node(f"q{i}")
    for i in range(num_query - 1):
        query.add_edge(f"q{i}", f"q{i + 1}", minDelay=5.0, maxDelay=30.0)
    return query, hosting


def search_signature(result):
    """Everything the byte-identity contract covers, as a comparable value."""
    return (
        [list(m.as_dict().items()) for m in result.mappings],
        result.stats.nodes_expanded,
        result.stats.candidates_considered,
        result.stats.backtracks,
        result.stats.constraint_evaluations,
    )


def ecf_search(query, hosting, backend):
    with pinned_kernel(backend):
        return search(ECF(), query, hosting, constraint=WINDOW)


def reference_search(query, hosting):
    """The oracle: recursive set-semantics ECF over its own filter build."""
    return ReferenceECF().request(
        SearchRequest.build(query, hosting, constraint=WINDOW))


# --------------------------------------------------------------------------- #
# Boundary cases around the 64-bit word width
# --------------------------------------------------------------------------- #

class TestWordBoundaries:
    @pytest.mark.parametrize("num_hosts", [63, 64, 65, 128])
    def test_kernel_matches_legacy_at_boundary(self, num_hosts):
        """"Legacy" is the original engine: the recursive set-semantics
        search of ``core/reference.py``."""
        query, hosting = ring_workload(num_hosts)
        reference = reference_search(query, hosting)
        fast = ecf_search(query, hosting, "python")
        assert search_signature(reference) == search_signature(fast)
        assert (reference.status, reference.timed_out, reference.truncated) \
            == (fast.status, fast.timed_out, fast.truncated)
        assert reference.mappings  # the workload is feasible, not vacuous

    def test_all_one_and_all_zero_words(self):
        # A trivially-true constraint makes every candidate mask all-ones
        # over a 64-host clique row; an unsatisfiable one makes them zero.
        query, hosting = ring_workload(64)
        always = build_filters(query, hosting,
                               ConstraintExpression.always_true(), None)
        full = (1 << 64) - 1
        assert any(mask == full
                   for mask in always.node_candidate_masks.values()) or all(
            words_to_mask(mask_to_words(mask, 1)) == mask
            for mask in always.node_candidate_masks.values())
        never = build_filters(
            query, hosting,
            ConstraintExpression("rEdge.avgDelay >= 1000.0"), None)
        assert all(block.count == 0 for block in never.blocks.values())

    def test_node_removal_empties_trailing_word(self):
        # 65 hosts: h64 is alone in the second word.  Remove it and rebuild;
        # the shrunken table must stay consistent with the kernel search.
        query, hosting = ring_workload(65)
        before = ecf_search(query, hosting, "python")
        assert before.mappings
        hosting.remove_node("h64")
        hosting.add_edge("h63", "h0", avgDelay=10.0)
        filters = build_filters(query, hosting, WINDOW, None)
        assert all(block.words.shape[1] == word_count(64)
                   for block in filters.blocks.values())
        reference = reference_search(query, hosting)
        fast = ecf_search(query, hosting, "python")
        assert search_signature(reference) == search_signature(fast)


# --------------------------------------------------------------------------- #
# Pickling: no aliasing, no compiled handles
# --------------------------------------------------------------------------- #

class TestPickleHygiene:
    def test_filters_round_trip(self):
        query, hosting = ring_workload(65)
        filters = build_filters(query, hosting, WINDOW, None)
        clone = pickle.loads(pickle.dumps(filters))
        assert clone.blocks == filters.blocks
        assert clone.arcs == filters.arcs
        assert clone.node_candidate_masks == filters.node_candidate_masks
        assert clone.node_allowed_masks == filters.node_allowed_masks

    def test_filters_pickle_shares_no_memory(self):
        query, hosting = ring_workload(65)
        filters = build_filters(query, hosting, WINDOW, None)
        clone = pickle.loads(pickle.dumps(filters))
        for key, block in filters.blocks.items():
            assert not np.shares_memory(block.words, clone.blocks[key].words)
            assert not np.shares_memory(block.hosts, clone.blocks[key].hosts)

    def test_prepared_search_pickle_drops_kernel_plan(self):
        """The plan is owned by the PreparedSearch, built on first search;
        a pickle carries none and the clone rebuilds its own — to the same
        stream — from the shipped blocks."""
        query, hosting = ring_workload(24)
        request = SearchRequest.build(query, hosting, constraint=WINDOW)
        plan = ECF().prepare(request)
        prepared = plan.prepared
        assert prepared._kernel_plan is None                 # lazy
        unsearched_blob = pickle.dumps(prepared)
        original = plan.execute()
        assert prepared._kernel_plan is prepared.kernel_plan() is not None
        assert not hasattr(prepared.filters, "_kernel_plan")

        blob = pickle.dumps(prepared)
        assert blob == unsearched_blob                       # nothing rides
        assert prepared._kernel_plan is not None             # owner keeps it
        clone = pickle.loads(blob)
        assert clone._kernel_plan is None
        replayed = ECF().prepare(request)
        replayed.prepared = clone
        assert search_signature(replayed.execute()) \
            == search_signature(original)
        assert clone._kernel_plan is not None

    def test_network_pickle_drops_derived_caches(self):
        query, hosting = ring_workload(24)
        build_filters(query, hosting, WINDOW, None)  # memoises the compile
        assert getattr(hosting, "_hosting_compile", None) is not None
        clone = pickle.loads(pickle.dumps(hosting))
        assert getattr(clone, "_hosting_compile", None) is None

    def test_prepared_search_round_trip(self):
        from repro.api import SearchRequest

        query, hosting = ring_workload(65)
        request = SearchRequest.build(query, hosting, constraint=WINDOW)
        plan = ECF().prepare(request)
        prepared = plan.prepared
        clone = pickle.loads(pickle.dumps(prepared))
        assert clone.allowed_masks == prepared.allowed_masks
        assert clone.adjacency_masks == prepared.adjacency_masks
        assert clone.order == prepared.order

    def test_lns_mask_dicts_round_trip_as_plain_dicts(self):
        """LNS's two int-mask dicts pickle as what they are (Python ints
        already serialise as raw little-endian bytes): equal dicts, with
        insertion order kept, bits above a word boundary included.  The
        edge-verdict memo is derived from the hosting compile and stays
        behind."""
        query, hosting = ring_workload(65)
        request = SearchRequest.build(query, hosting, constraint=WINDOW,
                                      max_results=1)
        compile_hosting(hosting)          # so the run fills a verdict memo
        plan = LNS().prepare(request)
        assert plan.execute().mappings    # fills the adjacency memo
        prepared = plan.prepared
        assert prepared.adjacency_masks
        assert prepared._edge_verdicts.masks
        assert any(mask >> 64 for mask in prepared.allowed_masks.values())
        clone = pickle.loads(pickle.dumps(prepared))
        for name in ("allowed_masks", "adjacency_masks"):
            mine, theirs = getattr(prepared, name), getattr(clone, name)
            assert type(theirs) is dict
            assert list(theirs.items()) == list(mine.items())
        assert clone._edge_verdicts is None
        assert prepared._edge_verdicts.masks    # the owner keeps its memo

"""Packed cell blocks: the one stored form of a filter cell.

``FilterMatrices.blocks`` is what ``build_filters`` produces, what
``patch_filters`` re-packs, what the kernel plans read and what pickling
ships; every dict- or set-shaped surface is a view decoded from it.  This
suite pins the properties that make a single store safe:

* patched blocks are array-equal to rebuilt blocks over random attr-only
  mutation sequences (seeded with the delete / re-insert sequence that broke
  the carried word tables of the two-representation engine), and the derived
  views agree with the set-semantics oracle in :mod:`repro.core.reference`;
* the scalar evaluation pass ends in the same blocks as the batch kernel,
  and a vectorizable build runs the batch kernel at any scene size;
* a query pair's two directions are one block object exactly when their
  cells are provably each other's transpose, and either way equal the
  oracle's;
* the arrays handed to the numba kernel select the cells the int views hold;
* blocks are row-compressed (a sparse host packed in more than one band
  stays within its byte bound);
* a shard payload ships blocks and nothing derived from them;
* a kernel plan does not keep its owner or its filters alive;
* a delay window answered from the compile's sorted index gives the batch
  kernel's blocks and counters — on-edge values, empty and full windows,
  NaN and missing values, banded packing, a compile patched by attribute
  churn — and directed or node-screened builds never take that path;
* on an undirected host the two orientation slots share one column, and a
  compile patched in place answers as a fresh one does.
"""

from __future__ import annotations

import gc
import pickle
import random
import warnings
import weakref
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import patch_every_row, pinned_kernel
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import SearchRequest
from repro.constraints import ConstraintExpression
from repro.core import (
    ECF,
    LNS,
    RWB,
    build_filters,
    compile_hosting,
    kernel,
)
from repro.core import filters as filters_module
from repro.core.base import placed_neighbor_plan
from repro.core.indexing import word_count
from repro.core.parallel import ShardGroup, _GROUP_CACHE, _decode_group
from repro.core.reference import (
    ReferenceECF,
    ReferenceRWB,
    build_filters_reference,
    decode_views,
)
from repro.core.words import mask_to_words, pack_masks
from repro.graphs.hosting import HostingNetwork
from repro.graphs.query import QueryNetwork

WINDOW = ConstraintExpression(
    "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay")
UP = ConstraintExpression("rNode.up == true")


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #

def random_workload(seed: int, directed: bool):
    """A random embedding problem with churnable attributes; some links lack
    the delay metric, and a directed host has one-way links."""
    rng = random.Random(seed)
    num_hosts = rng.randint(5, 10)
    hosting = HostingNetwork("hosting", directed=directed)
    for i in range(num_hosts):
        hosting.add_node(f"h{i}", up=rng.random() < 0.8)
    for i in range(num_hosts):
        for j in range(num_hosts):
            if i == j or (not directed and i > j) or rng.random() > 0.5:
                continue
            if hosting.has_edge(f"h{i}", f"h{j}"):
                continue
            attrs = {}
            if rng.random() < 0.85:
                attrs["avgDelay"] = rng.uniform(5.0, 60.0)
            hosting.add_edge(f"h{i}", f"h{j}", **attrs)
    query = QueryNetwork("query", directed=directed)
    num_query = rng.randint(2, 5)
    for i in range(num_query):
        query.add_node(f"q{i}")
    for i in range(1, num_query):
        low = rng.uniform(0.0, 30.0)
        query.add_edge(f"q{rng.randrange(i)}", f"q{i}",
                       minDelay=round(low, 3),
                       maxDelay=round(low + rng.uniform(5.0, 40.0), 3))
    return query, hosting


def reorder_workload(flip: bool):
    """Six hosts where h0's only in-window edge swaps under churn: one
    touched row empties h0's cells and another re-fills them, within one
    patch.  The two-representation engine deleted and re-inserted the dict
    key there, which moved it to the end of the enumeration."""
    in_delay, out_delay = (1000.0, 10.0) if flip else (10.0, 1000.0)
    hosting = HostingNetwork("hosting")
    for i in range(6):
        hosting.add_node(f"h{i}", up=True)
    hosting.add_edge("h0", "h1", avgDelay=in_delay)
    hosting.add_edge("h0", "h2", avgDelay=out_delay)
    hosting.add_edge("h1", "h2", avgDelay=10.0)
    hosting.add_edge("h2", "h3", avgDelay=10.0)
    hosting.add_edge("h3", "h4", avgDelay=10.0)
    hosting.add_edge("h4", "h5", avgDelay=10.0)
    query = QueryNetwork("query")
    query.add_node("q0")
    query.add_node("q1")
    query.add_edge("q0", "q1", minDelay=5.0, maxDelay=30.0)
    return query, hosting


def swap_h0_edges(hosting: HostingNetwork, flip: bool) -> None:
    hosting.update_edge("h0", "h1", avgDelay=10.0 if flip else 1000.0)
    hosting.update_edge("h0", "h2", avgDelay=1000.0 if flip else 10.0)


def attr_churn(hosting: HostingNetwork, rng: random.Random, steps: int) -> None:
    """Attr-only mutations, relevant and irrelevant alike."""
    edges = hosting.edges()
    nodes = hosting.nodes()
    for _ in range(steps):
        roll = rng.random()
        if edges and roll < 0.55:
            u, v = rng.choice(edges)
            hosting.update_edge(u, v, avgDelay=round(rng.uniform(1.0, 80.0), 3))
        elif edges and roll < 0.65:
            u, v = rng.choice(edges)
            hosting.update_edge(u, v, lossRate=round(rng.random(), 3))
        else:
            hosting.update_node(rng.choice(nodes), up=rng.random() < 0.7)


def assert_blocks_equal(left, right) -> None:
    """Array-for-array, in the same (canonical) block order."""
    assert list(left.blocks) == list(right.blocks)
    assert left.blocks == right.blocks
    for key, block in left.blocks.items():
        other = right.blocks[key]
        assert block.words.dtype == other.words.dtype
        assert np.array_equal(block.hosts, other.hosts), key
        assert np.array_equal(block.words, other.words), key
        assert block.count == other.count


# --------------------------------------------------------------------------- #
# Patched == rebuilt, and both == the set-semantics oracle
# --------------------------------------------------------------------------- #

class TestPatchedBlocksEqualRebuilt:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(workload=st.one_of(st.integers(0, 10_000), st.booleans()),
           directed=st.booleans(), screened=st.booleans(),
           record_non_matches=st.booleans(),
           churn_seed=st.integers(0, 10_000), rounds=st.integers(1, 4))
    @example(workload=False, directed=False, screened=False,
             record_non_matches=True, churn_seed=0, rounds=1)
    @example(workload=True, directed=False, screened=True,
             record_non_matches=True, churn_seed=1, rounds=3)
    def test_patch_sequence_matches_rebuild_and_reference(
            self, workload, directed, screened, record_non_matches,
            churn_seed, rounds):
        """*workload* is a seed for a random problem, or a bool selecting
        the delete / re-insert scene (whose first round is the swap that
        triggers it; *directed* is ignored there)."""
        reorder = isinstance(workload, bool)
        if reorder:
            query, hosting = reorder_workload(workload)
        else:
            query, hosting = random_workload(workload, directed)
        node_constraint = UP if screened else None
        filters = build_filters(query, hosting, WINDOW, node_constraint,
                                record_non_matches=record_non_matches)
        rng = random.Random(churn_seed)
        for round_index in range(rounds):
            before = filters
            epoch = hosting.mutation_count
            if reorder and round_index == 0:
                swap_h0_edges(hosting, workload)
            else:
                attr_churn(hosting, rng, 6)
            filters = patch_every_row(before, query, hosting, WINDOW,
                                      node_constraint,
                                      delta=hosting.delta_since(epoch))
            assert filters is not None

            rebuilt = build_filters(query, hosting, WINDOW, node_constraint,
                                    record_non_matches=record_non_matches)
            assert_blocks_equal(filters, rebuilt)
            views = decode_views(filters)
            assert (list(views.match.items())
                    == list(decode_views(rebuilt).match.items()))
            assert filters.node_candidate_masks == rebuilt.node_candidate_masks
            assert filters.node_allowed_masks == rebuilt.node_allowed_masks

            reference = build_filters_reference(
                query, hosting, WINDOW, node_constraint,
                record_non_matches=record_non_matches)
            assert views.match == reference.match
            assert views.non_match == reference.non_match
            assert views.node_candidates == reference.node_candidates
            assert filters.entry_count == reference.entry_count
            assert filters.cell_count == reference.cell_count

    def test_the_swap_really_rewrites_h0(self):
        """Guards the seeded example above against going vacuous."""
        for flip in (False, True):
            query, hosting = reorder_workload(flip)
            filters = build_filters(query, hosting, WINDOW, None)
            epoch = hosting.mutation_count
            swap_h0_edges(hosting, flip)
            patched = patch_every_row(filters, query, hosting, WINDOW, None,
                                      delta=hosting.delta_since(epoch))
            before = decode_views(filters).cell("q0", "h0", "q1")
            after = decode_views(patched).cell("q0", "h0", "q1")
            assert after and after != before      # emptied, then re-filled


# --------------------------------------------------------------------------- #
# The scalar pass ends in the same blocks as the batch kernel
# --------------------------------------------------------------------------- #

#: Reads ``rEdge.label`` only behind a disjunct that is true wherever it is
#: reached, so the verdicts are WINDOW's — but a non-numeric ``label`` column
#: takes the build out of the vectorizable fragment.
WINDOW_READING_LABEL = ConstraintExpression(
    "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay"
    " && (rEdge.avgDelay >= 0.0 || rEdge.label >= 1.0)")


def complete_workload(seed: int):
    """Every attribute the window reads is present (strict mode is safe)."""
    query, hosting = random_workload(seed, directed=False)
    rng = random.Random(seed)
    for u, v in hosting.edges():
        hosting.update_edge(u, v, avgDelay=rng.uniform(5.0, 60.0), label="core")
    return query, hosting


class TestScalarProducerParity:
    @pytest.fixture
    def scalar_passes(self, monkeypatch):
        """Counts the builds that ran the scalar evaluation pass."""
        calls = []
        scalar = filters_module._pair_verdicts_scalar

        def counting(*args, **kwargs):
            calls.append(1)
            return scalar(*args, **kwargs)

        monkeypatch.setattr(filters_module, "_pair_verdicts_scalar", counting)
        return calls

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_strict_nonnumeric_and_guarded_builds_equal_vectorized(
            self, seed, scalar_passes, monkeypatch):
        query, hosting = complete_workload(seed)
        vectorized = build_filters(query, hosting, WINDOW, UP)
        assert not scalar_passes

        strict = build_filters(
            query, hosting, ConstraintExpression(WINDOW.source, strict=True), UP)
        labelled = build_filters(query, hosting, WINDOW_READING_LABEL, UP)
        # One host per packing band: the band budget does not pick the
        # verdict path, so this build stays on the batch kernel.
        monkeypatch.setattr(filters_module, "_MAX_DENSE_CELLS", 0)
        guarded = build_filters(query, hosting, WINDOW, UP)
        assert len(scalar_passes) == 2

        for other in (strict, labelled, guarded):
            assert_blocks_equal(other, vectorized)
            assert other.node_candidate_masks == vectorized.node_candidate_masks
            assert other.entry_count == vectorized.entry_count
            assert (other.constraint_evaluations
                    == vectorized.constraint_evaluations)

    def test_build_past_the_band_budget_runs_the_batch_kernel(
            self, monkeypatch):
        """A vectorizable build whose ``num_hosts²`` exceeds the packing
        budget still evaluates on the batch kernel, to the same blocks and
        the same evaluation count."""
        rng = random.Random(40)
        hosting = HostingNetwork("hosting")
        for i in range(40):
            hosting.add_node(f"h{i:02d}", up=rng.random() < 0.9)
        for i in range(40):
            for j in range(i + 1, 40):
                if rng.random() < 0.3:
                    hosting.add_edge(f"h{i:02d}", f"h{j:02d}",
                                     avgDelay=rng.uniform(5.0, 60.0))
        query = QueryNetwork("query")
        for i in range(4):
            query.add_node(f"q{i}")
        for i in range(1, 4):
            query.add_edge(f"q{i - 1}", f"q{i}", minDelay=10.0, maxDelay=35.0)
        unbanded = build_filters(query, hosting, WINDOW, UP)

        def no_scalar_pass(*args, **kwargs):
            raise AssertionError("a vectorizable build ran the scalar pass")

        monkeypatch.setattr(filters_module, "_MAX_DENSE_CELLS", 128)
        monkeypatch.setattr(filters_module, "_pair_verdicts_scalar",
                            no_scalar_pass)
        banded = build_filters(query, hosting, WINDOW, UP)
        assert_blocks_equal(banded, unbanded)
        assert banded.constraint_evaluations == unbanded.constraint_evaluations
        assert banded.constraint_evaluations > 0

    def test_patch_above_the_guard_equals_rebuild(self, monkeypatch):
        """One host per packing band (guard at 0): bands carry the base
        block's bits over exactly as a single band does."""
        monkeypatch.setattr(filters_module, "_MAX_DENSE_CELLS", 0)
        query, hosting = complete_workload(5)
        filters = build_filters(query, hosting, WINDOW, UP)
        epoch = hosting.mutation_count
        attr_churn(hosting, random.Random(5), 8)
        patched = patch_every_row(filters, query, hosting, WINDOW, UP,
                                  delta=hosting.delta_since(epoch))
        assert_blocks_equal(patched, build_filters(query, hosting, WINDOW, UP))


# --------------------------------------------------------------------------- #
# One block under both keys of a symmetric query pair
# --------------------------------------------------------------------------- #

#: WINDOW's verdicts wherever ``cpu >= 1`` (every host of a sharing scene),
#: but the read of ``rSource`` makes a row and its mirror differ in principle.
WINDOW_READING_SOURCE = ConstraintExpression(
    WINDOW.source + " && rSource.cpu >= 1.0")
#: Screens query nodes by their own ``need``: endpoints with different needs
#: get different masks.
NEED = ConstraintExpression("rNode.cpu >= vNode.need")

EDGE_CONSTRAINTS = {
    "window": WINDOW,
    "trivial": ConstraintExpression.always_true(),
    # Vectorizable expression over a non-numeric column: the scalar pass
    # produces the verdicts, which read ``rEdge`` / ``vEdge`` all the same.
    "label": WINDOW_READING_LABEL,
    "source": WINDOW_READING_SOURCE,
    # Outside the vectorizable fragment altogether.
    "strict": ConstraintExpression(WINDOW.source, strict=True),
}
SYMMETRIC_CONSTRAINTS = {"window", "trivial", "label"}
SCREENS = {"none": None, "up": UP, "need": NEED}


def sharing_scene(seed: int, query_directed: bool, hosting_directed: bool):
    """A small problem whose two sides are directed independently; every
    attribute any constraint above reads is present (strict mode is safe)."""
    rng = random.Random(seed)
    num_hosts = rng.randint(4, 9)
    hosting = HostingNetwork("hosting", directed=hosting_directed)
    for i in range(num_hosts):
        hosting.add_node(f"h{i}", up=rng.random() < 0.8, cpu=rng.randint(1, 4))
    for i in range(num_hosts):
        for j in range(i + 1, num_hosts):
            if rng.random() < 0.6:
                hosting.add_edge(f"h{i}", f"h{j}", label="core",
                                 avgDelay=round(rng.uniform(5.0, 60.0), 3))
            if hosting_directed and rng.random() < 0.4:
                hosting.add_edge(f"h{j}", f"h{i}", label="core",
                                 avgDelay=round(rng.uniform(5.0, 60.0), 3))
    query = QueryNetwork("query", directed=query_directed)
    num_query = rng.randint(2, 4)
    for i in range(num_query):
        query.add_node(f"q{i}", need=rng.randint(1, 3))
    for i in range(1, num_query):
        low = rng.uniform(0.0, 30.0)
        query.add_edge(f"q{rng.randrange(i)}", f"q{i}",
                       minDelay=round(low, 3),
                       maxDelay=round(low + rng.uniform(5.0, 40.0), 3))
    return query, hosting


def query_pairs(filters):
    """The ``(qa, qb)`` of every constrained pair (``ab`` precedes ``ba``)."""
    return list(filters.blocks)[::2]


def shared_pairs(filters):
    return [filters.blocks[(qa, qb)] is filters.blocks[(qb, qa)]
            for qa, qb in query_pairs(filters)]


def assert_blocks_equal_reference(filters, reference) -> None:
    """Every block, array for array, against the set-semantics oracle."""
    indexer = filters.host_indexer
    num_words = word_count(len(indexer))
    for (placed, following), block in filters.blocks.items():
        cells = {indexer.index_of(host): indexer.encode(hosts)
                 for (q, host, nxt), hosts in reference.match.items()
                 if (q, nxt) == (placed, following)}
        hosts = sorted(cells)
        assert np.array_equal(block.hosts, np.array(hosts, dtype=np.int64))
        assert np.array_equal(
            block.words, pack_masks([cells[host] for host in hosts], num_words))
        assert block.count == sum(mask.bit_count() for mask in cells.values())


class TestSymmetricPairsShareOneBlock:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), query_directed=st.booleans(),
           hosting_directed=st.booleans(),
           edge=st.sampled_from(sorted(EDGE_CONSTRAINTS)),
           screen=st.sampled_from(sorted(SCREENS)))
    def test_one_object_iff_the_cells_are_their_own_transpose(
            self, seed, query_directed, hosting_directed, edge, screen):
        query, hosting = sharing_scene(seed, query_directed, hosting_directed)
        constraint, node_constraint = EDGE_CONSTRAINTS[edge], SCREENS[screen]
        filters = build_filters(query, hosting, constraint, node_constraint)

        symmetric = (not query_directed and not hosting_directed
                     and edge in SYMMETRIC_CONSTRAINTS)
        screens = filters.node_allowed_masks
        assert shared_pairs(filters) == [
            symmetric and screens[qa] == screens[qb]
            for qa, qb in query_pairs(filters)]

        reference = build_filters_reference(query, hosting, constraint,
                                            node_constraint)
        assert_blocks_equal_reference(filters, reference)
        assert filters.entry_count == reference.entry_count
        assert filters.cell_count == reference.cell_count
        assert filters.constraint_evaluations == reference.constraint_evaluations

        clone = pickle.loads(pickle.dumps(filters))
        assert shared_pairs(clone) == shared_pairs(filters)
        assert_blocks_equal(clone, filters)

    @pytest.mark.parametrize("case", ["directed hosting", "directed query",
                                      "reads rSource", "unequal screens",
                                      "not vectorizable"])
    def test_each_negative_case_packs_two_blocks(self, case):
        """Beside a scene that shares, so none of the cases is vacuous."""
        query, hosting = sharing_scene(3, False, False)
        shared = build_filters(query, hosting, WINDOW, UP)
        assert shared_pairs(shared) and all(shared_pairs(shared))

        edge, node_constraint = WINDOW, UP
        if case == "directed hosting":
            query, hosting = sharing_scene(3, False, True)
        elif case == "directed query":
            query, hosting = sharing_scene(3, True, False)
        elif case == "reads rSource":
            edge = WINDOW_READING_SOURCE
        elif case == "unequal screens":
            node_constraint = NEED
        else:
            edge = EDGE_CONSTRAINTS["strict"]
        filters = build_filters(query, hosting, edge, node_constraint)
        split = [pair for pair, one in zip(query_pairs(filters),
                                           shared_pairs(filters)) if not one]
        assert split
        if case == "unequal screens":
            screens = filters.node_allowed_masks
            assert all(screens[qa] != screens[qb] for qa, qb in split)
        else:
            assert split == query_pairs(filters)
        for qa, qb in split:
            assert not np.shares_memory(filters.blocks[(qa, qb)].words,
                                        filters.blocks[(qb, qa)].words)
        assert_blocks_equal_reference(filters, build_filters_reference(
            query, hosting, edge, node_constraint))

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000),
           screen=st.sampled_from(sorted(SCREENS)),
           churn_seed=st.integers(0, 10_000), rounds=st.integers(1, 3))
    def test_patch_shares_exactly_what_a_rebuild_shares(
            self, seed, screen, churn_seed, rounds):
        """Attr-only churn, ``cpu`` included: under NEED a re-screened host
        can make two endpoints' masks equal or unequal, so pairs join and
        leave the shared set from one patch to the next."""
        query, hosting = sharing_scene(seed, False, False)
        node_constraint = SCREENS[screen]
        filters = build_filters(query, hosting, WINDOW, node_constraint)
        rng = random.Random(churn_seed)
        for _ in range(rounds):
            epoch = hosting.mutation_count
            attr_churn(hosting, rng, 4)
            for _ in range(2):
                hosting.update_node(rng.choice(hosting.nodes()),
                                    cpu=rng.randint(1, 4))
            filters = patch_every_row(filters, query, hosting, WINDOW,
                                      node_constraint,
                                      delta=hosting.delta_since(epoch))
            rebuilt = build_filters(query, hosting, WINDOW, node_constraint)
            assert_blocks_equal(filters, rebuilt)
            assert shared_pairs(filters) == shared_pairs(rebuilt)
            if node_constraint is not NEED:
                assert all(shared_pairs(filters))
            assert filters.entry_count == rebuilt.entry_count


# --------------------------------------------------------------------------- #
# What the numba kernel is handed
# --------------------------------------------------------------------------- #

class TestKernelWordArrays:
    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_slot_rows_select_the_cells_of_the_int_views(self, seed):
        """Slot by slot and host by host, ``match_words[slot_rows[s, h]]``
        is the word row of ``F[(neighbour, host, node)]``; ``-1`` stands for
        the all-zero row of an empty cell."""
        query, hosting = random_workload(seed, directed=False)
        filters = build_filters(query, hosting, WINDOW, None)
        order = sorted(query.nodes(), key=str)
        prior = placed_neighbor_plan(query, order)
        assert any(prior)
        plan = kernel.KernelPlan(filters, order, prior)
        match_words, node_words, prior_off, slot_depth, slot_rows, nw = \
            plan.words()
        assert nw == word_count(len(hosting.nodes()))
        assert match_words.dtype == np.uint64 and match_words.shape[1] == nw

        encode = filters.host_indexer.encode
        cells = {key: encode(hosts)
                 for key, hosts in decode_views(filters).match.items()}
        hosts = filters.host_indexer.nodes
        slot = 0
        empty_cells = 0
        for depth, node in enumerate(order):
            assert prior_off[depth] == slot
            for neighbor in prior[depth]:
                assert slot_depth[slot] == order.index(neighbor)
                for index, host in enumerate(hosts):
                    expected = cells.get((neighbor, host, node), 0)
                    row = slot_rows[slot, index]
                    if row < 0:
                        assert expected == 0
                        empty_cells += 1
                    else:
                        assert np.array_equal(match_words[row],
                                              mask_to_words(expected, nw))
                slot += 1
        assert prior_off[len(order)] == slot == slot_rows.shape[0]
        assert empty_cells      # the workload exercises the -1 sentinel
        for depth, node in enumerate(order):
            assert np.array_equal(
                node_words[depth],
                mask_to_words(filters.node_candidate_masks[node], nw))


    @pytest.mark.parametrize("seed", range(6))
    def test_word_kernels_reproduce_the_legacy_streams(self, seed):
        """Drive the word-array search path end to end against the original
        engine (the recursive set-semantics searches of
        ``core/reference.py``).  Without numba the kernel sources run
        uncompiled (same code, interpreted), which is enough to pin what
        ``KernelPlan.words()`` feeds them."""
        def signature(result):
            return ([list(m.as_dict().items()) for m in result.mappings],
                    result.stats.nodes_expanded,
                    result.stats.candidates_considered,
                    result.stats.backtracks)

        query, hosting = random_workload(seed, directed=bool(seed % 2))
        request = SearchRequest.build(query, hosting, constraint=WINDOW,
                                      max_results=50)
        for make, make_reference in ((ECF, ReferenceECF),
                                     (lambda: RWB(seed=7),
                                      lambda: ReferenceRWB(rng=7))):
            legacy = make_reference().request(request)
            with pinned_kernel("numba"), warnings.catch_warnings():
                # uint64 popcount multiplies wrap by design.
                warnings.simplefilter("ignore", RuntimeWarning)
                words = make().request(request)
            assert signature(words) == signature(legacy)


# --------------------------------------------------------------------------- #
# Row compression on a sparse host packed in more than one band
# --------------------------------------------------------------------------- #

class TestSparseHostBytes:
    def test_block_bytes_are_bounded_by_the_non_empty_cells(self):
        num_hosts = 8_100
        assert num_hosts * num_hosts > filters_module._MAX_DENSE_CELLS
        hosting = HostingNetwork("ring")
        for i in range(num_hosts):
            hosting.add_node(f"h{i:04d}")
        for i in range(num_hosts):
            # One link in six sits inside the query's window.
            hosting.add_edge(f"h{i:04d}", f"h{(i + 1) % num_hosts:04d}",
                             avgDelay=10.0 if i % 6 == 0 else 50.0)
        query = QueryNetwork("pair")
        query.add_node("a")
        query.add_node("b")
        query.add_edge("a", "b", minDelay=5.0, maxDelay=30.0)

        filters = build_filters(query, hosting, WINDOW, None,
                                record_non_matches=False)
        num_words = word_count(num_hosts)
        assert list(filters.blocks) == [("a", "b"), ("b", "a")]
        for block in filters.blocks.values():
            cells = len(block.hosts)
            assert cells == 2 * (num_hosts // 6)       # both ends of a link
            assert block.words.shape == (cells, num_words)
            assert block.nbytes <= cells * num_words * 8 + 8 * num_hosts
            assert block.nbytes < num_hosts * num_words * 8 // 2   # vs dense
        assert filters.cell_count == 4 * (num_hosts // 6)
        views = decode_views(filters)
        assert views.cell("a", "h0000", "b") == {"h0001"}
        assert views.cell("a", "h0001", "b") == {"h0000"}
        assert views.cell("a", "h0002", "b") == frozenset()
        assert filters.candidate_count("a") == 2 * (num_hosts // 6)


# --------------------------------------------------------------------------- #
# Pickling through the shard payload path
# --------------------------------------------------------------------------- #

def ship(prepared):
    """Round-trip *prepared* the way ``run_sharded`` ships it to a worker."""
    group = ShardGroup(algorithm=ECF(), prepared=prepared, max_results=3)
    blob = pickle.dumps(group, protocol=pickle.HIGHEST_PROTOCOL)
    token = f"test-filter-blocks:{id(prepared)}"
    try:
        return _decode_group(token, ("bytes", blob, "")).prepared
    finally:
        _GROUP_CACHE.pop(token, None)


class TestShardPayload:
    def test_built_and_patched_snapshots_ship_blocks_only(self, monkeypatch):
        monkeypatch.setattr(filters_module, "PATCH_ROW_FRACTION", 1.0)
        query, hosting = random_workload(21, directed=False)
        request = SearchRequest.build(query, hosting, constraint=WINDOW,
                                      node_constraint=UP, max_results=3)
        built = ECF().prepare(request)
        built.execute()         # builds the prepared search's kernel plan
        attr_churn(hosting, random.Random(21), 6)
        patched = built.refresh()
        assert patched.refresh_mode == "patched"
        patched.execute()

        for plan in (built, patched):
            filters = plan.prepared.filters
            assert plan.prepared._kernel_plan is not None
            state = vars(filters)
            assert "blocks" in state and "_kernel_plan" not in state
            assert not any("mask" in name and "node" not in name
                           for name in state)    # no dict-of-int cell view
            shipped = ship(plan.prepared)
            assert shipped._kernel_plan is None
            clone = shipped.filters
            assert_blocks_equal(clone, filters)
            for key, block in clone.blocks.items():
                assert not np.shares_memory(block.words,
                                            filters.blocks[key].words)
            assert clone.arcs == filters.arcs
            assert clone.node_candidate_masks == filters.node_candidate_masks
            assert clone.entry_count == filters.entry_count
            assert clone.patches == filters.patches


# --------------------------------------------------------------------------- #
# A kernel plan does not keep its owner or its filters alive
# --------------------------------------------------------------------------- #

class TestPlanLifetime:
    def test_dropped_plan_is_freed_without_the_cycle_collector(self):
        query, hosting = random_workload(31, directed=False)
        request = SearchRequest.build(query, hosting, constraint=WINDOW,
                                      max_results=2)
        gc.collect()
        gc.disable()
        try:
            with pinned_kernel("python"):
                plan = ECF().prepare(request)
                plan.execute()
            prepared = plan.prepared
            assert prepared._kernel_plan is not None
            alive = [weakref.ref(prepared), weakref.ref(prepared.filters)]
            del plan, prepared
            assert [ref() for ref in alive] == [None, None]
        finally:
            gc.enable()


# --------------------------------------------------------------------------- #
# Node screening without a node constraint
# --------------------------------------------------------------------------- #

class TestUnconstrainedScreening:
    @pytest.mark.parametrize("node_constraint",
                             [None, ConstraintExpression.always_true()])
    def test_every_query_node_gets_the_full_mask(self, node_constraint):
        query, hosting = random_workload(41, directed=False)
        query.add_node("alone")
        filters = build_filters(query, hosting, WINDOW, node_constraint)
        full = compile_hosting(hosting).indexer.full_mask
        assert filters.node_allowed_masks == {node: full
                                              for node in query.nodes()}
        assert filters.node_candidate_masks["alone"] == full
        screened = build_filters(
            query, hosting, WINDOW, ConstraintExpression("rNode.up == rNode.up"))
        assert_blocks_equal(filters, screened)


# --------------------------------------------------------------------------- #
# Interval blocks: a delay window read off the compile's sorted index
# --------------------------------------------------------------------------- #

#: A literal window, the other shape the index answers.
LITERAL = ConstraintExpression(
    "rEdge.avgDelay >= 20.0 && rEdge.avgDelay <= 35.5")
#: The same verdicts and counts, in expressions the shape detector does not
#: take (``x + 0`` is ``x`` for every float, NaN included): their builds run
#: the batch kernel over every arc row.
OFF_SHAPE = {
    WINDOW: ConstraintExpression(
        "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay"
        " + 0"),
    LITERAL: ConstraintExpression(
        "rEdge.avgDelay >= 20.0 && rEdge.avgDelay <= 35.5 + 0"),
}
#: Host delays, with repeats and the query bounds among them, so that values
#: sit exactly on a window's edges.
DELAYS = [5.0, 10.0, 20.0, 20.0, 35.5, 35.5, 47.25, 60.0, float("nan"), None]
WINDOWS = [(20.0, 35.5), (10.0, 47.25), (35.5, 20.0), (20.0, 20.0),
           (0.0, 1e9), (float("nan"), 35.5), (20.0, float("nan")),
           (None, 35.5), (20.0, None), (None, None)]


def interval_scene(seed: int, query_directed: bool = False,
                   hosting_directed: bool = False):
    """Delays from :data:`DELAYS` (``None``: the link has no ``avgDelay``),
    windows from :data:`WINDOWS` (``None``: that bound is missing) or drawn;
    ``up`` on every host for the screened variant."""
    rng = random.Random(seed)
    num_hosts = rng.randint(3, 24)
    hosting = HostingNetwork("hosting", directed=hosting_directed)
    for i in range(num_hosts):
        hosting.add_node(f"h{i:02d}", up=rng.random() < 0.8)
    for i in range(num_hosts):
        for j in range(num_hosts):
            if i == j or (not hosting_directed and i > j) or rng.random() > 0.5:
                continue
            delay = rng.choice(DELAYS + [round(rng.uniform(0.0, 70.0), 3)])
            hosting.add_edge(f"h{i:02d}", f"h{j:02d}",
                             **({} if delay is None else {"avgDelay": delay}))
    query = QueryNetwork("query", directed=query_directed)
    num_query = rng.randint(2, 6)
    for i in range(num_query):
        query.add_node(f"q{i}")
    for i in range(1, num_query):
        low, high = rng.choice(WINDOWS + [(
            round(rng.uniform(0.0, 40.0), 3), round(rng.uniform(0.0, 70.0), 3))])
        attrs = {name: value for name, value in
                 (("minDelay", low), ("maxDelay", high)) if value is not None}
        query.add_edge(f"q{rng.randrange(i)}", f"q{i}", **attrs)
    return query, hosting


@contextmanager
def recording_interval_path():
    """Yields a list that gets, per build, whether the interval path
    produced its blocks."""
    taken = []
    interval_blocks = filters_module._interval_blocks

    def recording(*args, **kwargs):
        result = interval_blocks(*args, **kwargs)
        taken.append(result is not None)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(filters_module, "_interval_blocks", recording)
        yield taken


@pytest.fixture
def interval_builds():
    with recording_interval_path() as taken:
        yield taken


def assert_interval_parity(query, hosting, constraint):
    """Interval build == the batch kernel's build of the off-shape twin
    (blocks, sharing, counters) == the set-semantics oracle; returns the
    interval build."""
    filters = build_filters(query, hosting, constraint)
    batch = build_filters(query, hosting, OFF_SHAPE[constraint])
    assert_blocks_equal(filters, batch)
    assert shared_pairs(filters) == shared_pairs(batch)
    assert filters.constraint_evaluations == batch.constraint_evaluations
    assert filters.entry_count == batch.entry_count
    assert filters.node_candidate_masks == batch.node_candidate_masks
    assert_blocks_equal_reference(
        filters, build_filters_reference(query, hosting, constraint))
    return filters


class TestIntervalBlocks:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000),
           constraint=st.sampled_from([WINDOW, LITERAL]))
    def test_blocks_and_counters_equal_the_batch_kernel(self, seed,
                                                        constraint):
        query, hosting = interval_scene(seed)
        with recording_interval_path() as taken:
            assert_interval_parity(query, hosting, constraint)
        assert taken == [True, False]

    def test_each_window_case_admits_what_the_batch_kernel_admits(
            self, interval_builds):
        """One query edge per entry of :data:`WINDOWS` over every delay of
        :data:`DELAYS`: on-edge values, empty and full windows, NaN and
        missing bounds and delays."""
        hosting = HostingNetwork("hosting")
        for i in range(len(DELAYS) + 1):
            hosting.add_node(f"h{i:02d}")
        for i, delay in enumerate(DELAYS):
            for j in range(i + 1, len(DELAYS) + 1):
                hosting.add_edge(f"h{i:02d}", f"h{j:02d}", **(
                    {} if delay is None else {"avgDelay": delay}))
        admitted = []
        for low, high in WINDOWS:
            query = QueryNetwork("query")
            query.add_node("a")
            query.add_node("b")
            query.add_edge("a", "b", **{name: value for name, value in (
                ("minDelay", low), ("maxDelay", high)) if value is not None})
            filters = assert_interval_parity(query, hosting, WINDOW)
            admitted.append(filters.blocks[("a", "b")].count)
        assert interval_builds == [True, False] * len(WINDOWS)
        # [20, 35.5] admits both 20s and both 35.5s, each link twice.
        rows_per_delay = [len(DELAYS) - i for i in range(len(DELAYS))]
        on_edges = sum(rows for delay, rows in zip(DELAYS, rows_per_delay)
                       if delay in (20.0, 35.5))
        assert admitted[0] == 2 * on_edges
        assert admitted[2] == 0                       # low > high
        assert admitted[4] == 2 * sum(                # full: all but NaN/None
            rows for delay, rows in zip(DELAYS, rows_per_delay)
            if delay is not None and delay == delay)
        assert admitted[5:] == [0] * 5                # NaN or missing bound

    @pytest.mark.parametrize("budget", [0, 128, 4096])
    def test_banded_build_equals_one_band(self, budget, monkeypatch,
                                          interval_builds):
        query, hosting = interval_scene(17)
        one_band = build_filters(query, hosting, WINDOW)
        monkeypatch.setattr(filters_module, "_MAX_DENSE_CELLS", budget)
        banded = build_filters(query, hosting, WINDOW)
        assert_blocks_equal(banded, one_band)
        assert banded.constraint_evaluations == one_band.constraint_evaluations
        assert interval_builds == [True, True]
        assert_interval_parity(query, hosting, WINDOW)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), churn_seed=st.integers(0, 10_000),
           rounds=st.integers(1, 3))
    def test_build_on_a_patched_compile_equals_a_fresh_compile(
            self, seed, churn_seed, rounds):
        """Attribute churn patches the memoised compile in place; the window
        index it sorted before must not answer the next build."""
        query, hosting = interval_scene(seed)
        build_filters(query, hosting, WINDOW)
        compiled = compile_hosting(hosting)
        assert "avgDelay" in compiled._interval_indexes
        rng = random.Random(churn_seed)
        for _ in range(rounds):
            attr_churn(hosting, rng, 6)
            if hosting.edges():
                hosting.update_edge(*rng.choice(hosting.edges()),
                                    avgDelay=rng.choice(DELAYS[:-1]))
            patched = build_filters(query, hosting, WINDOW)
            assert compile_hosting(hosting) is compiled   # patched, not new
            filters_module.clear_hosting_compile(hosting)
            fresh = build_filters(query, hosting, WINDOW)
            assert compile_hosting(hosting) is not compiled
            assert_blocks_equal(patched, fresh)
            assert (patched.constraint_evaluations
                    == fresh.constraint_evaluations)
            assert patched.node_candidate_masks == fresh.node_candidate_masks
            setattr(hosting, filters_module._COMPILE_CACHE_ATTR, compiled)
        assert_interval_parity(query, hosting, WINDOW)

    @pytest.mark.parametrize("case", ["directed hosting", "directed query",
                                      "screened", "strict"])
    def test_other_builds_never_enter_the_interval_path(self, case,
                                                        interval_builds):
        query, hosting = interval_scene(
            5, query_directed=case == "directed query",
            hosting_directed=case == "directed hosting")
        constraint = (ConstraintExpression(WINDOW.source, strict=True)
                      if case == "strict" else WINDOW)
        for edge in hosting.edges():          # strict: every read defined
            if hosting.edge_attrs(*edge).get("avgDelay") is None:
                hosting.update_edge(*edge, avgDelay=30.0)
        if case == "strict":
            for edge in query.edges():
                query.update_edge(*edge, minDelay=20.0, maxDelay=40.0)
        filters = build_filters(query, hosting, constraint,
                                UP if case == "screened" else None)
        assert interval_builds == [False]
        assert_blocks_equal_reference(filters, build_filters_reference(
            query, hosting, constraint, UP if case == "screened" else None))


class TestUndirectedColumnAlias:
    def test_slot_five_is_slot_four_only_on_an_undirected_host(self):
        for directed in (False, True):
            query, hosting = random_workload(9, directed)
            compiled = compile_hosting(hosting)
            aliased = compiled.column(5, "avgDelay") is compiled.column(
                4, "avgDelay")
            assert aliased is not directed

    @pytest.mark.parametrize("seed", [2, 9, 23])
    def test_attribute_patch_equals_a_fresh_compile(self, seed):
        """LNS's batched checks and ``patch_filters`` over a compile patched
        in place answer as they do over a fresh compile."""
        query, hosting = random_workload(seed, directed=False)
        lns_request = SearchRequest.build(query, hosting,
                                          constraint=WINDOW.source)
        filters = build_filters(query, hosting, WINDOW, UP)
        compiled = compile_hosting(hosting)
        LNS().prepare(lns_request).execute()      # fills both slots' reads
        epoch = hosting.mutation_count
        attr_churn(hosting, random.Random(seed), 10)
        delta = hosting.delta_since(epoch)
        assert compile_hosting(hosting) is compiled
        patched_lns = LNS().prepare(lns_request).execute()
        patched = patch_every_row(filters, query, hosting, WINDOW, UP,
                                  compiled=compiled, delta=delta)

        filters_module.clear_hosting_compile(hosting)
        fresh_compile = compile_hosting(hosting)
        fresh_lns = LNS().prepare(lns_request).execute()
        assert ([m.assignment for m in patched_lns.mappings]
                == [m.assignment for m in fresh_lns.mappings])
        assert (patched_lns.stats.constraint_evaluations
                == fresh_lns.stats.constraint_evaluations)
        assert_blocks_equal(patched, build_filters(
            query, hosting, WINDOW, UP, compiled=fresh_compile))
        for slot in (4, 5):
            values, missing = compiled.column(slot, "avgDelay")
            fresh_values, fresh_missing = fresh_compile.column(slot,
                                                               "avgDelay")
            assert np.array_equal(values, fresh_values)
            assert np.array_equal(missing, fresh_missing)

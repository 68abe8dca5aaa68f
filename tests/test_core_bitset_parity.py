"""Parity: the bitset candidate engine vs. the set-semantics reference.

The bitset refactor (dense :class:`~repro.core.indexing.NodeIndexer` +
integer-bitmask :class:`~repro.core.filters.FilterMatrices`, with a
vectorized filter-construction pass) must be observationally identical to
the original dict-of-set engine preserved in :mod:`repro.core.reference`:
same filter cells, same candidate sets, same entry counts, and byte-for-byte
identical ECF/RWB mapping streams.  This suite generates random directed and
undirected workloads — including missing attributes, node constraints and
non-vectorizable expressions — and checks every one of those properties.
"""

from __future__ import annotations

import random

import pytest
from conftest import search
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import SearchRequest
from repro.constraints import ConstraintExpression
from repro.core import ECF, LNS, RWB, NodeIndexer, build_filters, kernel
from repro.core.base import placed_neighbor_plan
from repro.core.reference import (ReferenceECF, build_filters_reference,
                                  decode_views)
from repro.graphs.hosting import HostingNetwork
from repro.graphs.query import QueryNetwork

WINDOW = ConstraintExpression(
    "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay")
DISJUNCTION = ConstraintExpression(
    "rEdge.avgDelay <= vEdge.maxDelay || rEdge.avgDelay >= 100.0")
BINDING = ConstraintExpression("isBoundTo(vSource.bindTo, rSource.name)")
NODE_OS = ConstraintExpression('rNode.osType == "linux"')

CONSTRAINTS = {
    "window": WINDOW,            # vectorized fast path
    "disjunction": DISJUNCTION,  # vectorized, exercises ||-badness masking
    "trivial": ConstraintExpression.always_true(),
    "binding": BINDING,          # function call -> scalar fallback path
}


def build_workload(seed: int, directed: bool, constraint_name: str):
    """A random embedding problem, deliberately messy.

    Some hosting edges lack the delay attribute (or carry ``None``) to
    exercise the missing-attribute masking, and some query edges lack their
    window for the same reason on the query side.
    """
    rng = random.Random(seed)
    num_hosts = rng.randint(4, 10)
    hosting = HostingNetwork("hosting", directed=directed)
    for i in range(num_hosts):
        hosting.add_node(f"h{i}", name=f"h{i}",
                         osType=rng.choice(["linux", "bsd"]))
    for i in range(num_hosts):
        for j in range(num_hosts):
            if i == j or (not directed and i > j) or rng.random() > 0.45:
                continue
            if hosting.has_edge(f"h{i}", f"h{j}"):
                continue
            roll = rng.random()
            if roll < 0.1:
                hosting.add_edge(f"h{i}", f"h{j}")
            elif roll < 0.18:
                hosting.add_edge(f"h{i}", f"h{j}", avgDelay=None)
            else:
                hosting.add_edge(f"h{i}", f"h{j}", avgDelay=rng.uniform(5, 60))

    num_query = rng.randint(2, 5)
    query = QueryNetwork("query", directed=directed)
    for i in range(num_query):
        query.add_node(f"q{i}")
    for i in range(num_query):
        for j in range(num_query):
            if i == j or (not directed and i > j) or rng.random() > 0.6:
                continue
            if query.has_edge(f"q{i}", f"q{j}"):
                continue
            if rng.random() < 0.12:
                query.add_edge(f"q{i}", f"q{j}")
            else:
                query.add_edge(f"q{i}", f"q{j}",
                               minDelay=5.0, maxDelay=rng.uniform(20, 60))

    constraint = CONSTRAINTS[constraint_name]
    node_constraint = NODE_OS if rng.random() < 0.35 else None
    return query, hosting, constraint, node_constraint


workload_strategy = st.tuples(
    st.integers(min_value=0, max_value=10_000),
    st.booleans(),
    st.sampled_from(sorted(CONSTRAINTS)),
)


class TestFilterParity:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(params=workload_strategy, record_non_matches=st.booleans())
    def test_filters_are_identical(self, params, record_non_matches):
        """Cells, candidate sets and entry counts match the set engine."""
        query, hosting, constraint, node_constraint = build_workload(*params)
        bitset = build_filters(query, hosting, constraint, node_constraint,
                               record_non_matches=record_non_matches)
        reference = build_filters_reference(
            query, hosting, constraint, node_constraint,
            record_non_matches=record_non_matches)

        views = decode_views(bitset)
        assert views.match == reference.match
        assert views.non_match == reference.non_match
        assert views.node_candidates == reference.node_candidates
        assert bitset.entry_count == reference.entry_count
        assert bitset.cell_count == reference.cell_count
        assert bitset.constraint_evaluations == reference.constraint_evaluations

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(params=workload_strategy)
    def test_candidate_algebra_matches(self, params):
        """Expression (2) as the kernel computes it — the cell chain of a
        :class:`~repro.core.kernel.KernelPlan` — agrees with the set
        engine's ``candidates_given`` for arbitrary placements, and with
        ``candidates_unplaced`` where no neighbour is placed."""
        query, hosting, constraint, node_constraint = build_workload(*params)
        bitset = build_filters(query, hosting, constraint, node_constraint)
        reference = build_filters_reference(query, hosting, constraint,
                                            node_constraint)
        indexer = bitset.host_indexer
        hosts = hosting.nodes()
        rng = random.Random(params[0])
        order = list(query.nodes())
        rng.shuffle(order)
        prior = placed_neighbor_plan(query, order)
        plan = kernel.KernelPlan(bitset, order, prior)
        for depth, node in enumerate(order):
            placed = {earlier: rng.choice(hosts) for earlier in order[:depth]}
            used = set(rng.sample(hosts, k=min(2, len(hosts))))
            assign_idx = [indexer.index_of(placed[earlier])
                          for earlier in order[:depth]]
            mask = kernel.candidates_mask(plan, depth, assign_idx,
                                          indexer.encode(used))
            neighbors = [(n, placed[n]) for n in prior[depth]]
            assert (indexer.decode_set(mask)
                    == reference.candidates_given(node, neighbors, used))
            if not neighbors:
                assert (indexer.decode_set(mask)
                        == reference.candidates_unplaced(node) - used)


class TestSearchStreamParity:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(params=workload_strategy)
    def test_ecf_mapping_stream_identical(self, params):
        """The iterative bitmask ECF reproduces the recursive set-engine
        stream exactly: same mappings, same order, same search statistics."""
        query, hosting, constraint, node_constraint = build_workload(*params)
        bitset = search(ECF(), query, hosting, constraint=constraint,
                        node_constraint=node_constraint)
        reference = search(ReferenceECF(), query, hosting, constraint=constraint,
                           node_constraint=node_constraint)
        assert ([m.assignment for m in bitset.mappings]
                == [m.assignment for m in reference.mappings])
        assert bitset.status == reference.status
        for stat in ("nodes_expanded", "candidates_considered", "backtracks",
                     "filter_entries"):
            assert getattr(bitset.stats, stat) == getattr(reference.stats, stat)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(params=workload_strategy, seed=st.integers(0, 1000))
    def test_rwb_is_seed_reproducible_and_feasible(self, params, seed):
        """Same seed -> same stream; every RWB mapping is in the ECF set."""
        query, hosting, constraint, node_constraint = build_workload(*params)
        first = search(RWB(rng=seed), query, hosting, constraint=constraint,
                       node_constraint=node_constraint,
                       max_results=3)
        second = search(RWB(rng=seed), query, hosting, constraint=constraint,
                        node_constraint=node_constraint,
                        max_results=3)
        assert first.mappings == second.mappings
        everything = search(ECF(), query, hosting, constraint=constraint,
                            node_constraint=node_constraint)
        assert set(first.mappings) <= set(everything.mappings)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(params=workload_strategy)
    def test_lns_agrees_with_ecf(self, params):
        """LNS on bitmask candidates finds exactly the ECF solution set."""
        query, hosting, constraint, node_constraint = build_workload(*params)
        lns = search(LNS(), query, hosting, constraint=constraint,
                     node_constraint=node_constraint)
        ecf = search(ECF(), query, hosting, constraint=constraint,
                     node_constraint=node_constraint)
        assert set(lns.mappings) == set(ecf.mappings)


def _mutate_hosting(hosting: HostingNetwork, seed: int) -> None:
    """Apply one random structural/attribute mutation through the mutators."""
    rng = random.Random(seed)
    edges = hosting.edges()
    roll = rng.random()
    if edges and roll < 0.4:
        u, v = rng.choice(edges)
        hosting.remove_edge(u, v)
    elif edges and roll < 0.8:
        u, v = rng.choice(edges)
        hosting.update_edge(u, v, avgDelay=rng.uniform(5, 60))
    else:
        node = rng.choice(hosting.nodes())
        hosting.update_node(node, osType=rng.choice(["linux", "bsd"]))


COUNTER_STATS = ("nodes_expanded", "candidates_considered", "backtracks",
                 "filter_entries", "constraint_evaluations")


def assert_same_outcome(planned, fresh):
    """Byte-identical mapping streams plus identical discrete statistics."""
    assert ([m.assignment for m in planned.mappings]
            == [m.assignment for m in fresh.mappings])
    assert planned.status == fresh.status
    for stat in COUNTER_STATS:
        assert getattr(planned.stats, stat) == getattr(fresh.stats, stat)


def assert_same_search_outcome(planned, fresh):
    """Like :func:`assert_same_outcome` minus ``constraint_evaluations``:
    an incrementally patched plan re-evaluated only the delta's rows, so its
    cumulative build-work counter legitimately differs from a from-scratch
    build's — while the search-stage counters, derived purely from the
    (element-identical) masks and visiting order, must still match."""
    assert ([m.assignment for m in planned.mappings]
            == [m.assignment for m in fresh.mappings])
    assert planned.status == fresh.status
    for stat in COUNTER_STATS:
        if stat == "constraint_evaluations":
            continue
        assert getattr(planned.stats, stat) == getattr(fresh.stats, stat)


class TestPreparedExecuteParity:
    """prepare().execute() must be observationally identical to a fresh
    request(), on arbitrary workloads, repeatedly, and across plan
    invalidation by network mutation."""

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(params=workload_strategy)
    def test_ecf_plan_matches_fresh_search(self, params):
        query, hosting, constraint, node_constraint = build_workload(*params)
        request = SearchRequest.build(query, hosting, constraint=constraint,
                                      node_constraint=node_constraint)
        plan = ECF().prepare(request)
        first = plan.execute()
        second = plan.execute()          # plans are reusable, not one-shot
        fresh = ECF().request(request)
        assert_same_outcome(first, fresh)
        assert_same_outcome(second, fresh)
        assert plan.executions == 2

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(params=workload_strategy)
    def test_lns_plan_matches_fresh_search(self, params):
        query, hosting, constraint, node_constraint = build_workload(*params)
        request = SearchRequest.build(query, hosting, constraint=constraint,
                                      node_constraint=node_constraint)
        plan = LNS().prepare(request)
        assert_same_outcome(plan.execute(), LNS().request(request))
        assert_same_outcome(plan.execute(), LNS().request(request))

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(params=workload_strategy, seed=st.integers(0, 1000))
    def test_rwb_plan_reproduces_seeded_stream(self, params, seed):
        """One seedless cached plan + execute(rng=seed) == RWB(rng=seed)."""
        query, hosting, constraint, node_constraint = build_workload(*params)
        request = SearchRequest.build(query, hosting, constraint=constraint,
                                      node_constraint=node_constraint,
                                      max_results=3)
        plan = RWB().prepare(request)
        fresh = RWB(rng=seed).request(request)
        assert_same_outcome(plan.execute(rng=seed), fresh)
        assert_same_outcome(plan.execute(rng=seed), fresh)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(params=workload_strategy, mutation_seed=st.integers(0, 1000))
    def test_mutation_invalidates_and_reprepare_matches(self, params,
                                                        mutation_seed):
        """After a network mutation the stale plan refuses to run, and a
        refreshed plan agrees with a fresh search on the mutated network —
        on both refresh routes: the delta-aware incremental patch (taken for
        attribute-only mutations) and a full re-prepare."""
        from repro.core import PlanInvalidatedError

        query, hosting, constraint, node_constraint = build_workload(*params)
        request = SearchRequest.build(query, hosting, constraint=constraint,
                                      node_constraint=node_constraint)
        plan = ECF().prepare(request)
        plan.execute()

        _mutate_hosting(hosting, mutation_seed)
        assert plan.stale
        with pytest.raises(PlanInvalidatedError):
            plan.execute()

        refreshed = plan.refresh()
        assert not refreshed.stale
        fresh = ECF().request(request)
        if refreshed.refresh_mode == "patched":
            # A patched plan replays exactly the same search (identical
            # masks and visiting order); only the filter-build work stats
            # reflect the (cheaper) incremental route.
            assert_same_search_outcome(refreshed.execute(), fresh)
        else:
            assert refreshed.refresh_mode == "recompiled"
            assert_same_outcome(refreshed.execute(), fresh)

        recompiled = plan.algorithm.prepare(plan.request)
        assert_same_outcome(recompiled.execute(), fresh)

    def test_stream_through_plan_matches_execute(self, small_hosting,
                                                 path_query,
                                                 window_constraint):
        request = SearchRequest.build(path_query, small_hosting,
                                      constraint=window_constraint)
        plan = ECF().prepare(request)
        streamed = [m.assignment for m in plan.iter_mappings()]
        executed = [m.assignment for m in plan.execute().mappings]
        assert streamed == executed and streamed


class TestNodeIndexer:
    def test_bit_order_is_str_sorted(self):
        indexer = NodeIndexer(["b", "a", 10, 2])
        assert indexer.nodes == (10, 2, "a", "b")
        assert indexer.index_of("a") == 2
        assert indexer.node_at(0) == 10
        assert indexer.bit("b") == 0b1000

    def test_encode_decode_roundtrip(self):
        indexer = NodeIndexer("abcdef")
        mask = indexer.encode({"e", "a", "c"})
        assert indexer.decode(mask) == ["a", "c", "e"]
        assert indexer.decode_set(mask) == {"a", "c", "e"}
        assert mask.bit_count() == 3

    def test_encode_ignores_unknown_nodes(self):
        indexer = NodeIndexer("ab")
        assert indexer.encode({"a", "z"}) == indexer.encode({"a"})

    def test_full_mask_and_membership(self):
        indexer = NodeIndexer(["x", "y"])
        assert indexer.full_mask == 0b11
        assert "x" in indexer and "z" not in indexer
        assert len(indexer) == 2

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            NodeIndexer(["a", "a"])

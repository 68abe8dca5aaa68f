"""The delta-aware recompile path: journal, filter patching, plan refresh.

The acceptance property of the incremental engine: **after any
journal-replayable mutation sequence, the patched artifacts are element
identical to a from-scratch rebuild** — same filter cells, same candidate
masks, same node-screening fallbacks, same visiting order — so a patched
plan is observationally indistinguishable from a freshly prepared one.
This suite drives that property with randomised attribute-churn sequences
(relevant and irrelevant attributes alike), plus unit coverage of the
mutation journal itself and of the plan-cache ``patched``/``recompiled``
refresh routing.
"""

from __future__ import annotations

import copy
import pickle
import random

import pytest
from conftest import patch_every_row
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import SearchRequest
from repro.constraints import ConstraintExpression
from repro.core import (
    ECF,
    LNS,
    RWB,
    build_filters,
    clear_hosting_compile,
    compile_hosting,
    patch_filters,
)
from repro.core import filters as filters_module
from repro.graphs import MutationJournal
from repro.graphs.hosting import HostingNetwork
from repro.graphs.journal import EDGE_ATTRS, NODE_ATTRS
from repro.graphs.query import QueryNetwork
from repro.service import NetEmbedService, QuerySpec

WINDOW = ("rEdge.avgDelay >= vEdge.minDelay && "
          "rEdge.avgDelay <= vEdge.maxDelay")
UP = "rNode.up == true"


# --------------------------------------------------------------------------- #
# Workload + churn generators
# --------------------------------------------------------------------------- #

def build_workload(seed: int, with_node_constraint: bool):
    """A random embedding problem with churnable attributes."""
    rng = random.Random(seed)
    num_hosts = rng.randint(5, 10)
    hosting = HostingNetwork("hosting")
    for i in range(num_hosts):
        hosting.add_node(f"h{i}", up=True, cpuLoad=rng.uniform(0.0, 1.0))
    for i in range(num_hosts):
        for j in range(i + 1, num_hosts):
            if rng.random() < 0.55:
                attrs = {}
                if rng.random() < 0.85:   # some links lack the delay metric
                    attrs["avgDelay"] = rng.uniform(5.0, 60.0)
                hosting.add_edge(f"h{i}", f"h{j}", **attrs)

    num_query = rng.randint(2, 5)
    query = QueryNetwork("query")
    for i in range(num_query):
        query.add_node(f"q{i}")
    for i in range(1, num_query):
        low = rng.uniform(0.0, 30.0)
        query.add_edge(f"q{rng.randrange(i)}", f"q{i}",
                       minDelay=round(low, 3),
                       maxDelay=round(low + rng.uniform(5.0, 40.0), 3))
    constraint = ConstraintExpression(WINDOW)
    node_constraint = ConstraintExpression(UP) if with_node_constraint else None
    return query, hosting, constraint, node_constraint


def apply_attr_churn(hosting: HostingNetwork, seed: int, steps: int) -> None:
    """Random attribute-only mutations: relevant and irrelevant alike."""
    rng = random.Random(seed)
    edges = hosting.edges()
    nodes = hosting.nodes()
    for _ in range(steps):
        roll = rng.random()
        if edges and roll < 0.5:
            u, v = rng.choice(edges)
            hosting.update_edge(u, v, avgDelay=round(rng.uniform(1.0, 80.0), 3))
        elif edges and roll < 0.6:
            u, v = rng.choice(edges)
            # Irrelevant to the delay window: must be a no-op for the filters.
            hosting.update_edge(u, v, lossRate=round(rng.random(), 3))
        elif roll < 0.8:
            hosting.update_node(rng.choice(nodes), up=rng.random() < 0.7)
        else:
            # Irrelevant unless the node constraint reads it (it never does).
            hosting.update_node(rng.choice(nodes),
                                cpuLoad=round(rng.random(), 3))


def assert_filters_identical(patched, rebuilt):
    """Element-identity, the acceptance criterion of the patch path."""
    assert patched.blocks == rebuilt.blocks       # CellBlock: array equality
    assert patched.arcs == rebuilt.arcs           # F̄ is arcs minus F
    assert patched.node_candidate_masks == rebuilt.node_candidate_masks
    assert patched.node_allowed_masks == rebuilt.node_allowed_masks
    assert patched.entry_count == rebuilt.entry_count
    assert patched.cell_count == rebuilt.cell_count


# --------------------------------------------------------------------------- #
# The mutation journal
# --------------------------------------------------------------------------- #

class TestMutationJournal:
    def test_mutators_journal_kinds_and_attrs(self):
        net = HostingNetwork("n")
        net.add_node("a")
        net.add_node("b")
        net.add_edge("a", "b", avgDelay=10.0)
        net.update_node("a", up=False, cpuLoad=0.5)
        net.update_edge("a", "b", avgDelay=12.0)
        net.remove_edge("a", "b")
        kinds = [r.kind for r in net.mutation_journal.records()]
        assert kinds == ["node-added", "node-added", "edge-added",
                         "node-attrs", "edge-attrs", "edge-removed"]
        node_record = net.mutation_journal.records()[3]
        assert set(node_record.attrs) == {"up", "cpuLoad"}
        assert node_record.epoch == 4

    def test_delta_aggregates_and_classifies(self):
        net = HostingNetwork("n")
        for name in "abc":
            net.add_node(name)
        net.add_edge("a", "b")
        base = net.mutation_count
        net.update_edge("a", "b", avgDelay=5.0)
        net.update_node("c", up=False)
        delta = net.delta_since(base)
        assert not delta.structural and delta.attrs_only and not delta.empty
        assert delta.touched_nodes == {"c"}
        assert delta.touches_edge("b", "a")         # either orientation
        assert delta.touched_edge_attrs[("a", "b")] == {"avgDelay"}
        assert delta.touched_node_attrs["c"] == {"up"}

        net.remove_edge("a", "b")
        structural = net.delta_since(base)
        assert structural.structural

    def test_empty_delta_and_future_epoch(self):
        net = HostingNetwork("n")
        net.add_node("a")
        delta = net.delta_since(net.mutation_count)
        assert delta is not None and delta.empty
        assert net.delta_since(net.mutation_count + 5) is None

    def test_overflow_makes_old_deltas_unavailable(self):
        journal = MutationJournal(capacity=3)
        for epoch in range(1, 6):
            journal.record(epoch, NODE_ATTRS, (f"n{epoch}",), ("x",))
        assert len(journal) == 3
        assert journal.floor_epoch == 2
        assert journal.delta_since(1, 5) is None      # truncated past epoch 1
        delta = journal.delta_since(2, 5)
        assert delta is not None
        assert delta.touched_nodes == {"n3", "n4", "n5"}

    def test_pickled_network_ships_a_reset_journal(self):
        net = HostingNetwork("n")
        net.add_node("a")
        net.update_node("a", up=False)
        clone = pickle.loads(pickle.dumps(net))
        assert clone.mutation_count == net.mutation_count
        assert len(clone.mutation_journal) == 0
        # The clone cannot reconstruct deltas for epochs it never saw...
        assert clone.delta_since(0) is None
        # ...but its own future mutations journal normally.
        base = clone.mutation_count
        clone.update_node("a", up=True)
        assert clone.delta_since(base).touched_nodes == {"a"}

    def test_journal_capacity_validation(self):
        with pytest.raises(ValueError):
            MutationJournal(capacity=0)

    def test_edge_attr_records_both_orientations_match(self):
        journal = MutationJournal()
        journal.record(1, EDGE_ATTRS, ("u", "v"), ("avgDelay",))
        delta = journal.delta_since(0, 1)
        assert delta.touches_edge("u", "v") and delta.touches_edge("v", "u")
        assert not delta.touches_edge("u", "w")


# --------------------------------------------------------------------------- #
# Filter patch vs from-scratch rebuild (the acceptance property)
# --------------------------------------------------------------------------- #

class TestFilterPatchParity:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), with_node=st.booleans(),
           churn_seed=st.integers(0, 10_000), steps=st.integers(1, 25),
           record_non_matches=st.booleans())
    def test_patched_filters_equal_rebuilt_filters(self, seed, with_node,
                                                   churn_seed, steps,
                                                   record_non_matches):
        query, hosting, constraint, node_constraint = build_workload(
            seed, with_node)
        filters = build_filters(query, hosting, constraint, node_constraint,
                                record_non_matches=record_non_matches)
        epoch = hosting.mutation_count

        apply_attr_churn(hosting, churn_seed, steps)
        delta = hosting.delta_since(epoch)
        assert delta is not None and delta.attrs_only

        patched = patch_every_row(filters, query, hosting, constraint,
                                  node_constraint, delta=delta)
        assert patched is not None
        rebuilt = build_filters(query, hosting, constraint, node_constraint,
                                record_non_matches=record_non_matches)
        assert_filters_identical(patched, rebuilt)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), churn_seed=st.integers(0, 10_000))
    def test_repeated_patching_does_not_drift(self, seed, churn_seed):
        """Patch-of-a-patch across several churn rounds stays identical."""
        query, hosting, constraint, node_constraint = build_workload(seed, True)
        filters = build_filters(query, hosting, constraint, node_constraint)
        epoch = hosting.mutation_count
        for round_index in range(4):
            apply_attr_churn(hosting, churn_seed + round_index, 5)
            delta = hosting.delta_since(epoch)
            filters = patch_every_row(filters, query, hosting, constraint,
                                      node_constraint, delta=delta)
            assert filters is not None
            epoch = hosting.mutation_count
        rebuilt = build_filters(query, hosting, constraint, node_constraint)
        assert_filters_identical(filters, rebuilt)
        assert filters.patches >= 1

    def test_irrelevant_churn_is_a_no_op(self):
        """Mutations to attributes nothing reads return the input filters."""
        query, hosting, constraint, node_constraint = build_workload(3, False)
        filters = build_filters(query, hosting, constraint, node_constraint)
        epoch = hosting.mutation_count
        for node in hosting.nodes():
            hosting.update_node(node, cpuLoad=0.123)
        patched = patch_filters(filters, query, hosting, constraint,
                                node_constraint,
                                delta=hosting.delta_since(epoch))
        assert patched is filters   # no copy, no re-evaluation

    def test_patch_declines_structural_and_oversized_deltas(self, monkeypatch):
        query, hosting, constraint, node_constraint = build_workload(4, True)
        filters = build_filters(query, hosting, constraint, node_constraint)
        epoch = hosting.mutation_count

        edges = hosting.edges()
        hosting.remove_edge(*edges[0])
        assert patch_filters(filters, query, hosting, constraint,
                             node_constraint,
                             delta=hosting.delta_since(epoch)) is None

        # Rebuild and jitter everything: the row fraction gate declines.
        filters = build_filters(query, hosting, constraint, node_constraint)
        epoch = hosting.mutation_count
        for u, v in hosting.edges():
            hosting.update_edge(u, v, avgDelay=1.0)
        monkeypatch.setattr(filters_module, "PATCH_ROW_FRACTION", 0.1)
        assert patch_filters(filters, query, hosting, constraint,
                             node_constraint,
                             delta=hosting.delta_since(epoch)) is None

    def test_patch_never_mutates_the_input_filters(self):
        query, hosting, constraint, node_constraint = build_workload(5, True)
        filters = build_filters(query, hosting, constraint, node_constraint)
        epoch = hosting.mutation_count
        before = copy.deepcopy((filters.blocks, filters.arcs,
                                filters.node_candidate_masks))
        apply_attr_churn(hosting, 7, 10)
        patched = patch_every_row(filters, query, hosting, constraint,
                                  node_constraint,
                                  delta=hosting.delta_since(epoch))
        assert patched is not None and patched is not filters
        assert (filters.blocks, filters.arcs,
                filters.node_candidate_masks) == before


class TestHostingCompilePatch:
    def test_compile_hosting_patches_in_place_for_attr_churn(self):
        _, hosting, constraint, _ = build_workload(6, False)
        compiled = compile_hosting(hosting)
        u, v = hosting.edges()[0]
        hosting.update_edge(u, v, avgDelay=42.5)
        again = compile_hosting(hosting)
        assert again is compiled            # patched, not rebuilt
        assert again.epoch == hosting.mutation_count

    def test_compile_hosting_rebuilds_on_structural_churn(self):
        _, hosting, _, _ = build_workload(6, False)
        compiled = compile_hosting(hosting)
        hosting.remove_edge(*hosting.edges()[0])
        again = compile_hosting(hosting)
        assert again is not compiled
        assert again.epoch == hosting.mutation_count

    def test_patched_columns_feed_the_vectorized_build(self):
        """A fresh vectorized build over a patched compile must agree with a
        build over a cold compile (the columns were patched correctly)."""
        query, hosting, constraint, node_constraint = build_workload(8, True)
        build_filters(query, hosting, constraint, node_constraint)  # warm memo
        apply_attr_churn(hosting, 9, 12)
        warm = build_filters(query, hosting, constraint, node_constraint)
        clear_hosting_compile(hosting)
        cold = build_filters(query, hosting, constraint, node_constraint)
        assert_filters_identical(warm, cold)


# --------------------------------------------------------------------------- #
# Plan-level refresh routing
# --------------------------------------------------------------------------- #

ALGORITHMS = [("ECF", lambda: ECF()), ("RWB", lambda: RWB()),
              ("LNS", lambda: LNS())]


@pytest.fixture
def patch_everything(monkeypatch):
    """Lift the cost-based row-fraction gate: these tests exercise patch
    *correctness* on deliberately tiny networks, where any delta exceeds the
    production threshold that keeps patching profitable at scale."""
    import repro.core.filters as filters_module
    monkeypatch.setattr(filters_module, "PATCH_ROW_FRACTION", 1.0)


class TestPlanRefreshRouting:
    @pytest.mark.parametrize("name,factory", ALGORITHMS,
                             ids=[a[0] for a in ALGORITHMS])
    def test_patched_plan_matches_fresh_prepare(self, name, factory,
                                                patch_everything):
        query, hosting, constraint, node_constraint = build_workload(11, True)
        request = SearchRequest.build(query, hosting, constraint=constraint,
                                      node_constraint=node_constraint,
                                      max_results=5)
        plan = factory().prepare(request)
        apply_attr_churn(hosting, 13, 6)
        refreshed = plan.refresh()
        assert refreshed.refresh_mode == "patched"
        assert not refreshed.stale
        rng = 1 if name == "RWB" else None
        fresh = factory().prepare(request)
        planned = refreshed.execute(rng=rng)
        rebuilt = fresh.execute(rng=rng)
        assert ([m.assignment for m in planned.mappings]
                == [m.assignment for m in rebuilt.mappings])
        assert planned.status == rebuilt.status
        for stat in ("nodes_expanded", "candidates_considered", "backtracks"):
            assert getattr(planned.stats, stat) == getattr(rebuilt.stats, stat)

    def test_refresh_on_a_fresh_plan_returns_self(self):
        query, hosting, constraint, _ = build_workload(12, False)
        plan = ECF().prepare(SearchRequest.build(query, hosting,
                                                 constraint=constraint))
        assert plan.refresh() is plan

    def test_structural_churn_recompiles(self):
        query, hosting, constraint, _ = build_workload(12, False)
        plan = ECF().prepare(SearchRequest.build(query, hosting,
                                                 constraint=constraint))
        hosting.remove_edge(*hosting.edges()[0])
        refreshed = plan.refresh()
        assert refreshed.refresh_mode == "recompiled"
        assert not refreshed.stale

    def test_journal_overflow_recompiles(self):
        query, hosting, constraint, _ = build_workload(14, False)
        plan = ECF().prepare(SearchRequest.build(query, hosting,
                                                 constraint=constraint))
        u, v = hosting.edges()[0]
        for _ in range(hosting.mutation_journal.capacity + 1):
            hosting.update_edge(u, v, avgDelay=10.0)
        assert not plan.patchable
        refreshed = plan.refresh()
        assert refreshed.refresh_mode == "recompiled"

    def test_query_mutation_recompiles(self):
        query, hosting, constraint, _ = build_workload(15, False)
        plan = ECF().prepare(SearchRequest.build(query, hosting,
                                                 constraint=constraint))
        edge = query.edges()[0]
        query.update_edge(*edge, maxDelay=99.0)
        refreshed = plan.refresh()
        assert refreshed.refresh_mode == "recompiled"

    def test_infeasibility_flips_both_ways_under_patch(self, patch_everything):
        """Downing every host makes a patched plan infeasible; bringing the
        hosts back makes a later patch feasible again."""
        query, hosting, constraint, node_constraint = build_workload(16, True)
        request = SearchRequest.build(query, hosting, constraint=constraint,
                                      node_constraint=node_constraint)
        plan = ECF().prepare(request)
        for node in hosting.nodes():
            hosting.update_node(node, up=False)
        down = plan.refresh()
        assert down.refresh_mode == "patched"
        assert down.prepared.infeasible
        assert down.execute().mappings == []

        for node in hosting.nodes():
            hosting.update_node(node, up=True)
        back = down.refresh()
        assert back.refresh_mode == "patched"
        fresh = ECF().prepare(request)
        assert ([m.assignment for m in back.execute().mappings]
                == [m.assignment for m in fresh.execute().mappings])


# --------------------------------------------------------------------------- #
# Service plan-cache routing: patched vs recompiled statistics
# --------------------------------------------------------------------------- #

class TestServicePatchRouting:
    def _service_and_spec(self, seed=21):
        query, hosting, constraint, node_constraint = build_workload(seed, True)
        service = NetEmbedService(default_timeout=10.0)
        service.register_network(hosting, name="lab")
        spec = QuerySpec(query=query, constraint=constraint,
                         node_constraint=node_constraint, algorithm="ECF")
        return service, spec, hosting

    def test_sparse_tick_patches_instead_of_recompiling(self):
        service, spec, hosting = self._service_and_spec()
        service.submit(spec)
        u, v = hosting.edges()[0]
        hosting.update_edge(u, v, avgDelay=33.3)
        service.registry.touch("lab")
        service.submit(spec)
        stats = service.plans.stats()
        assert stats["patched"] == 1 and stats["recompiled"] == 0
        # The patched plan serves the new version from the cache afterwards.
        service.submit(spec)
        assert service.plans.stats()["hits"] >= 1

    def test_structural_tick_counts_a_recompile(self):
        service, spec, hosting = self._service_and_spec(seed=22)
        service.submit(spec)
        hosting.remove_edge(*hosting.edges()[0])
        service.registry.touch("lab")
        service.submit(spec)
        stats = service.plans.stats()
        assert stats["recompiled"] == 1 and stats["patched"] == 0

    def test_post_tick_results_match_a_fresh_search(self):
        service, spec, hosting = self._service_and_spec(seed=23)
        service.submit(spec)
        for _ in range(2):
            u, v = hosting.edges()[0]
            hosting.update_edge(u, v, avgDelay=50.0)
            service.registry.touch("lab")
            served = service.submit(spec)
            fresh = ECF().request(spec.to_request(hosting,
                                                  default_timeout=10.0))
            assert ([m.assignment for m in served.mappings]
                    == [m.assignment for m in fresh.mappings])

    def test_replaced_network_is_never_patched(self):
        """Re-registering a name must recompile against the new object, not
        patch the old object's plan."""
        service, spec, hosting = self._service_and_spec(seed=24)
        service.submit(spec)
        replacement = hosting.copy()
        service.register_network(replacement, name="lab")
        service.submit(spec)
        stats = service.plans.stats()
        assert stats["patched"] == 0

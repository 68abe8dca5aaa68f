"""LNS's batched connecting-edge checks against its one-at-a-time checks.

When a :class:`~repro.core.filters.HostingCompile` sits on the hosting
network LNS answers a placed host's connecting edges for all of its
neighbours in one vectorizer call and walks the resulting bitmasks
(:meth:`LNS._passing_hosts`); without one — and for anything outside the
vectorizable fragment — it checks one candidate, one edge at a time
(:meth:`LNS._connecting_edges_ok`).  The two must be indistinguishable: equal
mapping streams and equal ``nodes_expanded`` / ``candidates_considered`` /
``constraint_evaluations`` / ``backtracks``, whatever the budget cuts off.

Also pinned here: LNS never builds a compile, and the verdict memo on the
``PreparedSearch`` follows the plan's lifecycle (dropped by a patch, by a
pickle and by the byte cap).
"""

from __future__ import annotations

import os
import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Budget, SearchRequest
from repro.constraints import ConstraintExpression
from repro.core import (
    LNS,
    PlanInvalidatedError,
    clear_hosting_compile,
    compile_hosting,
)
from repro.core import filters as filters_module
from repro.graphs.hosting import HostingNetwork
from repro.graphs.query import QueryNetwork
from repro.service import NetEmbedService, QuerySpec

WINDOW = "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay"
#: Reads both endpoints of the hosting arc, so a swapped orientation shows.
ORIENTED = ("rSource.cpu >= vSource.cpu && rTarget.cpu + 1 > vTarget.cpu"
            " && rEdge.avgDelay <= vEdge.maxDelay")
CONSTRAINTS = [WINDOW, ORIENTED, None]
NODE_CONSTRAINT = "rNode.cpu >= vNode.cpu"
BUDGETS = [1, 3, None]

PARALLELISM = int(os.environ.get("REPRO_PARITY_PARALLELISM") or 2)


def random_workload(seed: int, directed: bool):
    """A small embedding problem with holes: links without the delay metric,
    nodes without ``cpu`` on either side, one-way links on a directed host
    and anti-parallel query edges with different windows."""
    rng = random.Random(seed)
    num_hosts = rng.randint(5, 9)
    hosting = HostingNetwork("hosting", directed=directed)
    for i in range(num_hosts):
        attrs = {"cpu": rng.randint(1, 4)} if rng.random() < 0.85 else {}
        hosting.add_node(f"h{i}", **attrs)
    for i in range(num_hosts):
        for j in range(num_hosts):
            if i == j or (not directed and i > j) or rng.random() > 0.55:
                continue
            attrs = ({"avgDelay": round(rng.uniform(5.0, 60.0), 3)}
                     if rng.random() < 0.85 else {})
            hosting.add_edge(f"h{i}", f"h{j}", **attrs)

    def window():
        if rng.random() < 0.1:
            return {}
        low = rng.uniform(0.0, 30.0)
        return {"minDelay": round(low, 3),
                "maxDelay": round(low + rng.uniform(10.0, 45.0), 3)}

    query = QueryNetwork("query", directed=directed)
    num_query = rng.randint(2, 5)
    for i in range(num_query):
        attrs = {"cpu": rng.randint(1, 3)} if rng.random() < 0.8 else {}
        query.add_node(f"q{i}", **attrs)
    for i in range(1, num_query):
        other = rng.randrange(i)
        query.add_edge(f"q{other}", f"q{i}", **window())
        if directed and rng.random() < 0.4:
            query.add_edge(f"q{i}", f"q{other}", **window())
    if num_query > 2 and rng.random() < 0.5 \
            and not query.has_edge("q0", f"q{num_query - 1}") \
            and not query.has_edge(f"q{num_query - 1}", "q0"):
        query.add_edge(f"q{num_query - 1}", "q0", **window())
    return query, hosting


def observables(result):
    return ([sorted(m.assignment.items()) for m in result.mappings],
            result.status, result.truncated,
            result.stats.nodes_expanded,
            result.stats.candidates_considered,
            result.stats.constraint_evaluations,
            result.stats.backtracks)


def run_batched(algorithm, request, expect_batch=True):
    """One prepare + execute with a hosting compile in place; returns the
    result and the plan."""
    compile_hosting(request.hosting)
    plan = algorithm.prepare(request)
    result = plan.execute()
    verdicts = plan.prepared._edge_verdicts
    if expect_batch and plan.prepared.indexer is not None:
        assert verdicts is not None
    return result, plan


def run_scalar(algorithm, request):
    """The same with no hosting compile to read — and none afterwards."""
    clear_hosting_compile(request.hosting)
    plan = algorithm.prepare(request)
    result = plan.execute()
    assert plan.prepared._edge_verdicts is None
    assert getattr(request.hosting, "_hosting_compile", None) is None
    return result


# --------------------------------------------------------------------------- #
# The two paths agree
# --------------------------------------------------------------------------- #

@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), directed=st.booleans(),
       constraint=st.sampled_from(CONSTRAINTS),
       screened=st.booleans(), budget=st.sampled_from(BUDGETS))
def test_batched_checks_equal_scalar_checks(seed, directed, constraint,
                                            screened, budget):
    query, hosting = random_workload(seed, directed)
    request = SearchRequest.build(
        query, hosting, constraint=constraint,
        node_constraint=NODE_CONSTRAINT if screened else None,
        max_results=budget)
    batched, plan = run_batched(LNS(), request)
    # A warm re-execute answers from the memo alone.
    assert observables(plan.execute()) == observables(batched)
    assert observables(run_scalar(LNS(), request)) == observables(batched)


def test_batched_walk_reads_the_memo_it_filled():
    query, hosting = random_workload(7, False)
    request = SearchRequest.build(query, hosting, constraint=WINDOW)
    result, plan = run_batched(LNS(), request)
    assert result.stats.constraint_evaluations > 0
    masks = plan.prepared._edge_verdicts.masks
    assert masks
    for exists, passed in masks.values():
        assert passed & ~exists == 0
    before = dict(masks)
    plan.execute()
    assert plan.prepared._edge_verdicts.masks == before


# --------------------------------------------------------------------------- #
# Fallbacks: outside the vectorizable fragment the scalar checks answer
# --------------------------------------------------------------------------- #

def bound_workload():
    query, hosting = random_workload(3, False)
    for i, node in enumerate(hosting.nodes()):
        hosting.update_node(node, osType="linux" if i % 3 else "bsd",
                            name=str(node))
    for node in query.nodes():
        query.update_node(node, osType="linux")
    return query, hosting


FALLBACKS = {
    "isBoundTo": lambda: (bound_workload(), ConstraintExpression(
        "isBoundTo(vSource.osType, rSource.osType)"
        " && isBoundTo(vTarget.osType, rTarget.osType)")),
    "division": lambda: (random_workload(5, False),
                         ConstraintExpression(
                             "rEdge.avgDelay / 2 <= vEdge.maxDelay")),
    "string attribute": lambda: (bound_workload(), ConstraintExpression(
        'rSource.osType == "linux" && rTarget.osType == "linux"')),
}


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_fallback_constraints_use_the_scalar_checks_and_agree(name):
    (query, hosting), constraint = FALLBACKS[name]()
    request = SearchRequest.build(query, hosting, constraint=constraint)
    batched, plan = run_batched(LNS(), request, expect_batch=False)
    assert LNS._edge_lookup(_context_of(request), plan.prepared) is None
    assert batched.stats.constraint_evaluations > 0
    assert observables(run_scalar(LNS(), request)) == observables(batched)


def test_strict_mode_uses_the_scalar_checks():
    query, hosting = random_workload(5, False)
    for u, v in hosting.edges():        # strict: every read must be defined
        hosting.update_edge(u, v, avgDelay=20.0)
    for u, v in query.edges():
        query.update_edge(u, v, minDelay=5.0, maxDelay=30.0)
    request = SearchRequest.build(
        query, hosting, constraint=ConstraintExpression(WINDOW, strict=True))
    batched, plan = run_batched(LNS(), request, expect_batch=False)
    assert plan.prepared._edge_verdicts is None
    assert batched.mappings
    assert observables(run_scalar(LNS(), request)) == observables(batched)


def test_string_valued_numeric_attribute_falls_back_per_side():
    """A string where the constraint wants a number — on the hosting side
    (the column is non-numeric) or on the query side (the binding is)."""
    for side in ("hosting", "query"):
        query, hosting = random_workload(11, False)
        if side == "hosting":
            hosting.update_edge(*hosting.edges()[0], avgDelay="slow")
        else:
            query.update_edge(*query.edges()[0], maxDelay="generous")
        request = SearchRequest.build(query, hosting, constraint=WINDOW)
        compile_hosting(hosting)
        plan = LNS().prepare(request)
        assert LNS._edge_lookup(_context_of(request), plan.prepared) is None

        def outcome():
            try:
                return observables(LNS().request(request))
            except Exception as exc:   # the scalar evaluator's own verdict
                return type(exc), str(exc)

        batched = outcome()
        clear_hosting_compile(hosting)
        assert outcome() == batched


def _context_of(request):
    from repro.core.base import SearchContext
    from repro.utils.timing import Deadline

    return SearchContext(query=request.query, hosting=request.hosting,
                         constraint=request.constraint,
                         node_constraint=request.node_constraint,
                         deadline=Deadline(None), max_results=None)


# --------------------------------------------------------------------------- #
# LNS never builds a hosting compile
# --------------------------------------------------------------------------- #

def test_lns_never_builds_a_hosting_compile(monkeypatch):
    built = []
    original = filters_module.HostingCompile.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(filters_module.HostingCompile, "__init__", spy)
    query, hosting = random_workload(13, True)
    clear_hosting_compile(hosting)
    request = SearchRequest.build(query, hosting, constraint=WINDOW)
    plan = LNS().prepare(request)
    plan.execute()
    plan.execute(parallelism=1)
    LNS().request(request)
    assert built == []
    assert getattr(hosting, "_hosting_compile", None) is None
    assert filters_module.peek_hosting_compile(hosting) is None
    compiled = compile_hosting(hosting)
    assert built == [compiled]
    assert filters_module.peek_hosting_compile(hosting) is compiled


def test_peek_patches_attr_churn_and_declines_structural_churn():
    query, hosting = random_workload(17, False)
    compiled = compile_hosting(hosting)
    compiled.column(4, "avgDelay")
    u, v = hosting.edges()[0]
    hosting.update_edge(u, v, avgDelay=1.5)
    assert compiled.stale
    assert filters_module.peek_hosting_compile(hosting) is compiled
    assert not compiled.stale
    hosting.remove_edge(u, v)
    assert filters_module.peek_hosting_compile(hosting) is None
    assert compile_hosting(hosting) is not compiled


# --------------------------------------------------------------------------- #
# The memo follows the plan's lifecycle
# --------------------------------------------------------------------------- #

def ring_workload(num_hosts: int = 8):
    """A ring with chords where every link is inside the query's window, so
    the first mapping can be broken by re-measuring one of its links."""
    hosting = HostingNetwork("ring")
    for i in range(num_hosts):
        hosting.add_node(f"h{i}")
    for i in range(num_hosts):
        hosting.add_edge(f"h{i}", f"h{(i + 1) % num_hosts}", avgDelay=10.0)
        hosting.add_edge(f"h{i}", f"h{(i + 3) % num_hosts}", avgDelay=12.0)
    query = QueryNetwork("path")
    for i in range(3):
        query.add_node(f"q{i}")
    query.add_edge("q0", "q1", minDelay=5.0, maxDelay=30.0)
    query.add_edge("q1", "q2", minDelay=5.0, maxDelay=30.0)
    return query, hosting


def break_first_mapping(query, hosting, mapping) -> None:
    q_source, q_target = query.edges()[0]
    hosting.update_edge(mapping.assignment[q_source],
                        mapping.assignment[q_target], avgDelay=1000.0)


def test_attribute_churn_refreshes_to_a_plan_with_an_empty_memo():
    query, hosting = ring_workload()
    request = SearchRequest.build(query, hosting, constraint=WINDOW,
                                  max_results=1)
    first, plan = run_batched(LNS(), request)
    assert plan.prepared._edge_verdicts.masks
    break_first_mapping(query, hosting, first.mappings[0])
    with pytest.raises(PlanInvalidatedError):
        plan.execute()
    refreshed = plan.refresh()
    assert refreshed.refresh_mode == "patched"
    assert refreshed.prepared._edge_verdicts is None
    assert refreshed.prepared.adjacency_masks is plan.prepared.adjacency_masks
    answer = refreshed.execute()
    assert refreshed.prepared._edge_verdicts.masks
    assert observables(answer) == observables(LNS().prepare(request).execute())
    assert observables(answer)[0] != observables(first)[0]
    assert observables(answer) == observables(run_scalar(LNS(), request))


def test_service_hand_over_drops_the_memo():
    query, hosting = ring_workload()
    service = NetEmbedService(default_timeout=10.0)
    service.register_network(hosting, name="lab")
    compile_hosting(hosting)
    spec = QuerySpec(query=query, constraint=WINDOW, algorithm="LNS",
                     max_results=1)
    first = service.submit(spec)
    held = service.prepare(spec)
    assert held.prepared._edge_verdicts.masks
    break_first_mapping(query, hosting, first.mappings[0])
    service.registry.touch("lab")
    second = service.submit(spec)
    assert service.plans.stats()["patched"] == 1
    assert [m.assignment for m in second.mappings] \
        != [m.assignment for m in first.mappings]
    patched = service.prepare(spec)
    assert patched is not held and not patched.stale
    fresh = LNS().request(SearchRequest.build(query, hosting, constraint=WINDOW,
                                              max_results=1))
    assert observables(second.result) == observables(fresh)
    assert observables(patched.execute()) == observables(fresh)


def test_pickled_plan_carries_no_memo_and_runs_scalar():
    query, hosting = ring_workload()
    request = SearchRequest.build(query, hosting, constraint=WINDOW)
    result, plan = run_batched(LNS(), request)
    clone = pickle.loads(pickle.dumps(plan.prepared))
    assert clone._edge_verdicts is None
    assert plan.prepared._edge_verdicts.masks      # the owner keeps its memo


def test_sharded_scalar_run_equals_serial_batched_run():
    """Shard workers unpickle the network — no compile, scalar checks —
    while the parent's serial run reads the compile: the one place both
    paths meet in production."""
    query, hosting = random_workload(29, False)
    request = SearchRequest.build(query, hosting, constraint=WINDOW)
    serial, plan = run_batched(LNS(), request)
    sharded = plan.execute(parallelism=PARALLELISM)
    assert observables(sharded) == observables(serial)
    capped = plan.execute(Budget(max_results=2), parallelism=PARALLELISM)
    assert observables(capped)[0] == observables(serial)[0][:2]


def test_byte_cap_drops_the_memo_and_keeps_the_answer(monkeypatch):
    query, hosting = random_workload(31, False)
    request = SearchRequest.build(query, hosting, constraint=WINDOW)
    uncapped, roomy = run_batched(LNS(), request)
    assert len(roomy.prepared._edge_verdicts.masks) > 1
    monkeypatch.setattr(filters_module, "_VERDICT_MEMO_BYTES", 1)
    capped, tight = run_batched(LNS(), request)
    assert len(tight.prepared._edge_verdicts.masks) == 1
    assert observables(capped) == observables(uncapped)
    assert observables(tight.execute()) == observables(uncapped)

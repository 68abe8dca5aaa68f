"""Property-based cross-algorithm agreement tests.

The strongest correctness statement the paper makes is completeness +
correctness (§II): every algorithm finds exactly the set of feasible
embeddings.  These hypothesis tests check that on random instances:

* every mapping returned by any algorithm passes the independent validator;
* ECF, RWB (uncapped), LNS and the unfiltered brute-force baseline all return
  exactly the same *set* of embeddings;
* queries sampled as subgraphs of the hosting network are always found
  feasible;
* provably infeasible perturbations are always reported infeasible.
"""

from __future__ import annotations

from conftest import search
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines import BruteForceCSP
from repro.core import ECF, LNS, RWB, is_valid_mapping
from repro.graphs.ops import random_connected_subgraph
from repro.topology.random_graphs import annotate_uniform_delays, connected_gnp
from repro.workloads import make_globally_infeasible, subgraph_query

COMMON_SETTINGS = dict(max_examples=20, deadline=None,
                       suppress_health_check=[HealthCheck.too_slow])


def _instance(seed: int, host_nodes: int, query_nodes: int, slack: float = 0.4):
    """A random hosting network plus a feasible-by-construction query."""
    hosting = annotate_uniform_delays(
        connected_gnp(host_nodes, 0.35, rng=seed), low=5.0, high=80.0, rng=seed + 1)
    workload = subgraph_query(hosting, query_nodes, slack=slack, rng=seed + 2)
    return hosting, workload


@settings(**COMMON_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=10_000),
       host_nodes=st.integers(min_value=5, max_value=9),
       query_nodes=st.integers(min_value=2, max_value=4))
def test_all_returned_mappings_are_valid(seed, host_nodes, query_nodes):
    hosting, workload = _instance(seed, host_nodes, query_nodes)
    for algorithm in (ECF(), RWB(rng=seed), LNS()):
        result = search(algorithm, workload.query, hosting,
                        constraint=workload.constraint, max_results=10)
        for mapping in result.mappings:
            assert is_valid_mapping(mapping, workload.query, hosting,
                                    workload.constraint), algorithm.name


@settings(**COMMON_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=10_000),
       host_nodes=st.integers(min_value=5, max_value=8),
       query_nodes=st.integers(min_value=2, max_value=4))
def test_complete_algorithms_agree_on_the_solution_set(seed, host_nodes, query_nodes):
    hosting, workload = _instance(seed, host_nodes, query_nodes)
    reference = search(ECF(), workload.query, hosting, constraint=workload.constraint)
    assert reference.status.value == "complete"
    reference_set = set(reference.mappings)

    for algorithm in (RWB(rng=seed), LNS(), BruteForceCSP()):
        result = search(algorithm, workload.query, hosting,
                        constraint=workload.constraint,
                        max_results=max(1, len(reference_set)) * 5)
        # Uncapped searches that ran to completion must match exactly; capped
        # ones must be a subset.
        found = set(result.mappings)
        if result.status.value == "complete":
            assert found == reference_set, algorithm.name
        else:
            assert found <= reference_set, algorithm.name
        assert found, f"{algorithm.name} found nothing on a feasible instance"


@settings(**COMMON_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=10_000),
       host_nodes=st.integers(min_value=6, max_value=10),
       query_nodes=st.integers(min_value=2, max_value=5))
def test_subgraph_queries_are_always_feasible(seed, host_nodes, query_nodes):
    """Sampling a query from the host guarantees an embedding exists (§VII-A)."""
    hosting, workload = _instance(seed, host_nodes, query_nodes)
    assert workload.feasible_by_construction
    result = search(LNS(), workload.query, hosting, constraint=workload.constraint,
                    max_results=1)
    assert result.found


@settings(**COMMON_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=10_000),
       host_nodes=st.integers(min_value=6, max_value=9),
       query_nodes=st.integers(min_value=3, max_value=5))
def test_infeasible_perturbations_are_proven_infeasible(seed, host_nodes, query_nodes):
    """Fig. 10's infeasible queries must yield complete-but-empty results."""
    hosting, workload = _instance(seed, host_nodes, query_nodes)
    infeasible = make_globally_infeasible(workload, hosting, rng=seed)
    for algorithm in (ECF(), RWB(rng=seed), LNS()):
        result = search(algorithm, infeasible.query, hosting,
                        constraint=infeasible.constraint)
        assert result.proved_infeasible, algorithm.name


@settings(**COMMON_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_pure_topology_embedding_matches_networkx_subisomorphism_count(seed):
    """With no attribute constraints the problem is subgraph isomorphism;
    cross-check ECF's full enumeration against networkx's VF2 matcher."""
    import networkx as nx
    from repro.graphs.ops import as_query, relabel_sequential

    hosting = connected_gnp(6, 0.4, rng=seed)
    sample = random_connected_subgraph(hosting, 3, rng=seed + 1)
    query, _ = relabel_sequential(as_query(sample, attribute_whitelist=()), prefix="q")

    result = search(ECF(), query, hosting)
    assert result.status.value == "complete"

    matcher = nx.algorithms.isomorphism.GraphMatcher(hosting.graph, query.graph)
    expected = set()
    for iso in matcher.subgraph_monomorphisms_iter():
        expected.add(frozenset((q, r) for r, q in iso.items()))
    found = {frozenset(m.as_dict().items()) for m in result.mappings}
    assert found == expected

"""Property-based agreement tests on *directed* networks.

The PlanetLab/BRITE experiments use undirected graphs, but the paper's filter
update rule (§V-A footnote 3) explicitly covers directed networks, so the
implementation must stay correct there too: ECF, RWB, LNS and the brute-force
baseline must agree on the full solution set, and every mapping must respect
edge orientation.
"""

from __future__ import annotations

from conftest import search
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines import BruteForceCSP
from repro.constraints import ConstraintExpression
from repro.core import ECF, LNS, RWB, is_valid_mapping
from repro.graphs import HostingNetwork, QueryNetwork
from repro.utils.rng import as_rng

SETTINGS = dict(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _directed_host(seed: int, num_nodes: int) -> HostingNetwork:
    """A random connected-ish directed hosting network with delay attributes."""
    rand = as_rng(seed)
    hosting = HostingNetwork(f"dhost{seed}", directed=True)
    nodes = [f"h{i}" for i in range(num_nodes)]
    for node in nodes:
        hosting.add_node(node, name=node)
    # A directed cycle guarantees weak connectivity, then random extra arcs.
    for index in range(num_nodes):
        u, v = nodes[index], nodes[(index + 1) % num_nodes]
        hosting.add_edge(u, v, avgDelay=round(rand.uniform(5.0, 80.0), 2))
    for u in nodes:
        for v in nodes:
            if u != v and not hosting.has_edge(u, v) and rand.random() < 0.25:
                hosting.add_edge(u, v, avgDelay=round(rand.uniform(5.0, 80.0), 2))
    return hosting


def _directed_query(hosting: HostingNetwork, seed: int, num_nodes: int) -> QueryNetwork:
    """A query sampled from the host's arcs so at least one embedding exists."""
    rand = as_rng(seed)
    chosen = rand.sample(hosting.nodes(), num_nodes)
    query = QueryNetwork(f"dquery{seed}", directed=True)
    mapping = {host: f"q{i}" for i, host in enumerate(chosen)}
    for host in chosen:
        query.add_node(mapping[host])
    for u in chosen:
        for v in chosen:
            if u != v and hosting.has_edge(u, v):
                delay = hosting.get_edge_attr(u, v, "avgDelay")
                query.add_edge(mapping[u], mapping[v],
                               minDelay=round(delay * 0.7, 2),
                               maxDelay=round(delay * 1.3, 2))
    return query


WINDOW = ConstraintExpression(
    "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay")


@settings(**SETTINGS)
@given(seed=st.integers(min_value=0, max_value=5_000),
       host_nodes=st.integers(min_value=4, max_value=7),
       query_nodes=st.integers(min_value=2, max_value=3))
def test_directed_solution_sets_agree(seed, host_nodes, query_nodes):
    hosting = _directed_host(seed, host_nodes)
    query = _directed_query(hosting, seed + 1, query_nodes)

    reference = search(ECF(), query, hosting, constraint=WINDOW)
    assert reference.status.value == "complete"
    reference_set = set(reference.mappings)

    for algorithm in (RWB(rng=seed), LNS(), BruteForceCSP()):
        result = search(algorithm, query, hosting, constraint=WINDOW,
                        max_results=max(len(reference_set), 1) * 4)
        found = set(result.mappings)
        if result.status.value == "complete":
            assert found == reference_set, algorithm.name
        else:
            assert found <= reference_set, algorithm.name

    for mapping in reference_set:
        assert is_valid_mapping(mapping, query, hosting, WINDOW)
        # Orientation is respected: every directed query edge maps onto a
        # directed hosting arc in the same direction.
        for q_source, q_target in query.edges():
            assert hosting.has_edge(mapping[q_source], mapping[q_target])


@settings(**SETTINGS)
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_directed_queries_with_edges_in_both_directions(seed):
    """Anti-parallel query arcs with different windows must both be honoured."""
    hosting = _directed_host(seed, 6)
    query = QueryNetwork("biarc", directed=True)
    query.add_node("x")
    query.add_node("y")
    query.add_edge("x", "y", minDelay=0.0, maxDelay=100.0)
    query.add_edge("y", "x", minDelay=0.0, maxDelay=100.0)

    result = search(ECF(), query, hosting, constraint=WINDOW)
    assert result.status.value == "complete"
    for mapping in result.mappings:
        assert hosting.has_edge(mapping["x"], mapping["y"])
        assert hosting.has_edge(mapping["y"], mapping["x"])

"""BRITE-like Internet topology generation (paper §VII-C).

The paper's larger hosting networks are produced with the BRITE topology
generator "based on the power-law models of node connectivity of the
Internet", with sizes N=1500/E=3030, N=2000/E=4040 and N=2500/E=5020 — i.e.
roughly two edges per node.  This module reimplements the two BRITE models
that matter for those experiments:

* :func:`barabasi_albert` — incremental growth with preferential attachment
  (power-law degree distribution), BRITE's ``BA`` model;
* :func:`waxman` — random geometric attachment with the Waxman probability
  ``P(u,v) = alpha * exp(-d(u,v) / (beta * L))``, BRITE's ``Waxman`` model.

As in BRITE, nodes are placed on a square plane divided into high-level (HS)
squares and low-level (LS) squares; link delays are derived from Euclidean
distance so they are metrically consistent (triangle-inequality-respecting),
and every edge carries the usual ``minDelay``/``avgDelay``/``maxDelay``
triple.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Type

from repro.graphs.hosting import HostingNetwork
from repro.graphs.network import Network
from repro.topology.delays import (
    delay_from_distance,
    delay_triple,
    euclidean_distance,
)
from repro.utils.rng import RandomSource, as_rng


def _place_nodes(network: Network, num_nodes: int, plane_size: float, rand,
                 prefix: str) -> List[str]:
    """Place nodes uniformly at random on a plane_size × plane_size plane."""
    nodes = []
    for index in range(num_nodes):
        node = f"{prefix}{index}"
        network.add_node(node,
                         name=node,
                         x=round(rand.uniform(0.0, plane_size), 3),
                         y=round(rand.uniform(0.0, plane_size), 3))
        nodes.append(node)
    return nodes


def _annotate_delay(network: Network, u: str, v: str, ms_per_unit: float, rand) -> None:
    a = (network.get_node_attr(u, "x"), network.get_node_attr(u, "y"))
    b = (network.get_node_attr(v, "x"), network.get_node_attr(v, "y"))
    base = delay_from_distance(euclidean_distance(a, b), ms_per_unit)
    network.update_edge(u, v, **delay_triple(base, rand))


def barabasi_albert(num_nodes: int, edges_per_node: int = 2,
                    plane_size: float = 100.0, ms_per_unit: float = 0.5,
                    rng: RandomSource = None,
                    cls: Type[Network] = HostingNetwork,
                    prefix: str = "b", name: Optional[str] = None) -> Network:
    """BRITE's BA model: incremental growth with preferential attachment.

    Parameters
    ----------
    num_nodes:
        Total number of nodes.
    edges_per_node:
        Links added by each new node (``m``); the paper's hosting networks use
        the equivalent of ``m = 2`` (E ≈ 2·N).
    plane_size, ms_per_unit:
        Geometry of the coordinate plane and its delay scale.
    rng:
        Randomness source.
    cls, prefix, name:
        Output network class, node-id prefix and network name.

    Returns
    -------
    Network
        A connected power-law network with delay-annotated edges.
    """
    if num_nodes < edges_per_node + 1:
        raise ValueError(
            f"num_nodes ({num_nodes}) must exceed edges_per_node ({edges_per_node})")
    if edges_per_node < 1:
        raise ValueError(f"edges_per_node must be >= 1, got {edges_per_node}")
    rand = as_rng(rng)
    network = cls(name=name or f"brite-ba-{num_nodes}")
    nodes = _place_nodes(network, num_nodes, plane_size, rand, prefix)

    # Seed: a small clique of the first m+1 nodes so the attachment pool has
    # non-zero degrees.
    seed_count = edges_per_node + 1
    for i in range(seed_count):
        for j in range(i + 1, seed_count):
            network.add_edge(nodes[i], nodes[j])
            _annotate_delay(network, nodes[i], nodes[j], ms_per_unit, rand)

    # repeated-endpoints list: picking uniformly from it is degree-proportional.
    attachment_pool: List[str] = []
    for i in range(seed_count):
        attachment_pool.extend([nodes[i]] * network.degree(nodes[i]))

    for index in range(seed_count, num_nodes):
        new_node = nodes[index]
        # Targets in draw order (not a set of string ids, whose iteration
        # order follows the process's hash seed), so a seed fixes the edges
        # and the delay draws.
        targets: List[str] = []
        # Guard against the (tiny) possibility of repeatedly sampling the same
        # target in small graphs.
        attempts = 0
        while len(targets) < edges_per_node and attempts < 50 * edges_per_node:
            target = rand.choice(attachment_pool)
            if target not in targets:
                targets.append(target)
            attempts += 1
        for target in targets:
            network.add_edge(new_node, target)
            _annotate_delay(network, new_node, target, ms_per_unit, rand)
            attachment_pool.append(target)
        attachment_pool.extend([new_node] * len(targets))

    return network


def waxman(num_nodes: int, alpha: float = 0.15, beta: float = 0.2,
           plane_size: float = 100.0, ms_per_unit: float = 0.5,
           rng: RandomSource = None, cls: Type[Network] = HostingNetwork,
           prefix: str = "w", name: Optional[str] = None,
           ensure_connected: bool = True) -> Network:
    """BRITE's Waxman model: distance-dependent random attachment.

    Each node pair ``(u, v)`` is connected with probability
    ``alpha * exp(-d(u, v) / (beta * L))`` where ``L`` is the plane diagonal.
    With ``ensure_connected`` (default) a minimal set of extra nearest-
    neighbour links joins any disconnected components, so the result is
    always usable as a hosting network.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    rand = as_rng(rng)
    network = cls(name=name or f"brite-waxman-{num_nodes}")
    nodes = _place_nodes(network, num_nodes, plane_size, rand, prefix)
    diagonal = plane_size * (2 ** 0.5)

    import math
    coords = {node: (network.get_node_attr(node, "x"), network.get_node_attr(node, "y"))
              for node in nodes}
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            u, v = nodes[i], nodes[j]
            distance = euclidean_distance(coords[u], coords[v])
            probability = alpha * math.exp(-distance / (beta * diagonal))
            if rand.random() < probability:
                network.add_edge(u, v)
                _annotate_delay(network, u, v, ms_per_unit, rand)

    if ensure_connected:
        _connect_components(network, coords, ms_per_unit, rand)
    return network


def _connect_components(network: Network, coords, ms_per_unit: float, rand) -> None:
    """Join disconnected components with nearest-neighbour bridge links."""
    import networkx as nx

    graph = network.graph
    components = [sorted(c, key=str) for c in nx.connected_components(graph)]
    while len(components) > 1:
        base = components[0]
        other = components[1]
        # Bridge the closest pair of nodes between the two components.
        best: Optional[Tuple[float, str, str]] = None
        for u in base:
            for v in other:
                distance = euclidean_distance(coords[u], coords[v])
                if best is None or distance < best[0]:
                    best = (distance, u, v)
        assert best is not None
        _, u, v = best
        network.add_edge(u, v)
        _annotate_delay(network, u, v, ms_per_unit, rand)
        components = [sorted(c, key=str) for c in nx.connected_components(graph)]


def paper_hosting_networks(rng: RandomSource = None, scale: float = 1.0):
    """The three BRITE hosting networks of §VII-C, optionally scaled down.

    Returns a list of :class:`HostingNetwork` with (approximately) the node
    counts 1500, 2000 and 2500 multiplied by *scale*.  The benchmark harness
    uses ``scale < 1`` to keep the runs laptop-sized while preserving the
    N/E ratio of the paper.
    """
    rand = as_rng(rng)
    sizes = [max(10, int(round(n * scale))) for n in (1500, 2000, 2500)]
    return [barabasi_albert(n, edges_per_node=2, rng=rand,
                            name=f"brite-{n}") for n in sizes]

"""A seed fixes the instance: every seeded generator builds the same network
in any process.

Python salts string hashes per process, so a generator that iterates a set
of node ids builds a different network under another ``PYTHONHASHSEED``
even with the same seed.  Each generator is built in two subprocesses with
different hash seeds, and the digests of its nodes, edges and attributes
(in the order the network holds them) must be equal.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

BUILD = r"""
import hashlib, json
from repro.topology.brite import waxman
from repro.topology.gtitm import transit_stub
from repro.topology.planetlab import synthetic_planetlab_trace
from repro.topology.random_graphs import (
    connected_gnp, connected_graph_with_edges, random_tree)
from repro.workloads.queries import (
    clique_query_series, composite_query_series, subgraph_query,
    subgraph_query_series)
from repro.workloads.suites import brite_host, federated_planetlab


def digest(network):
    text = repr((
        [(node, sorted(network.node_attrs(node).items()))
         for node in network.nodes()],
        [(u, v, sorted(network.edge_attrs(u, v).items()))
         for u, v in network.edges()]))
    return hashlib.sha256(text.encode()).hexdigest()


host = synthetic_planetlab_trace(num_sites=30, rng=3)
built = {
    "barabasi_albert": [brite_host(90, rng=11)],
    "waxman": [waxman(40, rng=3)],
    "transit_stub": [transit_stub(rng=3)],
    "synthetic_planetlab_trace": [host],
    "federated_planetlab": [federated_planetlab(3, 10, rng=3)],
    "connected_gnp": [connected_gnp(20, 0.2, rng=3)],
    "connected_graph_with_edges": [connected_graph_with_edges(15, 30, rng=3)],
    "random_tree": [random_tree(15, rng=3)],
    "subgraph_query": [subgraph_query(host, 6, rng=3).query],
    "subgraph_query_series": [
        w.query for w in subgraph_query_series(host, [4, 6],
                                               queries_per_size=2, rng=3)],
    "clique_query_series": [w.query for w in clique_query_series([3, 4])],
    "composite_query_series": [
        w.query for w in composite_query_series([8], irregular=True, rng=3)],
}
print(json.dumps({name: [digest(n) for n in networks]
                  for name, networks in built.items()}))
"""


def digests(hash_seed: str):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", BUILD], env=env,
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout)


def test_every_seeded_generator_is_independent_of_the_hash_seed():
    first, second = digests("1"), digests("2")
    assert first.keys() == second.keys()
    differ = [name for name in first if first[name] != second[name]]
    assert not differ

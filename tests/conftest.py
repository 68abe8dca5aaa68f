"""Shared fixtures for the NETEMBED reproduction test suite."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.api import SearchRequest
from repro.constraints import ConstraintExpression
from repro.core import filters as filters_module
from repro.core import kernel
from repro.graphs.hosting import HostingNetwork
from repro.graphs.query import QueryNetwork

#: What a successful numba load leaves in ``kernel._NUMBA`` where numba is
#: not installable (here): the njit sources, uncompiled, stand in for their
#: compiled forms.
UNCOMPILED_KERNELS = {"ecf": kernel._nb_ecf_chunk,
                      "rwb": kernel._nb_rwb_candidates}


def search(algorithm, query, hosting, **options):
    """One request from flat keywords (``constraint=``, ``node_constraint=``,
    ``timeout=``, ``max_results=``) — the only call surface algorithms have."""
    return algorithm.request(SearchRequest.build(query, hosting, **options))


def patch_every_row(*args, **kwargs):
    """:func:`~repro.core.filters.patch_filters` with its row-fraction
    decline out of the way, for tests about what a patch produces however
    much of the network the delta touched."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(filters_module, "PATCH_ROW_FRACTION", 1.0)
        return filters_module.patch_filters(*args, **kwargs)


@contextmanager
def pinned_kernel(backend: str):
    """Run the enclosed block on one kernel backend, whatever this process
    detected: ``"python"`` hides the njit table, ``"numba"`` installs it —
    the compiled one where numba loaded, the uncompiled sources otherwise.

    A context manager rather than a fixture because ``@given`` bodies cannot
    take function-scoped fixtures.  The pin is process-wide (thread shards
    inside the block see it too) and undone on exit.
    """
    table = None
    if backend == "numba":
        table = kernel._load_numba() or UNCOMPILED_KERNELS
    elif backend != "python":
        raise ValueError(f"unknown kernel backend {backend!r}")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_NUMBA", table)
        patch.setattr(kernel, "_NUMBA_LOAD_TRIED", True)
        yield


@pytest.fixture
def small_hosting() -> HostingNetwork:
    """A 6-node hosting network with delay-annotated edges and node attributes.

    Topology (delays in ms on avgDelay)::

        a --10-- b --50-- c
        |        |        |
        30       20       15
        |        |        |
        d --40-- e --25-- f
    """
    hosting = HostingNetwork("small-host")
    attrs = {
        "a": {"osType": "linux", "cpuLoad": 0.2, "region": "east"},
        "b": {"osType": "linux", "cpuLoad": 0.5, "region": "east"},
        "c": {"osType": "bsd", "cpuLoad": 0.8, "region": "west"},
        "d": {"osType": "linux", "cpuLoad": 0.1, "region": "east"},
        "e": {"osType": "bsd", "cpuLoad": 0.4, "region": "west"},
        "f": {"osType": "linux", "cpuLoad": 0.6, "region": "west"},
    }
    for node, data in attrs.items():
        hosting.add_node(node, name=node, **data)
    edges = [
        ("a", "b", 10.0), ("b", "c", 50.0), ("a", "d", 30.0),
        ("b", "e", 20.0), ("c", "f", 15.0), ("d", "e", 40.0), ("e", "f", 25.0),
    ]
    for u, v, delay in edges:
        hosting.add_edge(u, v, avgDelay=delay, minDelay=delay * 0.9,
                         maxDelay=delay * 1.2)
    return hosting


@pytest.fixture
def path_query() -> QueryNetwork:
    """A 3-node path query with delay windows that several embeddings satisfy."""
    query = QueryNetwork("path-query")
    for node in ("x", "y", "z"):
        query.add_node(node)
    query.add_edge("x", "y", minDelay=5.0, maxDelay=35.0)
    query.add_edge("y", "z", minDelay=10.0, maxDelay=60.0)
    return query


@pytest.fixture
def triangle_query() -> QueryNetwork:
    """A triangle query (no attribute constraints) — needs a hosting triangle."""
    query = QueryNetwork("triangle")
    for node in ("p", "q", "r"):
        query.add_node(node)
    query.add_edge("p", "q")
    query.add_edge("q", "r")
    query.add_edge("p", "r")
    return query


@pytest.fixture
def window_constraint() -> ConstraintExpression:
    """The standard workload constraint: hosting delay inside the query window."""
    return ConstraintExpression(
        "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay")

"""Lazy cell tables: a kernel plan decodes a cell the first time a walk
reads it.

``KernelPlan.cell_tables`` holds, per slot, a ``host index -> int mask``
table that starts empty and fills from the slot's packed block on a miss.
This suite pins that a plan costs nothing to build and a search decodes no
more than it expands (a counter bound — no timing), that an absent block and
an absent row both read as the zero mask, and that the streams and counters
are the reference engine's — serially and sharded on both shard backends,
where every shard fills a plan of its own (process) or the shared one
(thread).

Set ``REPRO_PARITY_PARALLELISM`` to choose the shard count (CI's parallel
parity step does).
"""

from __future__ import annotations

import dataclasses
import os
import random
from concurrent.futures import ThreadPoolExecutor

import pytest
from conftest import pinned_kernel

from repro.api import SearchRequest
from repro.api.request import Budget
from repro.constraints import ConstraintExpression
from repro.core import ECF, RWB, build_filters, kernel, parallel
from repro.core.base import placed_neighbor_plan
from repro.core.reference import ReferenceECF, ReferenceRWB, decode_views
from repro.graphs.hosting import HostingNetwork
from repro.graphs.query import QueryNetwork

PARALLELISM = int(os.environ.get("REPRO_PARITY_PARALLELISM") or 2)

WINDOW = ConstraintExpression(
    "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay")


def workload(seed: int, num_hosts: int = 40, num_query: int = 5):
    """A cycle query with a chord over a moderately dense host: deep enough
    to give inner depths two slots, feasible enough to find mappings."""
    rng = random.Random(seed)
    hosting = HostingNetwork("hosting")
    for i in range(num_hosts):
        hosting.add_node(f"h{i:02d}")
    for i in range(num_hosts):
        for j in range(i + 1, num_hosts):
            if rng.random() < 0.3:
                hosting.add_edge(f"h{i:02d}", f"h{j:02d}",
                                 avgDelay=rng.uniform(5.0, 60.0))
    query = QueryNetwork("query")
    for i in range(num_query):
        query.add_node(f"q{i}")
    for i in range(num_query):
        query.add_edge(f"q{i}", f"q{(i + 1) % num_query}",
                       minDelay=0.0, maxDelay=rng.uniform(35.0, 60.0))
    query.add_edge("q0", "q2", minDelay=0.0, maxDelay=50.0)
    return query, hosting


def decoded_masks(plan: kernel.KernelPlan) -> int:
    return sum(len(cells) for slots in plan.cell_tables if slots
               for _nb_depth, cells in slots)


def observables(result):
    """The mapping stream (its length is ``mappings_found``) and the three
    search counters."""
    return ([list(m.as_dict().items()) for m in result.mappings],
            result.stats.nodes_expanded,
            result.stats.candidates_considered,
            result.stats.backtracks)


class TestDecodeOnFirstRead:
    def test_a_capped_search_decodes_no_more_than_it_expands(self):
        query, hosting = workload(1)
        request = SearchRequest.build(query, hosting, constraint=WINDOW,
                                      max_results=4)
        with pinned_kernel("python"):
            embedding = ECF().prepare(request)
            plan = embedding.prepared.kernel_plan()
            assert decoded_masks(plan) == 0
            result = embedding.execute()
        assert len(result.mappings) == 4
        slots = [slot for depth in plan.cell_tables if depth for slot in depth]
        widest = max(len(depth) for depth in plan.cell_tables if depth)
        assert widest >= 2
        # One expansion reads one cell per slot of the depth it opens.
        assert 0 < decoded_masks(plan) <= result.stats.nodes_expanded * widest
        # ...which is far from every stored row (what an eager fill decodes).
        stored = sum(len(cells.block.hosts) for _nb_depth, cells in slots)
        assert decoded_masks(plan) < stored // 4

        # A second run over the held plan reads what the first one kept.
        before = decoded_masks(plan)
        with pinned_kernel("python"):
            again = embedding.execute()
        assert observables(again) == observables(result)
        assert decoded_masks(plan) == before

    def test_decoded_cells_are_the_filters_cells(self):
        query, hosting = workload(2, num_hosts=12, num_query=4)
        filters = build_filters(query, hosting, WINDOW, None)
        order = sorted(query.nodes(), key=str)
        prior = placed_neighbor_plan(query, order)
        plan = kernel.KernelPlan(filters, order, prior)
        hosts = filters.host_indexer.nodes
        views = decode_views(filters)     # every row, decoded another way
        empty = 0
        for node, neighbors, slots in zip(order, prior, plan.cell_tables):
            assert (slots is None) == (not neighbors)
            for neighbor, (nb_depth, cells) in zip(neighbors, slots or ()):
                assert order[nb_depth] == neighbor
                for index, host in enumerate(hosts):
                    expected = filters.host_indexer.encode(
                        views.cell(neighbor, host, node))
                    assert cells[index] == expected
                    empty += not expected
                assert len(cells) == len(hosts)
        assert empty        # absent rows were read, and read as zero

    def test_an_absent_block_reads_as_zero_and_prunes(self):
        query, hosting = workload(2, num_hosts=12, num_query=4)
        filters = build_filters(query, hosting, WINDOW, None)
        order = sorted(query.nodes(), key=str)
        prior = placed_neighbor_plan(query, order)
        missing = (prior[1][0], order[1])
        holed = dataclasses.replace(
            filters, blocks={key: block
                             for key, block in filters.blocks.items()
                             if key != missing})
        plan = kernel.KernelPlan(holed, order, prior)
        (_nb_depth, cells), = plan.cell_tables[1][:1]
        assert cells.block is None
        assert [cells[index] for index in range(plan.num_hosts)] \
            == [0] * plan.num_hosts
        assert kernel.candidates_mask(plan, 1, [0] * plan.n, 0) == 0
        # The word arrays agree: the slot maps every host to "no row".
        slot_rows = plan.words()[4]
        assert (slot_rows[0] == -1).all()


class TestStreamsAndCounters:
    """Both engines over lazily filled plans against the reference engine,
    which keeps whole sets."""

    def request(self, name: str, seed: int):
        query, hosting = workload(seed, num_hosts=20, num_query=4)
        budget = Budget(max_results=10 ** 6) if name == "RWB" else Budget()
        return SearchRequest.build(query, hosting, constraint=WINDOW,
                                   budget=budget)

    def reference(self, name: str, request, seed: int):
        algorithm = ReferenceRWB(rng=seed) if name == "RWB" else ReferenceECF()
        result = algorithm.request(request)
        assert len(result.mappings) > 1
        return observables(result)

    def execute(self, name: str, request, seed: int, **how):
        algorithm = RWB() if name == "RWB" else ECF()
        with pinned_kernel("python"):
            return observables(algorithm.prepare(request).execute(
                rng=seed if name == "RWB" else None, **how))

    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize("name", ["ECF", "RWB"])
    def test_serial_and_process_shards(self, name, seed):
        request = self.request(name, seed)
        expected = self.reference(name, request, seed)
        assert self.execute(name, request, seed) == expected
        assert self.execute(name, request, seed,
                            parallelism=PARALLELISM) == expected

    @pytest.mark.parametrize("name", ["ECF", "RWB"])
    def test_thread_shards_fill_one_plan(self, name):
        request = self.request(name, 3)
        with ThreadPoolExecutor(PARALLELISM) as pool:
            assert self.execute(name, request, 3, parallelism=PARALLELISM,
                                pool=pool) \
                == self.reference(name, request, 3)
            assert not parallel._INPROC_GROUPS

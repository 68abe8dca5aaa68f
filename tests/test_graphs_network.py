"""Unit tests for the base Network class and its role-specific subclasses."""

from __future__ import annotations

import pickle

import pytest

from repro.graphs import HostingNetwork, Network, QueryNetwork
from repro.graphs.errors import DuplicateNodeError, GraphError, MissingNodeError


class TestConstruction:
    def test_add_nodes_and_edges(self):
        net = Network("n")
        net.add_node("a", color="red")
        net.add_node("b")
        net.add_edge("a", "b", weight=3)
        assert net.num_nodes == 2
        assert net.num_edges == 1
        assert net.has_edge("a", "b")
        assert net.get_node_attr("a", "color") == "red"
        assert net.get_edge_attr("a", "b", "weight") == 3

    def test_duplicate_node_rejected(self):
        net = Network()
        net.add_node("a")
        with pytest.raises(DuplicateNodeError):
            net.add_node("a")

    def test_edge_to_missing_node_rejected(self):
        net = Network()
        net.add_node("a")
        with pytest.raises(MissingNodeError):
            net.add_edge("a", "ghost")

    def test_self_loop_rejected(self):
        net = Network()
        net.add_node("a")
        with pytest.raises(GraphError):
            net.add_edge("a", "a")

    def test_update_node_and_edge(self):
        net = Network()
        net.add_node("a", x=1)
        net.add_node("b")
        net.add_edge("a", "b", w=1)
        net.update_node("a", x=2, y=3)
        net.update_edge("a", "b", w=9)
        assert net.node_attrs("a") == {"x": 2, "y": 3}
        assert net.get_edge_attr("a", "b", "w") == 9

    def test_update_missing_raises(self):
        net = Network()
        with pytest.raises(MissingNodeError):
            net.update_node("ghost", x=1)

    def test_remove_node_and_edge(self):
        net = Network()
        for node in "abc":
            net.add_node(node)
        net.add_edge("a", "b")
        net.add_edge("b", "c")
        net.remove_edge("a", "b")
        assert not net.has_edge("a", "b")
        net.remove_node("c")
        assert not net.has_node("c")
        assert net.num_edges == 0


class TestUndirectedSemantics:
    def test_undirected_edge_visible_both_ways(self):
        net = Network(directed=False)
        net.add_node("a")
        net.add_node("b")
        net.add_edge("a", "b")
        assert net.has_edge("b", "a")

    def test_directed_edge_is_one_way(self):
        net = Network(directed=True)
        net.add_node("a")
        net.add_node("b")
        net.add_edge("a", "b")
        assert not net.has_edge("b", "a")

    def test_directed_neighbors_include_both_directions(self):
        net = Network(directed=True)
        for node in "abc":
            net.add_node(node)
        net.add_edge("a", "b")
        net.add_edge("c", "a")
        assert sorted(net.neighbors("a")) == ["b", "c"]


class TestAdjacencyCache:
    """The per-node neighbour cache must never serve stale adjacency."""

    def _directed_triangle(self):
        net = Network(directed=True)
        for node in "abc":
            net.add_node(node)
        net.add_edge("a", "b")
        net.add_edge("c", "a")
        return net

    def test_repeated_calls_are_consistent(self):
        net = self._directed_triangle()
        assert net.neighbors("a") == net.neighbors("a")
        assert sorted(net.neighbors("a")) == ["b", "c"]

    def test_add_edge_invalidates(self):
        net = self._directed_triangle()
        assert sorted(net.neighbors("a")) == ["b", "c"]
        net.add_node("d")
        net.add_edge("a", "d")
        assert sorted(net.neighbors("a")) == ["b", "c", "d"]
        assert net.neighbors("d") == ["a"]

    def test_remove_edge_invalidates(self):
        net = self._directed_triangle()
        assert sorted(net.neighbors("a")) == ["b", "c"]
        net.remove_edge("c", "a")
        assert net.neighbors("a") == ["b"]
        assert net.neighbors("c") == []

    def test_remove_node_invalidates_other_nodes(self):
        net = self._directed_triangle()
        assert sorted(net.neighbors("a")) == ["b", "c"]
        assert net.neighbors("b") == ["a"]
        net.remove_node("a")
        assert net.neighbors("b") == []
        assert net.neighbors("c") == []

    def test_returned_list_is_a_copy(self):
        net = self._directed_triangle()
        listing = net.neighbors("a")
        listing.append("bogus")
        assert "bogus" not in net.neighbors("a")

    def test_undirected_cache_matches_networkx(self, small_hosting):
        for node in small_hosting.nodes():
            assert (sorted(small_hosting.neighbors(node))
                    == sorted(small_hosting.graph.neighbors(node)))


class TestStructureMemo:
    """Maximum degree and edge count are memoised across attribute churn and
    never served stale across a structural mutation."""

    def _star(self):
        net = Network()
        for node in "abcd":
            net.add_node(node)
        for leaf in "bcd":
            net.add_edge("a", leaf, w=1)
        return net

    @pytest.fixture
    def degree_walks(self, monkeypatch):
        """Counts the whole-graph degree walks networkx is asked for (its
        edge count is one too)."""
        walks = []
        cls = type(Network()._graph)
        degree = cls.degree

        def counting_degree(graph):
            walks.append(graph)
            return degree.__get__(graph)

        monkeypatch.setattr(cls, "degree", property(counting_degree))
        return walks

    def test_structural_mutators_show_on_the_next_read(self):
        net = self._star()
        assert (net.max_degree(), net.num_edges) == (3, 3)
        net.add_node("e")
        assert (net.max_degree(), net.num_edges) == (3, 3)
        net.add_edge("a", "e")
        assert (net.max_degree(), net.num_edges) == (4, 4)
        net.remove_edge("a", "b")
        assert (net.max_degree(), net.num_edges) == (3, 3)
        net.remove_node("a")
        assert (net.max_degree(), net.num_edges) == (0, 0)
        assert Network().max_degree() == 0

    def test_directed_degree_counts_both_directions(self):
        net = Network(directed=True)
        for node in "abc":
            net.add_node(node)
        net.add_edge("a", "b")
        net.add_edge("c", "a")
        assert net.max_degree() == max(net.degree(node) for node in "abc") == 2

    def test_attribute_churn_does_not_recompute(self, degree_walks):
        net = self._star()
        assert (net.max_degree(), net.num_edges) == (3, 3)
        computed = len(degree_walks)
        assert computed
        for tick in range(5):
            net.update_edge("a", "b", w=tick)
            net.update_node("c", load=tick)
            assert (net.max_degree(), net.num_edges) == (3, 3)
        assert len(degree_walks) == computed
        net.add_node("e")
        net.add_edge("e", "b")
        assert (net.max_degree(), net.num_edges) == (3, 4)
        assert len(degree_walks) == 2 * computed

    def test_pickle_ships_no_memo(self):
        net = self._star()
        assert (net.max_degree(), net.num_edges) == (3, 3)
        state = net.__getstate__()
        assert state["_max_degree"] is None and state["_num_edges"] is None
        clone = pickle.loads(pickle.dumps(net))
        assert (clone._max_degree, clone._num_edges) == (None, None)
        assert (clone.max_degree(), clone.num_edges) == (3, 3)
        assert (net._max_degree, net._num_edges) == (3, 3)   # owner keeps it

    def test_derived_networks_start_without_a_memo(self):
        net = self._star()
        assert (net.max_degree(), net.num_edges) == (3, 3)
        assert (net.copy().max_degree(), net.copy().num_edges) == (3, 3)
        sub = net.subnetwork(["a", "b"])
        assert (sub.max_degree(), sub.num_edges) == (1, 1)


class TestInspection:
    def test_len_contains_iter(self, small_hosting):
        assert len(small_hosting) == 6
        assert "a" in small_hosting
        assert "zz" not in small_hosting
        assert sorted(small_hosting) == ["a", "b", "c", "d", "e", "f"]

    def test_degree_and_adjacency(self, small_hosting):
        assert small_hosting.degree("b") == 3
        assert sorted(small_hosting.neighbors("b")) == ["a", "c", "e"]
        adjacency = small_hosting.adjacency()
        assert sorted(adjacency["e"]) == ["b", "d", "f"]

    def test_connectivity_and_density(self, small_hosting):
        assert small_hosting.is_connected()
        assert 0 < small_hosting.density() < 1
        empty = Network()
        assert empty.is_connected()

    def test_disconnected_network(self):
        net = Network()
        for node in "abcd":
            net.add_node(node)
        net.add_edge("a", "b")
        assert not net.is_connected()


class TestDerivation:
    def test_copy_is_independent(self, small_hosting):
        clone = small_hosting.copy()
        clone.update_node("a", cpuLoad=0.99)
        assert small_hosting.get_node_attr("a", "cpuLoad") == 0.2
        assert clone.num_edges == small_hosting.num_edges
        assert isinstance(clone, HostingNetwork)

    def test_subnetwork_preserves_class_and_attributes(self, small_hosting):
        sub = small_hosting.subnetwork(["a", "b", "e"])
        assert isinstance(sub, HostingNetwork)
        assert sorted(sub.nodes()) == ["a", "b", "e"]
        # Induced edges: a-b and b-e.
        assert sub.num_edges == 2
        assert sub.get_edge_attr("a", "b", "avgDelay") == 10.0

    def test_subnetwork_with_missing_node_raises(self, small_hosting):
        with pytest.raises(MissingNodeError):
            small_hosting.subnetwork(["a", "ghost"])

    def test_from_networkx_round_trip(self, small_hosting):
        graph = small_hosting.to_networkx()
        rebuilt = Network.from_networkx(graph, name="rebuilt")
        assert rebuilt.num_nodes == small_hosting.num_nodes
        assert rebuilt.num_edges == small_hosting.num_edges
        assert rebuilt.get_node_attr("a", "osType") == "linux"


class TestHostingSpecifics:
    def test_oriented_edges_double_undirected(self, small_hosting):
        oriented = list(small_hosting.oriented_edges())
        assert len(oriented) == 2 * small_hosting.num_edges
        assert ("a", "b") in oriented and ("b", "a") in oriented

    def test_edge_attribute_stats(self, small_hosting):
        stats = small_hosting.edge_attribute_stats("avgDelay")
        assert stats["count"] == 7
        assert stats["min"] == 10.0
        assert stats["max"] == 50.0
        assert 10.0 <= stats["median"] <= 50.0

    def test_edge_attribute_stats_missing_attribute(self, small_hosting):
        with pytest.raises(ValueError):
            small_hosting.edge_attribute_stats("nonexistent")

    def test_edges_in_attribute_range(self, small_hosting):
        edges = small_hosting.edges_in_attribute_range("avgDelay", 10, 25)
        assert set(edges) == {("a", "b"), ("b", "e"), ("c", "f"), ("e", "f")}
        fraction = small_hosting.fraction_of_edges_in_range("avgDelay", 10, 25)
        assert fraction == pytest.approx(4 / 7)

    def test_capacity_lifecycle(self, small_hosting):
        small_hosting.set_capacity("a", 3.0)
        assert small_hosting.available_capacity("a") == 3.0
        small_hosting.consume_capacity("a", 2.0)
        assert small_hosting.available_capacity("a") == pytest.approx(1.0)
        with pytest.raises(ValueError):
            small_hosting.consume_capacity("a", 5.0)
        small_hosting.release_capacity("a", 10.0)     # clamped to the declared total
        assert small_hosting.available_capacity("a") == 3.0

    def test_capacity_on_undeclared_node_raises(self, small_hosting):
        with pytest.raises(ValueError):
            small_hosting.consume_capacity("b", 1.0)

    def test_nodes_with_attribute(self, small_hosting):
        assert sorted(small_hosting.nodes_with_attribute("osType", "bsd")) == ["c", "e"]
        assert len(small_hosting.nodes_with_attribute("osType")) == 6

    def test_degree_histogram(self, small_hosting):
        histogram = small_hosting.degree_histogram()
        assert sum(histogram.values()) == 6
        assert sum(degree * count for degree, count in histogram.items()) == 14


class TestQuerySpecifics:
    def test_nodes_by_degree(self, small_hosting):
        query = QueryNetwork("q")
        for node in "wxyz":
            query.add_node(node)
        query.add_edge("w", "x")
        query.add_edge("w", "y")
        query.add_edge("w", "z")
        query.add_edge("x", "y")
        order = query.nodes_by_degree()
        assert order[0] == "w"
        assert set(order) == {"w", "x", "y", "z"}

    def test_edges_to_placed(self):
        query = QueryNetwork("q")
        for node in "abc":
            query.add_node(node)
        query.add_edge("a", "b")
        query.add_edge("b", "c")
        assert query.edges_to_placed("b", ["a"]) == [("a", "b")]
        assert query.edges_to_placed("b", ["a", "c"]) == [("a", "b"), ("c", "b")]
        assert query.edges_to_placed("a", []) == []

    def test_bound_nodes(self):
        query = QueryNetwork("q")
        query.add_node("a", bindTo="host1")
        query.add_node("b")
        assert query.bound_nodes() == {"a": "host1"}

    def test_obviously_infeasible_too_many_nodes(self, small_hosting):
        query = QueryNetwork("big")
        for index in range(10):
            query.add_node(f"q{index}")
        assert query.is_obviously_infeasible(small_hosting)
        reasons = query.obviously_infeasible_reasons(small_hosting)
        assert any("nodes" in reason for reason in reasons)

    def test_obviously_infeasible_degree_bound(self, small_hosting):
        query = QueryNetwork("star5")
        query.add_node("hub")
        for index in range(5):
            query.add_node(f"leaf{index}")
            query.add_edge("hub", f"leaf{index}")
        # Max hosting degree is 3 (node b/e), so a degree-5 hub cannot embed.
        assert query.is_obviously_infeasible(small_hosting)

    def test_feasible_query_is_not_flagged(self, small_hosting, path_query):
        assert not path_query.is_obviously_infeasible(small_hosting)

    def test_all_three_reasons_read_the_same(self, small_hosting):
        """Seven-node wheel: more nodes (7 > 6), more edges (12 > 7) and a
        higher degree (6 > 3) than the hosting fixture."""
        query = QueryNetwork("wheel")
        query.add_node("hub")
        rim = [f"rim{index}" for index in range(6)]
        for node in rim:
            query.add_node(node)
            query.add_edge("hub", node)
        for left, right in zip(rim, rim[1:] + rim[:1]):
            query.add_edge(left, right)
        assert query.obviously_infeasible_reasons(small_hosting) == [
            "query has 7 nodes but the hosting network only has 6",
            "query has 12 edges but the hosting network only has 7",
            "query has a node of degree 6 but the maximum hosting degree is 3",
        ]
        # Attribute churn on the hosting side moves none of the three.
        small_hosting.update_edge("a", "b", avgDelay=11.0)
        assert len(query.obviously_infeasible_reasons(small_hosting)) == 3
        # A structural change does: a seventh host drops the node reason.
        small_hosting.add_node("g")
        assert len(query.obviously_infeasible_reasons(small_hosting)) == 2

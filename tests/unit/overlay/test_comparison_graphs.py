"""Unit tests for the Fig. 2 comparison overlays."""

import networkx as nx
import pytest

from repro.errors import TopologyError
from repro.overlay.chordal_ring import build_chordal_ring
from repro.overlay.hypercube import build_hypercube
from repro.overlay.random_graph import build_random_connected_overlay
from repro.utils.rng import derive_rng

NODES = list(range(24))


def networkx_checked_overlay(node_ids, f, seed):
    """The builder as it was, repair loop judged by networkx itself."""

    rng = derive_rng(seed, "random-overlay")
    graph = nx.Graph()
    graph.add_nodes_from(node_ids)
    for node in node_ids:
        while graph.degree[node] < f + 1:
            peer = rng.choice(node_ids)
            if peer != node:
                graph.add_edge(node, peer)
    while nx.node_connectivity(graph) < f + 1:
        u, v = rng.sample(node_ids, 2)
        graph.add_edge(u, v)
    return graph


class TestChordalRing:
    def test_connectivity(self):
        graph = build_chordal_ring(NODES, f=1)
        assert nx.node_connectivity(graph) >= 2

    def test_higher_f(self):
        graph = build_chordal_ring(NODES, f=3)
        assert nx.node_connectivity(graph) >= 4

    def test_long_chords_shrink_diameter(self):
        with_chords = build_chordal_ring(NODES, f=1, long_chords=True)
        without = build_chordal_ring(NODES, f=1, long_chords=False)
        assert nx.diameter(with_chords) < nx.diameter(without)

    def test_too_small_rejected(self):
        with pytest.raises(TopologyError):
            build_chordal_ring([1, 2], f=1)

    def test_all_nodes_present(self):
        graph = build_chordal_ring(NODES, f=1)
        assert set(graph.nodes) == set(NODES)


class TestHypercube:
    def test_power_of_two_is_regular(self):
        graph = build_hypercube(list(range(16)))
        assert all(degree == 4 for _node, degree in graph.degree)

    def test_incomplete_hypercube_connected(self):
        graph = build_hypercube(list(range(23)))
        assert nx.is_connected(graph)

    def test_minimum_size(self):
        with pytest.raises(TopologyError):
            build_hypercube([1])

    def test_two_nodes(self):
        graph = build_hypercube([7, 8])
        assert graph.has_edge(7, 8)

    def test_edges_follow_bit_flips(self):
        nodes = list(range(8))
        graph = build_hypercube(nodes)
        for u, v in graph.edges:
            xor = nodes.index(u) ^ nodes.index(v)
            assert xor & (xor - 1) == 0  # exactly one differing bit


class TestRandomOverlay:
    def test_connectivity_and_degree(self):
        graph = build_random_connected_overlay(NODES, f=2, seed=4)
        assert nx.node_connectivity(graph) >= 3
        assert all(degree >= 3 for _node, degree in graph.degree)

    def test_deterministic(self):
        a = build_random_connected_overlay(NODES, f=1, seed=9)
        b = build_random_connected_overlay(NODES, f=1, seed=9)
        assert set(a.edges) == set(b.edges)

    def test_too_small_rejected(self):
        with pytest.raises(TopologyError):
            build_random_connected_overlay([1, 2], f=1)

    @pytest.mark.parametrize("f", [1, 2, 3])
    @pytest.mark.parametrize("size", ["minimal", 12, 40])
    def test_native_repair_check_builds_the_networkx_checked_graph(self, f, size):
        # Same decision every repair round, so the same RNG stream and the
        # same edges in the same order.
        nodes = list(range(f + 2 if size == "minimal" else size))
        for seed in range(20):
            graph = build_random_connected_overlay(nodes, f, seed=seed)
            reference = networkx_checked_overlay(nodes, f, seed)
            assert list(graph.edges) == list(reference.edges), seed

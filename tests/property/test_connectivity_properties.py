"""Differential tests: the native t-vertex-connectivity check vs networkx.

``repro.net.topology`` decides t-connectivity itself (Esfahanian–Hakimi over
a vertex-split residual, each local test stopped at t paths) so that no
simulation process has to import a graph library.  networkx stays the
reference: on every graph below the native verdict must equal
``nx.node_connectivity(G) >= t`` and the native local path count must equal
``nx.node_connectivity(G, u, v)``.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.net.latency import LatencyModel
from repro.net.topology import (
    PhysicalNetwork,
    generate_physical_network,
    is_vertex_connected,
)
from repro.types import Region

THRESHOLDS = range(1, 6)


def adjacency_of(graph: nx.Graph) -> dict[int, dict[int, None]]:
    return {node: dict.fromkeys(graph.adj[node]) for node in graph.nodes}


def assert_agrees(graph: nx.Graph) -> None:
    kappa = nx.node_connectivity(graph)
    adjacency = adjacency_of(graph)
    for t in THRESHOLDS:
        assert is_vertex_connected(adjacency, t) == (kappa >= t), (t, kappa)


@st.composite
def random_graphs(draw) -> nx.Graph:
    """Sparse to dense G(n, p), optionally a union of two components or two
    blobs joined through a single cut vertex or a single bridge."""

    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    n = draw(st.integers(min_value=1, max_value=14))
    p = draw(st.sampled_from([0.15, 0.3, 0.5, 0.8, 1.0]))
    graph = nx.gnp_random_graph(n, p, seed=seed)
    shape = draw(st.sampled_from(["plain", "plain", "disjoint", "cut-vertex", "bridge"]))
    if shape == "plain":
        return graph
    m = draw(st.integers(min_value=1, max_value=8))
    other = nx.gnp_random_graph(m, p, seed=seed + 1)
    graph = nx.disjoint_union(graph, other)  # relabels to 0..n+m-1
    rng = random.Random(seed)
    left, right = rng.randrange(n), n + rng.randrange(m)
    if shape == "bridge":
        graph.add_edge(left, right)
    elif shape == "cut-vertex":
        hinge = n + m
        for side in (range(n), range(n, n + m)):
            for node in rng.sample(list(side), min(len(side), 3)):
                graph.add_edge(hinge, node)
    return graph


class TestGlobalCheck:
    @given(graph=random_graphs())
    @settings(max_examples=300, deadline=None)
    def test_matches_networkx_on_random_graphs(self, graph):
        assert_agrees(graph)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_complete_graphs_including_n_at_most_t(self, n):
        assert_agrees(nx.complete_graph(n))

    @pytest.mark.parametrize(
        "graph",
        [
            nx.path_graph(6),
            nx.cycle_graph(7),
            nx.star_graph(5),
            nx.petersen_graph(),
            nx.circulant_graph(11, [1, 2]),
            nx.hypercube_graph(3),
            nx.complete_bipartite_graph(3, 5),
            nx.barbell_graph(5, 0),
            nx.barbell_graph(4, 2),
            nx.wheel_graph(7),
            nx.grid_2d_graph(3, 4),
            nx.empty_graph(4),
        ],
        ids=lambda g: g.name or f"n{g.number_of_nodes()}m{g.number_of_edges()}",
    )
    def test_matches_networkx_on_named_graphs(self, graph):
        assert_agrees(nx.convert_node_labels_to_integers(graph))

    def test_node_ids_need_not_be_dense(self):
        graph = nx.relabel_nodes(nx.petersen_graph(), lambda n: 100 + 7 * n)
        assert_agrees(graph)

    @pytest.mark.parametrize("num_nodes", [24, 100, 200])
    def test_generator_outputs(self, num_nodes):
        network = generate_physical_network(num_nodes, seed=num_nodes, validate="fast")
        kappa = nx.node_connectivity(network.graph)
        assert kappa >= 4
        for t in (kappa - 1, kappa, kappa + 1):
            assert is_vertex_connected(network.adjacency, t) == (kappa >= t)
        network.validate_connectivity(kappa)
        with pytest.raises(TopologyError):
            network.validate_connectivity(kappa + 1)

    def test_a_query_leaves_no_trace_for_the_next(self):
        """One residual serves every pair of a check: verdicts cannot depend
        on which thresholds were asked before."""

        adjacency = adjacency_of(nx.petersen_graph())
        first = [is_vertex_connected(adjacency, t) for t in THRESHOLDS]
        again = [is_vertex_connected(adjacency, t) for t in reversed(THRESHOLDS)]
        assert first == again[::-1] == [True, True, True, False, False]


class TestLocalPathCount:
    @given(graph=random_graphs(), pick=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=150, deadline=None)
    def test_min_cut_between_matches_networkx(self, graph, pick):
        if graph.number_of_nodes() < 2:
            return
        rng = random.Random(pick)
        u, v = rng.sample(sorted(graph.nodes), 2)
        network = PhysicalNetwork(
            adjacency=adjacency_of(graph),
            regions={n: Region.FRANKFURT for n in graph.nodes},
            latencies={},
            latency_model=LatencyModel(),
        )
        assert network.min_cut_between(u, v) == nx.node_connectivity(graph, u, v)

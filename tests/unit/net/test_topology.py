"""Unit tests for physical network generation and mutation."""

import dataclasses
import hashlib
import json
from functools import lru_cache

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.net.latency import LatencyModel
from repro.net.topology import PhysicalNetwork, generate_physical_network
from repro.types import Region


def network_of(graph: nx.Graph) -> PhysicalNetwork:
    """A bare PhysicalNetwork (no latency labels) over *graph*'s topology."""

    return PhysicalNetwork(
        adjacency={n: dict.fromkeys(graph.adj[n]) for n in graph.nodes},
        regions={n: Region.FRANKFURT for n in graph.nodes},
        latencies={},
        latency_model=LatencyModel(),
    )


class TestGeneration:
    def test_node_count(self, physical40):
        assert physical40.num_nodes == 40
        assert physical40.nodes() == list(range(40))

    def test_minimum_degree(self, physical40):
        assert all(physical40.degree(n) >= 4 for n in physical40.nodes())

    def test_vertex_connectivity(self, physical40):
        physical40.validate_connectivity(4)

    def test_every_edge_has_latency_label(self, physical40):
        for u, v in physical40.graph.edges:
            assert physical40.latency(u, v) > 0

    def test_latency_symmetric_accessor(self, physical40):
        u, v = next(iter(physical40.graph.edges))
        assert physical40.latency(u, v) == physical40.latency(v, u)

    def test_non_edge_latency_raises(self, physical40):
        non_edges = nx.non_edges(physical40.graph)
        u, v = next(non_edges)
        with pytest.raises(TopologyError):
            physical40.latency(u, v)

    def test_regions_assigned_evenly(self, physical40):
        from collections import Counter

        counts = Counter(physical40.regions.values())
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_deterministic_per_seed(self):
        a = generate_physical_network(20, seed=3)
        b = generate_physical_network(20, seed=3)
        assert set(a.graph.edges) == set(b.graph.edges)
        assert a.latencies == b.latencies

    def test_different_seeds_differ(self):
        a = generate_physical_network(30, seed=1)
        b = generate_physical_network(30, seed=2)
        assert set(a.graph.edges) != set(b.graph.edges)

    def test_rejects_impossible_parameters(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            generate_physical_network(1)
        with pytest.raises(ConfigurationError):
            generate_physical_network(5, min_degree=5)

    def test_min_cut_between_nodes(self, physical40):
        assert physical40.min_cut_between(0, 20) >= 4


def topology_digest(network: PhysicalNetwork) -> str:
    """Everything generation decides, order included: node order, edge order
    (the order latency labels are drawn in), regions, labels bit for bit."""

    doc = {
        "nodes": list(network.adjacency),
        "edges": [list(edge) for edge in network.edges()],
        "regions": [[n, r.name] for n, r in network.regions.items()],
        "latencies": [[u, v, lat.hex()] for (u, v), lat in network.latencies.items()],
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedGeneration:
    """Digests captured at the last commit whose generator wired a
    ``networkx.Graph`` (``graph.nodes`` / ``graph.edges`` order): the native
    adjacency must reproduce that graph exactly, since every latency label —
    hence every pinned simulation digest — follows from its edge order."""

    @pytest.mark.parametrize(
        "kwargs, expected",
        [
            (dict(num_nodes=40, seed=5),
             "989a562ef6bcf2df6d01b508bd039eb34de2a4202a63663683f095c6b0cc8df7"),
            (dict(num_nodes=100, seed=0),
             "ce8261b6bee9d3b57de5559258fe48777fb2433e4b4517a8625a1a69e6f60c4a"),
            (dict(num_nodes=2000, seed=0),
             "f57991093711c5d0ab32f31ce1eb74abec502b9ff0bf574c13ccebbe2124b245"),
            # Odd min_degree: a denser ring-with-chords skeleton (offsets 1..3).
            (dict(num_nodes=24, seed=3, min_degree=5),
             "034fdb180c4f1fa20c02b4b4050a17af07cb44bdbf8a6ff3a4f215d4bb0c4646"),
        ],
        ids=["n40", "n100", "n2000", "n24-deg5"],
    )
    def test_same_network_as_the_networkx_wired_generator(self, kwargs, expected):
        assert topology_digest(generate_physical_network(**kwargs)) == expected


class TestGraphView:
    def test_view_reports_nodes_and_edges_in_native_order(self, physical40):
        assert list(physical40.graph.nodes) == list(physical40.adjacency)
        assert list(physical40.graph.edges) == list(physical40.edges())
        assert physical40.graph.number_of_edges() == len(physical40.latencies)

    def test_view_is_cached_until_the_topology_changes(self):
        network = generate_physical_network(20, seed=9)
        view = network.graph
        assert network.graph is view
        network.add_node_with_links(100, Region.TOKYO, [0, 1, 2])
        assert network.graph is not view
        assert set(network.graph[100]) == {0, 1, 2}
        network.remove_node(100)
        assert 100 not in network.graph
        assert list(network.graph.edges) == list(view.edges)

    def test_edges_of_unknown_nodes_do_not_exist(self, physical40):
        assert not physical40.has_edge(0, 999)
        assert not physical40.has_edge(999, 0)
        assert not physical40.has_node(999) and physical40.has_node(0)


class TestTransportLatency:
    def test_self_latency_zero(self, physical40):
        assert physical40.transport_latency(5, 5) == 0.0

    def test_edge_pairs_use_label(self, physical40):
        u, v = next(iter(physical40.graph.edges))
        assert physical40.transport_latency(u, v) == physical40.latency(u, v)

    def test_non_edge_pairs_stable(self, physical40):
        u, v = next(nx.non_edges(physical40.graph))
        first = physical40.transport_latency(u, v)
        assert physical40.transport_latency(v, u) == first
        assert physical40.transport_latency(u, v) == first


class TestMutation:
    def test_join_and_leave(self):
        network = generate_physical_network(20, seed=9)
        network.add_node_with_links(100, Region.TOKYO, [0, 1, 2])
        assert 100 in network.graph
        assert network.region_of(100) is Region.TOKYO
        assert network.latency(100, 0) > 0
        network.remove_node(100)
        assert 100 not in network.graph
        assert (0, 100) not in network.latencies

    def test_join_duplicate_rejected(self):
        network = generate_physical_network(20, seed=9)
        with pytest.raises(TopologyError):
            network.add_node_with_links(5, Region.TOKYO, [0])

    def test_join_needs_known_neighbors(self):
        network = generate_physical_network(20, seed=9)
        with pytest.raises(TopologyError):
            network.add_node_with_links(100, Region.TOKYO, [999])

    def test_join_needs_some_neighbor(self):
        network = generate_physical_network(20, seed=9)
        with pytest.raises(TopologyError):
            network.add_node_with_links(100, Region.TOKYO, [])

    def test_remove_unknown_rejected(self):
        network = generate_physical_network(20, seed=9)
        with pytest.raises(TopologyError):
            network.remove_node(999)


class TestValidationModes:
    def test_explicit_modes_return_identical_networks(self):
        fast = generate_physical_network(30, seed=3, validate="fast")
        full = generate_physical_network(30, seed=3, validate="full")
        assert sorted(fast.graph.edges) == sorted(full.graph.edges)
        assert fast.latencies == full.latencies
        assert fast.regions == full.regions

    def test_unknown_mode_rejected(self):
        with pytest.raises(Exception):
            generate_physical_network(10, validate="eventually")

    def test_fast_check_accepts_generated_graph(self, physical40):
        physical40.validate_connectivity_fast(4)

    def test_fast_check_rejects_low_degree(self, physical40):
        with pytest.raises(TopologyError):
            physical40.validate_connectivity_fast(physical40.num_nodes - 1)

    def test_fast_check_rejects_disconnected(self):
        # Two disjoint triangles: min degree 2, but not connected at all.
        network = network_of(
            nx.Graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        )
        with pytest.raises(TopologyError):
            network.validate_connectivity_fast(2)

    def test_fast_check_rejects_too_few_nodes(self):
        network = network_of(nx.complete_graph(3))
        with pytest.raises(TopologyError):
            network.validate_connectivity_fast(3)


class TestVersionAndPairCache:
    def test_mutations_bump_the_version(self):
        network = generate_physical_network(20, min_degree=3, seed=2)
        before = network.version
        network.add_node_with_links(99, network.region_of(0), [0, 1, 2])
        assert network.version == before + 1
        network.remove_node(99)
        assert network.version == before + 2

    def test_join_purges_stale_pair_draw(self):
        network = generate_physical_network(20, min_degree=3, seed=2)
        # Find a non-adjacent pair and warm its internet-path cache entry.
        u = 0
        v = next(n for n in network.nodes() if n != u and not network.has_edge(u, n))
        internet = network.transport_latency(u, v)
        network.remove_node(v)
        network.add_node_with_links(v, network.region_of(u), [u])
        # Now a direct link: the label, not the stale cached draw.
        assert network.transport_latency(u, v) == network.latency(u, v)
        assert network.transport_latency(u, v) != internet


@lru_cache(maxsize=None)
def _nearest_base() -> PhysicalNetwork:
    return generate_physical_network(40, min_degree=4, seed=3)


def _fresh() -> PhysicalNetwork:
    """The shared 40-node network with an empty per-pair cache."""

    return dataclasses.replace(_nearest_base(), _pair_cache={})


@st.composite
def _nearest_queries(draw):
    network = _fresh()
    nodes = network.nodes()
    node = draw(st.sampled_from(nodes))
    region = network.region_of(node)
    cross_only = draw(st.booleans())  # an all-cross-region cluster
    pool = [n for n in nodes if not cross_only or network.region_of(n) != region]
    candidates = draw(st.permutations(pool))[: draw(st.integers(0, len(pool)))]
    if draw(st.booleans()):  # every physical link of the node
        candidates += [n for n in network.adjacency[node] if n not in candidates]
    if not cross_only and node not in candidates and draw(st.booleans()):
        candidates.insert(draw(st.integers(0, len(candidates))), node)
    for other in draw(st.lists(st.sampled_from(nodes), max_size=8)):
        network.transport_latency(node, other)  # pre-cached pairs
    floor = network.latency_model.inter_floor_ms
    tie = draw(st.sampled_from([None, 3.0, floor, 60.0, 90.0]))
    if tie is not None and candidates:
        for other in draw(st.lists(st.sampled_from(candidates), max_size=6)):
            key = (min(node, other), max(node, other))
            if other != node and key not in network.latencies:
                network._pair_cache[key] = tie  # equal-latency ties
    k = draw(st.integers(0, len(candidates) + 2))
    return network, node, candidates, k


class TestNearest:
    @given(_nearest_queries())
    def test_equals_the_full_sort(self, query):
        network, node, candidates, k = query
        got = network.nearest(node, candidates, k)
        reference = sorted(candidates, key=lambda c: network.transport_latency(node, c))
        assert got == reference[:k]

    def test_draws_no_cross_region_pair_it_can_rule_out(self):
        network = _fresh()
        region = network.region_of(0)
        assert network.nearest(0, network.nodes(), 3)[0] == 0
        drawn = [key for key in network._pair_cache if 0 in key]
        assert drawn
        assert all(network.region_of(u) == network.region_of(v) for u, v in drawn)
        assert sum(network.region_of(n) == region for n in network.nodes()) >= 3

    def test_falls_through_when_the_known_pairs_run_out(self):
        network = _fresh()
        region = network.region_of(0)
        others = [n for n in network.nodes() if network.region_of(n) != region]
        got = network.nearest(0, others, 2)
        assert got == sorted(others, key=lambda c: network.transport_latency(0, c))[:2]

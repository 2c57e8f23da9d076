"""Random ``f+1``-connected comparison overlay (Fig. 2).

Each node draws ``f+1`` random neighbours; extra edges are then added until
the whole graph is ``f+1``-vertex-connected ("a random overlay ensuring at
least f+1 links per node", Fig. 2 caption).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import TopologyError
from ..net.topology import is_vertex_connected
from ..utils.rng import derive_rng

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["build_random_connected_overlay"]

_MAX_REPAIR_ROUNDS = 200


def build_random_connected_overlay(
    node_ids: list[int], f: int, seed: int = 0
) -> nx.Graph:
    """Random graph over *node_ids* with min degree and connectivity f+1."""

    n = len(node_ids)
    if n < f + 2:
        raise TopologyError(f"{n} nodes cannot be f+1={f + 1}-connected")

    import networkx as nx

    rng = derive_rng(seed, "random-overlay")
    graph = nx.Graph()
    graph.add_nodes_from(node_ids)

    for node in node_ids:
        while graph.degree[node] < f + 1:
            peer = rng.choice(node_ids)
            if peer != node:
                graph.add_edge(node, peer)

    for _ in range(_MAX_REPAIR_ROUNDS):
        # The exact test networkx's node_connectivity(graph) >= f + 1 makes,
        # stopped at f + 1 paths instead of computing the connectivity.
        if is_vertex_connected(graph.adj, f + 1):
            return graph
        u, v = rng.sample(node_ids, 2)
        graph.add_edge(u, v)
    raise TopologyError("failed to reach f+1 connectivity after repair rounds")

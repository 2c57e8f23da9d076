"""Hypercube comparison overlay (Fig. 2).

Nodes are placed on the corners of a ``d``-dimensional hypercube with
``d = ceil(log2 n)``; when ``n`` is not a power of two the result is an
*incomplete hypercube* (edges to missing corners are skipped), the standard
construction the paper cites via Ramanathan et al. and You et al.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..errors import TopologyError

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["build_hypercube"]


def build_hypercube(node_ids: list[int]) -> nx.Graph:
    """Build an (incomplete) hypercube over *node_ids* (corner = list index)."""

    n = len(node_ids)
    if n < 2:
        raise TopologyError("a hypercube needs at least 2 nodes")
    dimensions = max(1, math.ceil(math.log2(n)))

    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(node_ids)
    for index in range(n):
        for bit in range(dimensions):
            partner = index ^ (1 << bit)
            if partner < n:
                graph.add_edge(node_ids[index], node_ids[partner])
    return graph

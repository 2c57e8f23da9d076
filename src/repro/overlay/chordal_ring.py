"""Chordal-ring comparison overlay (Fig. 2).

A circulant graph ``C_n(1, 2, …, m)`` — every node linked to its ``m`` nearest
ring neighbours on both sides — is ``2m``-vertex-connected, so choosing
``m = ceil((f+1)/2)`` yields the ``f+1``-connected chordal ring the paper
compares against.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..errors import TopologyError

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["build_chordal_ring"]


def build_chordal_ring(
    node_ids: list[int], f: int, long_chords: bool = True
) -> nx.Graph:
    """Build an ``f+1``-connected chordal ring over *node_ids* (ring order =
    list order).

    With ``long_chords`` (the usual chordal-ring construction) each node also
    links to the node ``≈√n`` positions ahead, which shrinks the diameter from
    ``n/2`` to ``O(√n)`` hops while keeping the circulant structure; without
    it the graph is the bare circulant ``C_n(1..m)``.
    """

    n = len(node_ids)
    if n < f + 2:
        raise TopologyError(f"{n} nodes cannot form an f+1={f + 1}-connected ring")
    m = max(1, math.ceil((f + 1) / 2))
    if 2 * m >= n:
        raise TopologyError(f"chord reach {m} too large for {n} nodes")

    offsets = list(range(1, m + 1))
    if long_chords:
        long_offset = max(m + 1, math.isqrt(n))
        if 2 * long_offset < n:
            offsets.append(long_offset)

    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(node_ids)
    for i in range(n):
        for offset in offsets:
            graph.add_edge(node_ids[i], node_ids[(i + offset) % n])
    return graph

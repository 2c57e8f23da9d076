"""Vertex-disjoint path discovery.

Senders forward each message to the selected overlay's ``f+1`` entry points
through ``f+1`` vertex-disjoint paths (§IV, dissemination step 1), so that
``f`` faulty intermediaries cannot block the hand-off.  We find the paths with
a max-flow formulation over the physical graph: a virtual super-sink attached
to all targets, node capacities 1 (except source/targets).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import TopologyError

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["find_disjoint_paths"]


def find_disjoint_paths(
    graph: nx.Graph,
    source: int,
    targets: list[int],
    count: int,
) -> list[list[int]]:
    """Return up to *count* internally vertex-disjoint paths from *source*,
    collectively covering as many *targets* as possible (one path per target).

    Each returned path ends at a distinct target.  A target adjacent to (or
    equal to) the source yields the trivial path.  Raises
    :class:`TopologyError` when fewer than *count* disjoint paths exist.
    """

    if count < 1:
        raise TopologyError(f"count must be positive, got {count}")
    unique_targets = list(dict.fromkeys(targets))
    if len(unique_targets) < count:
        raise TopologyError(
            f"need {count} distinct targets, got {len(unique_targets)}"
        )
    if source in unique_targets:
        # A sender that *is* an entry point keeps its own copy; route the
        # remaining paths to the other targets.
        unique_targets = [t for t in unique_targets if t != source]
        rest = find_disjoint_paths(graph, source, unique_targets, count - 1) if count > 1 else []
        return [[source]] + rest

    import networkx as nx

    sink = object()  # hashable sentinel never colliding with node ids
    augmented = nx.Graph(graph)
    augmented.add_node(sink)
    for target in unique_targets:
        augmented.add_edge(target, sink)

    try:
        raw_paths = list(nx.node_disjoint_paths(augmented, source, sink))
    except nx.NetworkXNoPath:
        raise TopologyError(f"no path from {source} to any target") from None

    paths = [path[:-1] for path in raw_paths]  # strip the virtual sink
    if len(paths) < count:
        raise TopologyError(
            f"only {len(paths)} vertex-disjoint paths from {source} to "
            f"{unique_targets} (need {count})"
        )
    # Prefer short paths; keep at most one per target (guaranteed disjoint).
    paths.sort(key=len)
    return paths[:count]

"""The overlay objective function — Equation (1) of the paper.

::

    objective = num_edges + avg_latency + connectivity_penalty
              + path_penalty + rank_penalty

* ``num_edges`` — |E| of the overlay, scaled; fewer links means less bandwidth.
* ``avg_latency`` — sum of entry-point-to-node dissemination latencies divided
  by ``n`` (unreachable nodes are charged via ``path_penalty`` instead).
* ``connectivity_penalty`` — non-leaf nodes with fewer than ``f+1`` successors
  and non-entry nodes with fewer than the required predecessors.
* ``path_penalty`` — nodes unreachable from the entry points.
* ``rank_penalty`` — low-accumulated-rank nodes (already favoured in earlier
  overlays) sitting near the root of this one.

Each term carries a weight in :class:`ObjectiveConfig`; the defaults keep the
terms in comparable magnitude for the network sizes of the evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .base import Overlay, OverlaySpace
from .rank import RankTracker

__all__ = ["ObjectiveConfig", "ObjectiveValue", "evaluate_overlay"]


@dataclass(frozen=True, slots=True)
class ObjectiveConfig:
    """Term weights for Eq. (1).

    ``priority_nodes`` implements §VIII-D's role-aware optimization: "if
    specific roles are attributed to a subset of the nodes, e.g. validator
    nodes, then HERMES could be further optimized to minimize the transaction
    dissemination latency for these nodes."  Their arrival latency is charged
    an extra ``priority_weight``-scaled term, pulling them toward the root.
    """

    edge_weight: float = 0.05
    latency_weight: float = 1.0
    connectivity_weight: float = 500.0
    path_weight: float = 1000.0
    rank_weight: float = 5.0
    priority_nodes: frozenset[int] = frozenset()
    priority_weight: float = 3.0


@dataclass(frozen=True, slots=True)
class ObjectiveValue:
    """The evaluated terms; ``total`` is what annealing minimizes."""

    num_edges: float
    avg_latency: float
    connectivity_penalty: float
    path_penalty: float
    rank_penalty: float
    priority_penalty: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.num_edges
            + self.avg_latency
            + self.connectivity_penalty
            + self.path_penalty
            + self.rank_penalty
            + self.priority_penalty
        )


def _rank_penalty(overlay: Overlay, ranks: RankTracker) -> float:
    """Penalize low-rank (historically favoured) nodes near the root.

    Each node contributes ``(max_rank - rank) / (1 + depth)`` — large when a
    low-rank node sits shallow — normalized by the node count so the term does
    not scale with n.
    """

    max_rank = ranks.max_rank()
    if max_rank == 0:
        return 0.0
    total = 0.0
    for node, depth in overlay.depth_of.items():
        shortfall = (max_rank - ranks.rank(node)) / max_rank
        total += shortfall / (1.0 + depth)
    return total / max(overlay.num_nodes, 1)


def evaluate_overlay(
    overlay: Overlay,
    space: OverlaySpace,
    ranks: RankTracker,
    config: ObjectiveConfig | None = None,
) -> ObjectiveValue:
    """Compute Eq. (1) for *overlay* from scratch.

    The full-recompute reference: annealing keeps the same inputs up to date
    move by move and feeds them to :func:`combine_terms` itself.
    """

    if config is None:
        config = ObjectiveConfig()

    counts = overlay.shallower_counts()
    connectivity_violations = 0
    for node in overlay.depth_of:
        if not overlay.is_leaf(node):
            if len(overlay.successors.get(node, ())) < overlay.f + 1:
                connectivity_violations += 1
        needed = overlay.required_predecessors(node, counts)
        if len(overlay.predecessors.get(node, ())) < needed:
            connectivity_violations += 1
    return combine_terms(
        config,
        overlay.arrival_times(space),
        overlay.num_edges,
        connectivity_violations,
        _rank_penalty(overlay, ranks),
    )


def combine_terms(
    config: ObjectiveConfig,
    arrivals: dict[int, float],
    num_edges: int,
    connectivity_violations: int,
    rank_penalty: float,
) -> ObjectiveValue:
    """Weigh the raw ingredients of Eq. (1) into an :class:`ObjectiveValue`.

    *arrivals* is :meth:`Overlay.arrival_times` (one entry per node, in
    ``depth_of`` order).  The latency sum runs over it in that order on every
    call: float addition is not associative, so a running total would drift
    from this in the last bit and eventually flip a Metropolis decision.
    """

    num_nodes = len(arrivals)
    reachable_latencies = [t for t in arrivals.values() if not math.isinf(t)]
    unreachable = num_nodes - len(reachable_latencies)
    avg_latency = sum(reachable_latencies) / num_nodes if num_nodes else 0.0

    priority_penalty = 0.0
    if config.priority_nodes:
        priority_latencies = [
            arrivals[node]
            for node in config.priority_nodes
            if node in arrivals and not math.isinf(arrivals[node])
        ]
        if priority_latencies:
            priority_penalty = config.priority_weight * (
                sum(priority_latencies) / len(priority_latencies)
            )

    return ObjectiveValue(
        num_edges=config.edge_weight * num_edges,
        avg_latency=config.latency_weight * avg_latency,
        connectivity_penalty=config.connectivity_weight * connectivity_violations,
        path_penalty=config.path_weight * unreachable,
        rank_penalty=config.rank_weight * rank_penalty,
        priority_penalty=priority_penalty,
    )

"""Accumulated-rank bookkeeping for role balancing across overlays (§V-B).

After each overlay is built, every node's accumulated rank grows by its depth
in that overlay (Alg. 1, lines 22–24).  A node that has mostly sat near the
leaves therefore carries a *high* accumulated rank, and §V-B designates such
nodes as "preferable candidates for near-root positions" in the next overlay.

Note on the paper's wording: Algorithm 1 says entry points are chosen among
nodes "with lowest accumulated rank", which — combined with the +depth update —
would keep the same nodes near the root forever, contradicting §V-B and the
balanced role distribution of Fig. 4.  We follow the prose and the figure:
near-root positions go to the nodes with the *highest* accumulated rank (the
previously least-favoured ones).  This is equivalent to reading Alg. 1's rank
update as "+distance from the leaves".
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

__all__ = ["RankTracker"]


class RankTracker:
    """Tracks each node's accumulated rank across constructed overlays."""

    def __init__(self, node_ids: Iterable[int] = ()) -> None:
        self._ranks: dict[int, int] = {n: 0 for n in node_ids}

    def rank(self, node: int) -> int:
        return self._ranks.get(node, 0)

    def add_depth(self, node: int, depth: int) -> None:
        """Record that *node* sat at *depth* in the overlay just built."""

        if depth < 0:
            raise ValueError(f"depth must be non-negative, got {depth}")
        self._ranks[node] = self._ranks.get(node, 0) + depth

    def absorb_overlay(self, depth_of: dict[int, int]) -> None:
        """Apply Alg. 1 lines 22–24 for a whole overlay at once."""

        for node, depth in depth_of.items():
            self.add_depth(node, depth)

    def max_rank(self) -> int:
        return max(self._ranks.values(), default=0)

    def snapshot(self) -> dict[int, int]:
        return dict(self._ranks)

    def select_for_near_root(
        self,
        candidates: Sequence[int],
        count: int,
        latency_key: Callable[[int], float],
    ) -> list[int]:
        """Pick *count* candidates for a near-root role.

        Preference order: highest accumulated rank (least favoured so far),
        then lowest latency, then node id for determinism.
        """

        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        ordered = sorted(
            candidates, key=lambda n: (-self.rank(n), latency_key(n), n)
        )
        return ordered[:count]


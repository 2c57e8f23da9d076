"""Epoch-based membership and overlay maintenance (paper §VII-B).

HERMES integrates with epoch-based blockchains by recomputing overlays at
epoch boundaries.  Between epochs, churn is absorbed incrementally:

* a **joining** node is spliced into every overlay with ``f+1`` lowest-latency
  predecessors (as a deep node, preserving the layer ordering);
* a **leaving** node is removed and each orphaned child is re-attached to
  ``f+1`` shallower members;
* when an **entry point** departs, a replacement is elected (the
  highest-accumulated-rank node, i.e. the least-favoured one) and promoted to
  depth 0, and its own former position is repaired.

:meth:`MembershipManager.advance_epoch` then rebuilds the family from scratch
against the current topology, exactly as a deployment would in the background.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import MembershipError
from ..net.topology import PhysicalNetwork
from ..overlay.base import Overlay, OverlaySpace, TransportSpace
from ..overlay.rank import RankTracker
from ..overlay.robust_tree import build_overlay_family
from ..types import Region

__all__ = ["MembershipManager", "MembershipEvent", "committee_epoch_seed"]


def committee_epoch_seed(backend, committee: list[int], epoch: int) -> int:
    """The committee-agreed construction seed for *epoch* (§VII-B).

    Every committee member partially signs the epoch number; the combined
    threshold signature is unique and unpredictable, so no single member can
    steer the pseudo-random optimization steps of the overlay rebuild —
    the same mechanism (and code path) as the per-message TRS.
    """

    from ..crypto.hashing import encode_for_hash

    binding = encode_for_hash("epoch-seed", epoch)
    partials = [backend.partial_sign(member, binding) for member in committee]
    signature = backend.combine(binding, partials)
    return backend.seed_from_signature(signature, 2**31)


@dataclass(frozen=True, slots=True)
class MembershipEvent:
    """An audit-log entry for one join/leave/epoch transition."""

    epoch: int
    kind: str  # "join" | "leave" | "epoch"
    node: int | None = None


@dataclass
class MembershipManager:
    """Owns the evolving membership, physical view and overlay family."""

    physical: PhysicalNetwork
    f: int
    k: int
    seed: int = 0
    overlays: list[Overlay] = field(default_factory=list)
    ranks: RankTracker = field(default_factory=RankTracker)
    epoch: int = 0
    events: list[MembershipEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.overlays:
            self.overlays, self.ranks = build_overlay_family(
                self.physical, f=self.f, k=self.k, seed=self.seed
            )

    @property
    def space(self) -> OverlaySpace:
        return TransportSpace(self.physical)

    def members(self) -> list[int]:
        return self.physical.nodes()

    # ------------------------------------------------------------------
    # Churn handling
    # ------------------------------------------------------------------

    def join(self, node: int, region: Region, neighbors: list[int]) -> None:
        """Admit *node* and splice it into every overlay with f+1 links."""

        self.physical.add_node_with_links(node, region, neighbors)
        space = self.space
        for overlay in self.overlays:
            members = [m for m in overlay.nodes()]
            parents = sorted(members, key=lambda m: (space.latency(m, node), m))[
                : self.f + 1
            ]
            if len(parents) < self.f + 1:
                raise MembershipError(
                    f"overlay {overlay.overlay_id} too small to admit node {node}"
                )
            depth = 1 + max(overlay.depth_of[p] for p in parents)
            overlay.add_node(node, depth)
            for parent in parents:
                overlay.add_edge(parent, node)
        self.events.append(MembershipEvent(self.epoch, "join", node))

    def leave(self, node: int) -> None:
        """Remove *node*, repairing every overlay it participated in."""

        if not self.physical.has_node(node):
            raise MembershipError(f"node {node} is not a member")
        space = self.space
        for overlay in self.overlays:
            if not overlay.contains(node):
                continue
            was_entry = overlay.is_entry(node)
            children = list(overlay.successors.get(node, ()))
            for child in children:
                overlay.remove_edge(node, child)
            for parent in list(overlay.predecessors.get(node, ())):
                overlay.remove_edge(parent, node)
            del overlay.depth_of[node]
            del overlay.successors[node]
            del overlay.predecessors[node]
            if was_entry:
                self._elect_entry_point(overlay, replacing=node)
            self._repair_orphans(overlay, children, space)
        self.ranks.forget(node)
        self.physical.remove_node(node)
        self.events.append(MembershipEvent(self.epoch, "leave", node))

    def _elect_entry_point(self, overlay: Overlay, replacing: int) -> None:
        """Promote the least-favoured member to entry point (§VII-B)."""

        candidates = [n for n in overlay.nodes() if not overlay.is_entry(n)]
        if not candidates:
            raise MembershipError("no candidate left to serve as entry point")
        chosen = max(candidates, key=lambda n: (self.ranks.rank(n), -n))
        # Promote: clear its predecessors and move it to depth 0.  Children it
        # already had stay valid (their depths exceed 0); nodes that depended
        # on it as a deep predecessor are repaired by the caller via
        # _repair_orphans (depth ordering still holds).
        for parent in list(overlay.predecessors.get(chosen, ())):
            overlay.remove_edge(parent, chosen)
        overlay.depth_of[chosen] = 0
        overlay.entry_points = tuple(
            e for e in overlay.entry_points if e != replacing
        ) + (chosen,)

    def _repair_orphans(
        self, overlay: Overlay, children: list[int], space: OverlaySpace
    ) -> None:
        counts = overlay.shallower_counts()
        for child in children:
            if not overlay.contains(child):
                continue
            needed = overlay.required_predecessors(child, counts)
            existing = set(overlay.predecessors.get(child, ()))
            if len(existing) >= needed:
                continue
            candidates = [
                m
                for m in overlay.nodes()
                if overlay.depth_of[m] < overlay.depth_of[child] and m not in existing
            ]
            candidates.sort(key=lambda m: (space.latency(m, child), m))
            while len(overlay.predecessors[child]) < needed and candidates:
                overlay.add_edge(candidates.pop(0), child)

    # ------------------------------------------------------------------
    # Epoch transition
    # ------------------------------------------------------------------

    def advance_epoch(self, construction_seed: int | None = None) -> list[Overlay]:
        """Rebuild the overlay family for the current membership.

        §VII-B: when the reconstruction runs inside the blockchain network
        itself, "the committee ensures deterministic construction by
        generating a random seed for use in the pseudo-random optimization
        steps" — pass that seed as *construction_seed* (see
        :func:`committee_epoch_seed`); it defaults to a local derivation for
        single-operator deployments.
        """

        self.epoch += 1
        seed = (
            construction_seed
            if construction_seed is not None
            else self.seed + self.epoch
        )
        self.overlays, self.ranks = build_overlay_family(
            self.physical, f=self.f, k=self.k, seed=seed
        )
        self.events.append(MembershipEvent(self.epoch, "epoch"))
        return self.overlays

    def validate(self) -> None:
        """Check every overlay still satisfies the HERMES invariants."""

        members = self.members()
        for overlay in self.overlays:
            overlay.validate(expected_nodes=members)

"""Byzantine-resilient gossip-based peer sampling (SecureCyclon-style, §VII-B).

For permissionless deployments, every node maintains a bounded partial *view*
of the membership and periodically shuffles part of it with the peer whose
descriptor is oldest — Cyclon's age-based exchange.  The defences borrowed
from SecureCyclon against over-representation:

* a node accepts at most one descriptor per node id and never its own;
* received descriptors replace exactly the slots the node sent away, so a
  malicious peer cannot inflate the view;
* descriptor ages are capped and stale descriptors are evicted first, bounding
  how long a departed/Byzantine node lingers in views.

The quality metric (used by tests and the permissionless example) is indegree
balance: in a healthy run every node is referenced by roughly the same number
of views, so no node — honest or malicious — dominates the sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net.events import Message
from ..net.faults import Behavior
from ..net.node import Network, ProtocolNode
from ..utils.rng import derive_rng

__all__ = ["PeerDescriptor", "PartialView", "PeerSamplingNode", "indegree_distribution"]

SHUFFLE_KIND = "cyclon-shuffle"
SHUFFLE_REPLY_KIND = "cyclon-shuffle-reply"

_DESCRIPTOR_BYTES = 12


@dataclass(frozen=True, slots=True)
class PeerDescriptor:
    """A pointer to a peer, aged each shuffle round."""

    node_id: int
    age: int = 0

    def aged(self) -> "PeerDescriptor":
        return PeerDescriptor(self.node_id, self.age + 1)


class PartialView:
    """A bounded set of peer descriptors with Cyclon/SecureCyclon rules."""

    def __init__(self, owner: int, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"view capacity must be positive, got {capacity}")
        self.owner = owner
        self.capacity = capacity
        self._slots: dict[int, PeerDescriptor] = {}

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._slots

    def descriptors(self) -> list[PeerDescriptor]:
        return sorted(self._slots.values(), key=lambda d: (d.age, d.node_id))

    def peer_ids(self) -> list[int]:
        return sorted(self._slots)

    def add(self, descriptor: PeerDescriptor) -> bool:
        """Insert subject to the SecureCyclon constraints; True if stored."""

        if descriptor.node_id == self.owner:
            return False
        existing = self._slots.get(descriptor.node_id)
        if existing is not None:
            # Keep the fresher of the two — never duplicate.
            if descriptor.age < existing.age:
                self._slots[descriptor.node_id] = descriptor
            return False
        if len(self._slots) >= self.capacity:
            # Evict the stalest descriptor to make room.
            stalest = max(self._slots.values(), key=lambda d: (d.age, d.node_id))
            if stalest.age <= descriptor.age:
                return False
            del self._slots[stalest.node_id]
        self._slots[descriptor.node_id] = descriptor
        return True

    def remove(self, node_id: int) -> None:
        self._slots.pop(node_id, None)

    def age_all(self) -> None:
        self._slots = {d.node_id: d.aged() for d in self._slots.values()}

    def oldest_peer(self) -> int | None:
        if not self._slots:
            return None
        return max(self._slots.values(), key=lambda d: (d.age, d.node_id)).node_id

    def sample(self, count: int, rng) -> list[PeerDescriptor]:
        descriptors = list(self._slots.values())
        if count >= len(descriptors):
            return descriptors
        return rng.sample(descriptors, count)


class PeerSamplingNode(ProtocolNode):
    """A protocol node running the shuffle rounds."""

    def __init__(
        self,
        node_id: int,
        network: Network,
        initial_view: list[int],
        view_size: int = 8,
        shuffle_size: int = 4,
        period_ms: float = 200.0,
        behavior: Behavior = Behavior.HONEST,
    ) -> None:
        super().__init__(node_id, network)
        self.view = PartialView(node_id, view_size)
        for peer in initial_view:
            self.view.add(PeerDescriptor(peer))
        self.shuffle_size = shuffle_size
        self.period_ms = period_ms
        self.behavior = behavior
        self.shuffles_completed = 0

    def on_start(self) -> None:
        if self.behavior is Behavior.CRASH:
            return
        self.schedule(self.period_ms * (1 + self.rng.random()), self._shuffle_round)

    def _shuffle_round(self) -> None:
        self.view.age_all()
        target = self.view.oldest_peer()
        if target is not None:
            outgoing = self.view.sample(self.shuffle_size - 1, self.rng)
            payload = tuple(outgoing) + (PeerDescriptor(self.node_id, 0),)
            # The exchanged slots leave our view; replies refill them.
            self.view.remove(target)
            size = _DESCRIPTOR_BYTES * len(payload)
            self.send(target, Message(SHUFFLE_KIND, payload, size))
        self.schedule(self.period_ms, self._shuffle_round)

    def on_message(self, sender: int, message: Message) -> None:
        if self.behavior is Behavior.CRASH:
            return
        if message.kind == SHUFFLE_KIND:
            if self.behavior is Behavior.DROP_RELAY:
                return  # Byzantine: never answers shuffles
            reply = self.view.sample(self.shuffle_size, self.rng)
            self.send(
                sender,
                Message(
                    SHUFFLE_REPLY_KIND, tuple(reply), _DESCRIPTOR_BYTES * len(reply)
                ),
            )
            self._merge(message.payload)
        elif message.kind == SHUFFLE_REPLY_KIND:
            self._merge(message.payload)
            self.shuffles_completed += 1

    def _merge(self, descriptors: tuple[PeerDescriptor, ...]) -> None:
        for descriptor in descriptors:
            self.view.add(descriptor)


def indegree_distribution(nodes: dict[int, PeerSamplingNode]) -> dict[int, int]:
    """How many views each node appears in — the balance metric."""

    indegree: dict[int, int] = {node_id: 0 for node_id in nodes}
    for node in nodes.values():
        for peer in node.view.peer_ids():
            if peer in indegree:
                indegree[peer] += 1
    return indegree


def bootstrap_ring_views(node_ids: list[int], view_size: int, seed: int = 0):
    """Initial views: ring successors plus a few random peers."""

    rng = derive_rng(seed, "peer-sampling-bootstrap")
    views: dict[int, list[int]] = {}
    n = len(node_ids)
    for index, node in enumerate(node_ids):
        successors = [node_ids[(index + offset) % n] for offset in range(1, 3)]
        extras = [p for p in rng.sample(node_ids, min(view_size, n)) if p != node]
        merged = list(dict.fromkeys(successors + extras))[:view_size]
        views[node] = merged
    return views

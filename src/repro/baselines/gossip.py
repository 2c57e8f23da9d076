"""Plain push gossip — Table I's "Gossip" baseline.

On first receipt of a transaction a node forwards it to ``fanout`` uniformly
random peers; Byzantine ``DROP_RELAY`` nodes consume without forwarding.
Delivery is probabilistic (coverage grows with fanout), latency is the number
of gossip rounds times a random-pair WAN hop.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..mempool.transaction import Transaction
from ..net.events import Message
from ..net.faults import Behavior
from .base import BaselineNode, BaseSystem

__all__ = ["GossipConfig", "GossipNode", "GossipSystem"]

GOSSIP_TX_KIND = "gossip-tx"


@dataclass(frozen=True, slots=True)
class GossipConfig:
    """Fanout of the push gossip."""

    fanout: int = 8

    def __post_init__(self) -> None:
        if self.fanout < 1:
            raise ConfigurationError(f"fanout must be positive, got {self.fanout}")


class GossipNode(BaselineNode):
    """Forwards each new transaction to ``fanout`` random peers."""

    def __init__(self, node_id, network, config: GossipConfig, **kwargs) -> None:
        super().__init__(node_id, network, **kwargs)
        self.config = config
        self.rng  # every node draws in _forward: derive the stream now

    def submit_transaction(self, tx: Transaction) -> None:
        if self.behavior is Behavior.CRASH:
            return
        self.mark_first_transmission(tx)
        self.deliver_locally(tx)
        self._forward(tx)

    def on_message(self, sender: int, message: Message) -> None:
        if self.behavior is Behavior.CRASH:
            return
        if message.kind != GOSSIP_TX_KIND:
            return
        tx: Transaction = message.payload
        if not self.deliver_locally(tx, sender=sender):
            return
        if self.behavior is Behavior.DROP_RELAY or self.censors(tx):
            return
        self._forward(tx)

    def _forward(self, tx: Transaction) -> None:
        peers = [n for n in self.network.node_ids() if n != self.node_id]
        fanout = min(self.config.fanout, len(peers))
        if not fanout:
            return
        message = Message(GOSSIP_TX_KIND, tx, tx.size_bytes, tx_id=tx.tx_id)
        for peer in self.rng.sample(peers, fanout):
            self.send(peer, message)


class GossipSystem(BaseSystem):
    """A network of :class:`GossipNode`."""

    def __init__(self, physical, config: GossipConfig | None = None, **kwargs) -> None:
        self.config = config if config is not None else GossipConfig()
        super().__init__(physical, **kwargs)

    def _make_node(self, node_id: int, behavior: Behavior) -> GossipNode:
        return GossipNode(
            node_id,
            self.network,
            self.config,
            behavior=behavior,
            observe_hook=self.observe_hook,
        )

"""Mercury — clustering-based fast broadcast (Zhou et al., INFOCOM'23).

Modelled features (the "complete version" the paper evaluates, §VIII-A):

* **Virtual Coordinate System (VCS)** — each node derives coordinates from its
  latency to a fixed landmark set; periodic coordinate updates to peers are
  charged as the VCS maintenance overhead of Fig. 3b.
* **Clustering** — nodes are grouped into ``K = 8`` clusters by nearest
  landmark (a k-means-style assignment in latency space);
* **Peer selection** — each node keeps ``D_cluster = 4`` nearest same-cluster
  peers plus its cluster *leader* (the landmark), filling up to ``D_max = 8``
  with further same-cluster peers; inter-cluster traffic flows through the
  leaders, which peer with the other leaders;
* **Early outburst** — on first receipt of a transaction a node immediately
  pushes it to *all* its peers (no batching/pull round), which is what buys
  Mercury its low latency.

Two security properties the attack experiments exploit: Mercury has no
dissemination accountability (any node may send any transaction to any other
node — direct injection), and its inter-cluster connectivity funnels through
the cluster leaders ("this centralized reliance on cluster leaders amplifies
its susceptibility", §VIII-F; "malicious clusters or failures of key nodes can
lead to significant disruptions or network partitioning", §VIII-G).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import filterfalse

from ..errors import ConfigurationError
from ..mempool.transaction import Transaction
from ..net.events import Message
from ..net.faults import Behavior
from ..net.topology import PhysicalNetwork
from ..utils.rng import derive_rng
from .base import BaselineNode, BaseSystem

__all__ = ["MercuryConfig", "MercuryNode", "MercurySystem"]

MERCURY_TX_KIND = "mercury-tx"
MERCURY_VCS_KIND = "mercury-vcs"

_VCS_UPDATE_BYTES = 64


@dataclass(frozen=True, slots=True)
class MercuryConfig:
    """Paper parameters: K = 8 clusters, D_cluster = 4, D_max = 8."""

    num_clusters: int = 8
    inner_cluster_peers: int = 4
    max_peers: int = 8
    vcs_period_ms: float = 1_000.0

    def __post_init__(self) -> None:
        if self.num_clusters < 1:
            raise ConfigurationError("num_clusters must be positive")
        if self.inner_cluster_peers < 1:
            raise ConfigurationError("inner_cluster_peers must be positive")
        if self.max_peers < self.inner_cluster_peers:
            raise ConfigurationError("max_peers must be >= inner_cluster_peers")
        if self.vcs_period_ms <= 0:
            raise ConfigurationError("vcs_period_ms must be positive")


class MercuryNode(BaselineNode):
    """A Mercury participant with its cluster-aware peer set."""

    def __init__(
        self, node_id, network, config: MercuryConfig, peers: list[int], **kwargs
    ) -> None:
        super().__init__(node_id, network, **kwargs)
        self.config = config
        self.peers = peers

    def submit_transaction(self, tx: Transaction) -> None:
        if self.behavior is Behavior.CRASH:
            return
        self.mark_first_transmission(tx)
        self.deliver_locally(tx)
        self._outburst(tx)

    def on_start(self) -> None:
        if self.behavior is Behavior.CRASH:
            return
        self.schedule(
            self.config.vcs_period_ms * (1 + self.rng.random()), self._vcs_round
        )

    def on_message(self, sender: int, message: Message) -> None:
        if self.behavior is Behavior.CRASH:
            return
        if message.kind == MERCURY_TX_KIND:
            tx: Transaction = message.payload
            if tx.tx_id in self.mempool.ids:
                return  # a duplicate: deliver_locally would refuse it
            fresh = self.deliver_locally(tx, sender=sender)
            # No relay accountability: a colluding node can silently censor
            # the transaction it is racing (marked by the observe hook).
            if fresh and self.behavior is not Behavior.DROP_RELAY and not self.censors(tx):
                self._outburst(tx, skip=sender)
        elif message.kind == MERCURY_VCS_KIND:
            pass  # coordinate bookkeeping has no protocol consequence here

    def _outburst(self, tx: Transaction, skip: int | None = None) -> None:
        """Early outburst: push to every peer immediately."""

        message = Message(MERCURY_TX_KIND, tx, tx.size_bytes, tx_id=tx.tx_id)
        peers = self.peers if skip is None else filterfalse(skip.__eq__, self.peers)
        self.network.send_many(self.node_id, peers, message)

    def _vcs_round(self) -> None:
        message = Message(MERCURY_VCS_KIND, self.node_id, _VCS_UPDATE_BYTES)
        self.network.send_many(self.node_id, self.peers, message)
        self.schedule(self.config.vcs_period_ms, self._vcs_round)


def assign_clusters(
    physical: PhysicalNetwork, num_clusters: int, seed: int
) -> tuple[dict[int, int], list[int]]:
    """Nearest-landmark clustering in latency space (a k-means assignment).

    Returns ``(node -> cluster index, landmarks)``; the landmark of a cluster
    is its most central node, the "critical node" an attacker would target.
    """

    node_ids = physical.nodes()
    rng = derive_rng(seed, "mercury-landmarks")
    landmarks = rng.sample(node_ids, min(num_clusters, len(node_ids)))
    index = {landmark: i for i, landmark in enumerate(landmarks)}
    assignment = {
        node: index[physical.nearest(node, landmarks, 1)[0]] for node in node_ids
    }
    return assignment, landmarks


class MercurySystem(BaseSystem):
    """A Mercury deployment: clustered peer graph + early-outburst nodes."""

    def __init__(self, physical, config: MercuryConfig | None = None, **kwargs) -> None:
        self.config = config if config is not None else MercuryConfig()
        seed = kwargs.get("seed", 0)
        self.clusters, self.landmarks = assign_clusters(
            physical, self.config.num_clusters, seed
        )
        rng = derive_rng(seed, "mercury-peers")
        node_ids = physical.nodes()
        by_cluster: dict[int, list[int]] = {}
        for node, cluster in self.clusters.items():
            by_cluster.setdefault(cluster, []).append(node)

        self._peers: dict[int, list[int]] = {}
        landmark_set = set(self.landmarks)
        for node in node_ids:
            cluster = self.clusters[node]
            leader = self.landmarks[cluster]
            is_leader = node in landmark_set
            # by_cluster lists are ascending, so input-order ties are id ties.
            same = physical.nearest(
                node,
                [peer for peer in by_cluster[cluster] if peer != node],
                self.config.inner_cluster_peers if is_leader else self.config.max_peers,
            )
            if is_leader:
                # Cluster leaders: nearest intra peers + the other leaders
                # (the inter-cluster relay mesh).
                peers = same
                other_leaders = sorted(
                    (l for l in self.landmarks if l != node),
                    key=lambda l: (physical.transport_latency(node, l), l),
                )
                peers += other_leaders[
                    : max(0, self.config.max_peers - len(peers))
                ]
            else:
                # Regular nodes: the cluster leader plus nearest intra peers.
                peers = [leader] if leader != node else []
                peers += [p for p in same if p not in peers][
                    : self.config.max_peers - len(peers)
                ]
            self._peers[node] = peers
        # Connections are TCP sessions — symmetric.  Mirror every edge so the
        # outburst can flow both ways (nearest-neighbour selection alone can
        # leave a node with no inbound edges).
        for node in node_ids:
            for peer in self._peers[node]:
                if node not in self._peers[peer]:
                    self._peers[peer].append(node)
        super().__init__(physical, **kwargs)

    def peers_of(self, node_id: int) -> list[int]:
        return list(self._peers[node_id])

    def _make_node(self, node_id: int, behavior: Behavior) -> MercuryNode:
        return MercuryNode(
            node_id,
            self.network,
            self.config,
            self._peers[node_id],
            behavior=behavior,
            observe_hook=self.observe_hook,
        )

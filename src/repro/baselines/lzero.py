"""L∅ — the accountable mempool HERMES extends (Nasrulin et al., 2023).

Modelled behaviour (the aspects the paper's evaluation exercises):

* **Dissemination** — low-fanout gossip over a static unidirectional partner
  overlay (each node forwards new transactions to its fixed partners).  The
  small fanout is what makes L∅ the most bandwidth-frugal baseline and also
  the slowest/widest in latency (Fig. 3a/3b).
* **Commitments** — a node attaches a mempool commitment digest when it
  forwards, making reordering detectable afterwards; we charge the bytes and
  keep the latest commitment per peer for the accountability tests.  Of its
  own commitments a node keeps what the audit asks for and no more: per
  transaction, the time of the first reconciliation round that committed it
  (``first_committed_at``) — O(transactions known), however many rounds ran.
* **Reconciliation** — periodic digest exchange with a random partner repairs
  gossip misses, giving eventual consistency.

Accountability consequence used by the attack model: an L∅ adversary cannot
inject a transaction straight into a miner's mempool out of band — the
commitment record would expose it — so adversarial transactions travel through
the same gossip as everyone else's.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..mempool.transaction import Transaction
from ..net.events import Message
from ..net.faults import Behavior
from ..utils.rng import derive_rng
from .base import BaselineNode, BaseSystem

__all__ = ["LZeroConfig", "LZeroNode", "LZeroSystem"]

LZERO_TX_KIND = "lzero-tx"
LZERO_DIGEST_KIND = "lzero-digest"
LZERO_REQUEST_KIND = "lzero-request"
LZERO_TXS_KIND = "lzero-txs"

_COMMITMENT_BYTES = 32
_DIGEST_BASE_BYTES = 32


@dataclass(frozen=True, slots=True)
class LZeroConfig:
    """Fanout of the partner overlay and the reconciliation cadence."""

    fanout: int = 3
    reconcile_period_ms: float = 400.0

    def __post_init__(self) -> None:
        if self.fanout < 1:
            raise ConfigurationError(f"fanout must be positive, got {self.fanout}")
        if self.reconcile_period_ms <= 0:
            raise ConfigurationError("reconcile_period_ms must be positive")


class LZeroNode(BaselineNode):
    """One L∅ participant."""

    def __init__(
        self, node_id, network, config: LZeroConfig, partners: list[int], **kwargs
    ) -> None:
        super().__init__(node_id, network, **kwargs)
        self.config = config
        self.partners = partners
        # Latest mempool commitment received from each peer (accountability).
        self.peer_commitments: dict[int, bytes] = {}
        # Own commitment timeline: tx id -> time of the first reconciliation
        # round whose commitment covered it.  In L∅ each round's commitment
        # is witnessed by peers; the audit in repro.baselines.lzero_audit
        # reads this index to expose reordering (see Nasrulin et al.,
        # §"uncovers reordering attacks").  A round only looks at the ids
        # freshly delivered since the previous one, noted at each delivery.
        self.first_committed_at: dict[int, float] = {}
        self._delivered_since_round: list[int] = []

    def submit_transaction(self, tx: Transaction) -> None:
        if self.behavior is Behavior.CRASH:
            return
        self.mark_first_transmission(tx)
        if self.deliver_locally(tx):
            self._delivered_since_round.append(tx.tx_id)
        self._forward(tx)

    def on_start(self) -> None:
        # The loop runs even for crashed nodes (each round no-ops while the
        # node is down) so a chaos recovery resumes reconciliation without
        # rewiring; see the matching pattern in HermesNode.on_start.
        first = self.config.reconcile_period_ms * (1 + self.rng.random())
        self.schedule(first, self._reconcile_round)

    def on_message(self, sender: int, message: Message) -> None:
        if self.behavior is Behavior.CRASH:
            return
        if message.kind == LZERO_TX_KIND:
            tx, commitment = message.payload
            self.peer_commitments[sender] = commitment
            if tx.tx_id in self.mempool.ids:
                return  # a duplicate: deliver_locally would refuse it
            if self.deliver_locally(tx, sender=sender):
                self._delivered_since_round.append(tx.tx_id)
                if self.behavior is not Behavior.DROP_RELAY:
                    self._forward(tx)
        elif message.kind == LZERO_DIGEST_KIND:
            self._on_digest(sender, message.payload)
        elif message.kind == LZERO_REQUEST_KIND:
            self._on_request(sender, message.payload)
        elif message.kind == LZERO_TXS_KIND:
            for tx in message.payload:
                if self.deliver_locally(tx, sender=sender, via="reconcile"):
                    self._delivered_since_round.append(tx.tx_id)

    # -- gossip over the partner overlay ---------------------------------

    def _forward(self, tx: Transaction) -> None:
        body = (tx, self.mempool.commitment())
        message = Message(
            LZERO_TX_KIND, body, tx.size_bytes + _COMMITMENT_BYTES, tx_id=tx.tx_id
        )
        self.network.send_many(self.node_id, self.partners, message)

    # -- reconciliation ----------------------------------------------------

    def _reconcile_round(self) -> None:
        if self.behavior is Behavior.CRASH:
            # Down: no commitment, no sends, no rng draws — just keep ticking.
            self.schedule(self.config.reconcile_period_ms, self._reconcile_round)
            return
        # Commit to the mempool as it stands.  Ids committed before keep their
        # first entry, so only fresh arrivals still resident can be new.
        now, mempool, committed = self.now, self.mempool, self.first_committed_at
        for tx_id in self._delivered_since_round:
            if tx_id in mempool:
                committed.setdefault(tx_id, now)
        self._delivered_since_round.clear()
        if self.partners and self.behavior is not Behavior.DROP_RELAY:
            partner = self.rng.choice(self.partners)
            known = mempool.known_ids()
            size = _DIGEST_BASE_BYTES + len(known)
            self.send(partner, Message(LZERO_DIGEST_KIND, known, size))
        self.schedule(self.config.reconcile_period_ms, self._reconcile_round)

    def _on_digest(self, sender: int, known_ids: tuple[int, ...]) -> None:
        if self.behavior is Behavior.DROP_RELAY:
            return
        missing = self.mempool.absent_locally(known_ids)
        if missing:
            size = _DIGEST_BASE_BYTES + 8 * len(missing)
            self.send(sender, Message(LZERO_REQUEST_KIND, tuple(missing), size))
        extra = [self.mempool.get(i) for i in self.mempool.missing_from(known_ids)]
        extra = [tx for tx in extra if tx is not None]
        if extra:
            self.send(
                sender,
                Message(
                    LZERO_TXS_KIND,
                    tuple(extra),
                    sum(t.size_bytes for t in extra),
                    tx_id=extra[0].tx_id if len(extra) == 1 else None,
                ),
            )

    def _on_request(self, sender: int, tx_ids: tuple[int, ...]) -> None:
        if self.behavior is Behavior.DROP_RELAY:
            return
        txs = [self.mempool.get(i) for i in tx_ids]
        txs = [tx for tx in txs if tx is not None]
        if txs:
            self.send(
                sender,
                Message(
                    LZERO_TXS_KIND,
                    tuple(txs),
                    sum(t.size_bytes for t in txs),
                    tx_id=txs[0].tx_id if len(txs) == 1 else None,
                ),
            )


class LZeroSystem(BaseSystem):
    """A network of :class:`LZeroNode` over a static partner overlay."""

    def __init__(self, physical, config: LZeroConfig | None = None, **kwargs) -> None:
        self.config = config if config is not None else LZeroConfig()
        seed = kwargs.get("seed", 0)
        rng = derive_rng(seed, "lzero-partners")
        node_ids = physical.nodes()
        self._partners: dict[int, list[int]] = {}
        # Sample partner *indices* into the (virtual) node list with self
        # removed, instead of materializing that O(N) list per node.
        # rng.sample's draw sequence depends only on the population length
        # and k, and others[i] == node_ids[i if i < self_idx else i + 1], so
        # this consumes the identical rng stream and picks the identical
        # partners as sampling from the explicit list — just in O(fanout).
        for self_idx, node in enumerate(node_ids):
            count = min(self.config.fanout, len(node_ids) - 1)
            if count:
                picks = rng.sample(range(len(node_ids) - 1), count)
                self._partners[node] = [
                    node_ids[i if i < self_idx else i + 1] for i in picks
                ]
            else:
                self._partners[node] = []
        super().__init__(physical, **kwargs)

    def partners_of(self, node_id: int) -> list[int]:
        return list(self._partners[node_id])

    def _make_node(self, node_id: int, behavior: Behavior) -> LZeroNode:
        return LZeroNode(
            node_id,
            self.network,
            self.config,
            self._partners[node_id],
            behavior=behavior,
            observe_hook=self.observe_hook,
        )

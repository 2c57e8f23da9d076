"""Narwhal — DAG-mempool batch dissemination (Danezis et al., EuroSys'22).

Modelled pipeline for one transaction (batch of one, matching the paper's
single-transaction dissemination measurements):

1. the origin accumulates the transaction into a worker batch (honest workers
   seal batches on a timer — ``batch_delay_ms``; a Byzantine worker is free to
   seal instantly, which is one of its front-running levers);
2. the origin sends the batch to every *validator*;
3. validators push the batch to their *subscriber* nodes (a 10,000-node
   network cannot be all validators; non-validators sync from a few validator
   contacts — this is the "coordination dependencies between nodes" the paper
   blames for Narwhal's latency spread);
4. every batch receiver returns an availability ack to the origin ("collecting
   batch approvals from two-thirds of the network", §VIII-D); a quorum of
   validator acks forms the availability certificate, which is broadcast along
   the same paths.

A node's *mempool* holds the transaction from batch arrival (that is what a
local proposer orders by); the certificate makes it referenceable by a DAG
consensus and is tracked separately (``certified_ids``).  Byzantine validators
neither push to subscribers nor ack, so a node whose validator contacts are
all faulty misses the transaction: that is Narwhal's robustness degradation in
Fig. 5b.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import filterfalse

from ..errors import ConfigurationError
from ..mempool.transaction import Transaction
from ..net.events import Message
from ..net.faults import Behavior
from ..utils.rng import derive_rng
from .base import BaselineNode, BaseSystem

__all__ = ["NarwhalConfig", "NarwhalNode", "NarwhalSystem"]

BATCH_KIND = "narwhal-batch"
ACK_KIND = "narwhal-ack"
CERT_KIND = "narwhal-cert"

_ACK_BYTES = 64
_CERT_BYTES = 96
_BATCH_HEADER_BYTES = 48


@dataclass(frozen=True, slots=True)
class NarwhalConfig:
    """Validator-set sizing and subscription fanout."""

    # Number of validators; None = max(4, n // 3).
    num_validators: int | None = None
    subscriptions_per_node: int = 2
    # Honest workers seal a batch this long after the first transaction.
    batch_delay_ms: float = 60.0
    # Fraction of the *validators* whose acks certify availability.  All
    # batch receivers ack (the network-wide approval traffic of §VIII-D), but
    # liveness of certificate formation must not hinge on subscribers of
    # faulty validators ever seeing the batch, so the quorum counts validator
    # acks only.
    ack_quorum_fraction: float = 1 / 2

    def __post_init__(self) -> None:
        if self.num_validators is not None and self.num_validators < 1:
            raise ConfigurationError("num_validators must be positive when set")
        if self.subscriptions_per_node < 1:
            raise ConfigurationError("subscriptions_per_node must be positive")
        if not 0 < self.ack_quorum_fraction <= 1:
            raise ConfigurationError("ack_quorum_fraction must be in (0, 1]")


@dataclass
class _BatchState:
    """Origin-side certificate assembly for one batch."""

    acks: set[int] = field(default_factory=set)
    validator_acks: int = 0
    certified: bool = False


class NarwhalNode(BaselineNode):
    """One Narwhal participant (validator or subscriber)."""

    def __init__(
        self,
        node_id,
        network,
        config: NarwhalConfig,
        validators: list[int],
        subscribers: list[int],
        validator_set: frozenset[int],
        **kwargs,
    ) -> None:
        super().__init__(node_id, network, **kwargs)
        self.config = config
        self.validators = validators  # fan-out order
        self.validator_set = validator_set  # membership; one set per system
        self.subscribers = subscribers  # nodes that sync from us (validators only)
        self._batches: dict[int, Transaction] = {}
        self._certs: set[int] = set()
        self._origin_state: dict[int, _BatchState] = {}
        self.certified_ids: set[int] = set()

    @property
    def is_validator(self) -> bool:
        return bool(self.subscribers) or self.node_id in self.validator_set

    # -- sending -----------------------------------------------------------

    def submit_transaction(self, tx: Transaction) -> None:
        if self.behavior is Behavior.CRASH:
            return
        # Honest workers wait for the batch timer; a Byzantine front-runner
        # seals its batch immediately (local policy, unobservable).
        delay = (
            0.0
            if self.behavior is Behavior.FRONT_RUN
            else self.config.batch_delay_ms
        )
        if delay > 0:
            self.schedule(delay, lambda: self._broadcast_batch(tx))
        else:
            self._broadcast_batch(tx)

    def _broadcast_batch(self, tx: Transaction) -> None:
        self.mark_first_transmission(tx)
        self._origin_state[tx.tx_id] = _BatchState()
        self._on_batch(self.node_id, tx)
        message = Message(
            BATCH_KIND, tx, tx.size_bytes + _BATCH_HEADER_BYTES, tx_id=tx.tx_id
        )
        others = filterfalse(self.node_id.__eq__, self.validators)
        self.network.send_many(self.node_id, others, message)

    # -- receiving -----------------------------------------------------------

    def on_message(self, sender: int, message: Message) -> None:
        if self.behavior is Behavior.CRASH:
            return
        if message.kind == BATCH_KIND:
            self._on_batch(sender, message.payload)
        elif message.kind == ACK_KIND:
            self._on_ack(sender, message.payload)
        elif message.kind == CERT_KIND:
            self._on_cert(sender, message.payload)

    def _on_batch(self, sender: int, tx: Transaction) -> None:
        if tx.tx_id in self._batches:
            return
        self._batches[tx.tx_id] = tx
        # Mempool arrival: a local proposer orders by this moment, and the
        # observe hook fires here (a tapping adversary sees content on
        # receipt).  The *measured* delivery — when the transaction becomes
        # referenceable by a DAG consensus — additionally needs the
        # availability certificate (see _maybe_record_usable).
        self.deliver_locally(tx, record_stats=False, sender=sender)
        self._maybe_record_usable(tx.tx_id)
        if self.censors(tx):
            return
        if tx.origin != self.node_id:
            # Availability ack back to the origin (honest nodes only).
            if self.behavior is not Behavior.DROP_RELAY:
                self.send(
                    tx.origin, Message(ACK_KIND, tx.tx_id, _ACK_BYTES, tx_id=tx.tx_id)
                )
        if self.behavior is Behavior.DROP_RELAY:
            return
        push = Message(
            BATCH_KIND, tx, tx.size_bytes + _BATCH_HEADER_BYTES, tx_id=tx.tx_id
        )
        skip = (self.node_id, sender, tx.origin).__contains__
        if self.node_id in self.validator_set:
            # Worker batch sync: each validator relays the batch once to all
            # other validators so availability survives a faulty origin.
            # This all-to-all amplification is Narwhal's bandwidth price
            # ("intensive broadcast structure", §VIII-D).
            self.network.send_many(self.node_id, filterfalse(skip, self.validators), push)
        # Validators push the batch down to their subscribers.
        self.network.send_many(self.node_id, filterfalse(skip, self.subscribers), push)

    def _on_ack(self, sender: int, tx_id: int) -> None:
        state = self._origin_state.get(tx_id)
        if state is None or state.certified:
            return
        if sender in state.acks:
            return  # counted already; the quorum test below has not moved
        state.acks.add(sender)
        if sender in self.validator_set:
            state.validator_acks += 1
        quorum = int(self.config.ack_quorum_fraction * len(self.validators)) + 1
        if state.validator_acks + 1 >= quorum:  # +1: the origin's own availability
            state.certified = True
            self._broadcast_cert(tx_id)

    def _broadcast_cert(self, tx_id: int) -> None:
        self._on_cert(self.node_id, tx_id)
        message = Message(CERT_KIND, tx_id, _CERT_BYTES, tx_id=tx_id)
        others = filterfalse(self.node_id.__eq__, self.validators)
        self.network.send_many(self.node_id, others, message)

    def _on_cert(self, sender: int, tx_id: int) -> None:
        if tx_id in self._certs:
            return
        self._certs.add(tx_id)
        self._maybe_record_usable(tx_id)
        if self.subscribers and self.behavior is not Behavior.DROP_RELAY:
            message = Message(CERT_KIND, tx_id, _CERT_BYTES, tx_id=tx_id)
            others = filterfalse(self.node_id.__eq__, self.subscribers)
            self.network.send_many(self.node_id, others, message)

    def _maybe_record_usable(self, tx_id: int) -> None:
        """Batch + certificate both present: the transaction is available to
        the DAG consensus — the delivery the latency/robustness figures use."""

        if tx_id in self.certified_ids:
            return
        if tx_id in self._certs and tx_id in self._batches:
            self.certified_ids.add(tx_id)
            self.network.stats.record_delivery(tx_id, self.node_id, self.now)


class NarwhalSystem(BaseSystem):
    """A Narwhal deployment: validators plus subscribing full nodes."""

    def __init__(self, physical, config: NarwhalConfig | None = None, **kwargs) -> None:
        self.config = config if config is not None else NarwhalConfig()
        seed = kwargs.get("seed", 0)
        node_ids = physical.nodes()
        count = (
            self.config.num_validators
            if self.config.num_validators is not None
            else max(4, len(node_ids) // 3)
        )
        count = min(count, len(node_ids))
        rng = derive_rng(seed, "narwhal-validators")
        self.validators = sorted(rng.sample(node_ids, count))
        validator_set = self.validator_set = frozenset(self.validators)

        # Every non-validator subscribes to a few validators.
        self._subscribers: dict[int, list[int]] = {v: [] for v in self.validators}
        for node in node_ids:
            if node in validator_set:
                continue
            picks = rng.sample(
                self.validators,
                min(self.config.subscriptions_per_node, len(self.validators)),
            )
            for validator in picks:
                self._subscribers[validator].append(node)
        super().__init__(physical, **kwargs)

    def _make_node(self, node_id: int, behavior: Behavior) -> NarwhalNode:
        return NarwhalNode(
            node_id,
            self.network,
            self.config,
            self.validators,
            self._subscribers.get(node_id, []),
            self.validator_set,
            behavior=behavior,
            observe_hook=self.observe_hook,
        )

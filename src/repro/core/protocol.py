"""The HERMES protocol actor and system orchestrator.

:class:`HermesNode` implements every role a node can play:

* **sender** — obtains a TRS from the committee, then pushes the envelope to
  the selected overlay's entry points (directly, or source-routed over
  ``f+1`` vertex-disjoint physical paths);
* **committee member** — participates in Bracha RBC over seed requests and
  returns partial threshold signatures;
* **relay** — verifies signature / sequence / predecessor legitimacy, delivers
  to its mempool, forwards to its overlay successors, and logs violations;
* **gossiper** — after the fallback delay ``T``, reconciles mempools with
  random peers so that fault-density violations cannot cause permanent loss.

:class:`HermesSystem` wires a whole network: committee selection, threshold
key setup, overlay family construction + certification, and node creation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from ..crypto.backend import CryptoBackend, FastCryptoBackend
from ..errors import ConfigurationError
from ..mempool.mempool import Mempool
from ..mempool.transaction import Transaction
from ..net.events import Message
from ..net.faults import Behavior, FaultPlan
from ..net.node import Deployment, Network, ProtocolNode
from ..net.simulator import Simulator
from ..net.topology import PhysicalNetwork
from ..overlay.base import Overlay
from ..overlay.encoding import OverlayCertificate, certify_overlays, decode_overlay
from ..overlay.paths import find_disjoint_paths
from ..overlay.robust_tree import build_overlay_family
from ..trs.committee import TrsCommitteeMember
from ..trs.seed import TrsClient, TrsResult
from .accountability import AccountabilityMonitor, ViolationKind, ViolationLog
from .config import HermesConfig
from .tracing import ActivityKind, ActivityRecord, ActivityTrace
from .dissemination import (
    ACK_KIND,
    DISSEMINATE_KIND,
    GOSSIP_DIGEST_KIND,
    GOSSIP_REQUEST_KIND,
    GOSSIP_TXS_KIND,
    ROUTE_KIND,
    DisseminationEnvelope,
)
from .sequencer import SequenceAuditor

if TYPE_CHECKING:
    from ..obs.facade import Observability

__all__ = ["HermesNode", "HermesSystem"]

# Gossip digest cost model: a compact sketch plus ~1 byte per advertised id.
_DIGEST_BASE_BYTES = 32
_ROUTE_EXTRA_BYTES = 16


class HermesNode(ProtocolNode):
    """One HERMES participant (see module docstring for its roles)."""

    def __init__(
        self,
        node_id: int,
        network: Network,
        config: HermesConfig,
        backend: CryptoBackend,
        committee: Sequence[int],
        certificates: Sequence[OverlayCertificate],
        violation_log: ViolationLog,
        behavior: Behavior = Behavior.HONEST,
        observe_hook: Callable[["HermesNode", Transaction], None] | None = None,
        trace: ActivityTrace | None = None,
        decoded_overlays: dict[int, Overlay] | None = None,
    ) -> None:
        super().__init__(node_id, network)
        if config.gossip_fallback_enabled:
            self.rng  # every node draws in on_start: derive the stream now
        self.config = config
        self.backend = backend
        self.behavior = behavior
        self.committee = tuple(committee)
        self.mempool = Mempool(owner=node_id)
        self.monitor = AccountabilityMonitor(
            node_id, violation_log, exclude_violators=config.exclude_violators
        )
        self.auditor = SequenceAuditor(config.sequence_gap_timeout_ms)
        self.observe_hook = observe_hook
        self._flagged_gaps: set[tuple[int, int]] = set()
        # Transactions a malicious node refuses to forward (attack drivers
        # populate this; the f+1 predecessor redundancy is what defeats it).
        self.censor_ids: set[int] = set()
        # (tx_id, overlay_id) pairs already forwarded — deduplicates the f+1
        # copies arriving from multiple predecessors, while still letting a
        # node that already *knew* the transaction (e.g. its origin sitting
        # inside the overlay) forward it when its overlay copy arrives.
        self._forwarded: set[tuple[int, int]] = set()
        # Acknowledgment aggregation (§IV step 3): per (tx, overlay), the set
        # of nodes covered by the acks received from successors so far.
        self._ack_covered: dict[tuple[int, int], set[int]] = {}
        self._ack_flushed: set[tuple[int, int]] = set()
        self._ack_origin: dict[tuple[int, int], int] = {}
        self._ack_sent: dict[tuple[int, int], frozenset[int]] = {}
        self._my_tx_ids: set[int] = set()
        self.trace = trace if config.tracing_enabled else None
        # Structured observability (repro.obs); None → all hooks are no-ops.
        self._obs = network.obs
        self._trs_started: dict[int, float] = {}
        # Sender side: nodes confirmed to have received each of our txs.
        self.ack_confirmations: dict[int, set[int]] = {}

        # Every node verifies the committee's certificate before trusting an
        # overlay description (Alg. 5's whole point).  Verification and
        # decoding are deterministic per certificate, so a system that owns
        # many nodes may do both once and share the result (the decoded
        # Overlay objects are read-only at runtime); *decoded_overlays* is
        # that precomputed map.  Directly constructed nodes keep the per-node
        # verify + decode path.
        if decoded_overlays is not None:
            self.overlays: dict[int, Overlay] = dict(decoded_overlays)
        else:
            self.overlays = {}
            for certificate in certificates:
                if not certificate.verify(backend):
                    continue  # unsigned overlay descriptions are ignored
                overlay = decode_overlay(certificate.encoded)
                self.overlays[overlay.overlay_id] = overlay

        self.trs_client = TrsClient(
            self, committee, config.f, backend, config.num_overlays
        )
        self.trs_member: TrsCommitteeMember | None = None
        if node_id in committee:
            self.trs_member = TrsCommitteeMember(self, committee, config.f, backend)

    def close(self) -> None:
        # Both TRS components hold this node (the client's pending requests
        # also hold seed callbacks that close over it); attack hooks close
        # over the owning system.
        if self.trs_member is not None:
            self.trs_member.close()
        self.trs_member = None
        self.trs_client = None
        self.observe_hook = None

    def _trace(
        self,
        kind: ActivityKind,
        tx_id: int,
        overlay_id: int | None = None,
        peer: int | None = None,
    ) -> None:
        if self.trace is not None:
            self.trace.record(
                ActivityRecord(
                    time_ms=self.now,
                    node=self.node_id,
                    kind=kind,
                    tx_id=tx_id,
                    overlay_id=overlay_id,
                    peer=peer,
                )
            )

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def submit_transaction(self, tx: Transaction) -> None:
        """Start disseminating *tx*: obtain a TRS, then hit the entry points."""

        if self.behavior is Behavior.CRASH:
            return
        self.network.stats.record_submission(tx.tx_id, self.now)
        self._my_tx_ids.add(tx.tx_id)
        self._trace(ActivityKind.TRS_REQUESTED, tx.tx_id)
        obs = self._obs
        if obs is not None:
            self._trs_started[tx.tx_id] = self.now
            obs.event("tx.submit", tx_id=tx.tx_id, origin=self.node_id)
        self._deliver_locally(tx)

        def on_seed(result: TrsResult) -> None:
            if obs is not None:
                started = self._trs_started.pop(tx.tx_id, None)
                if started is not None:
                    latency = self.now - started
                    obs.metrics.histogram("hermes.trs.latency_ms").observe(latency)
                    obs.event(
                        "hermes.trs.acquired",
                        tx_id=tx.tx_id,
                        origin=self.node_id,
                        sequence=result.sequence,
                        overlay_id=result.overlay_id,
                        latency_ms=latency,
                    )
            envelope = DisseminationEnvelope(
                tx=tx,
                origin=self.node_id,
                sequence=result.sequence,
                signature=result.signature,
                overlay_id=result.overlay_id,
                shard_id=self.config.shard_id,
            )
            self._dispatch_to_entry_points(envelope)

        self.trs_client.request(tx.digest(), on_seed)

    def _dispatch_to_entry_points(self, envelope: DisseminationEnvelope) -> None:
        overlay = self.overlays.get(envelope.overlay_id)
        if overlay is None:
            raise ConfigurationError(
                f"node {self.node_id} lacks overlay {envelope.overlay_id}"
            )
        # First transmission of the transaction payload itself — the paper's
        # latency reference point (the TRS request only carried H(m)).
        self.network.stats.record_dissemination_start(envelope.tx.tx_id, self.now)
        self._trace(ActivityKind.DISPATCHED, envelope.tx.tx_id, envelope.overlay_id)
        if self._obs is not None:
            self._obs.event(
                "tx.dispatch",
                tx_id=envelope.tx.tx_id,
                origin=self.node_id,
                overlay_id=envelope.overlay_id,
                entry_points=len(overlay.entry_points),
            )
        size = envelope.wire_bytes(self.backend)
        tx_id, overlay_id = envelope.tx.tx_id, envelope.overlay_id
        if not self.config.use_physical_paths:
            # The transport provides f+1 trivially disjoint internet paths.
            for entry in overlay.entry_points:
                if entry == self.node_id:
                    self._accept(self.node_id, envelope)
                else:
                    self.send(
                        entry,
                        Message(
                            DISSEMINATE_KIND,
                            envelope,
                            size,
                            tx_id=tx_id,
                            overlay_id=overlay_id,
                        ),
                    )
            return
        paths = find_disjoint_paths(
            self.network.physical.graph,
            self.node_id,
            list(overlay.entry_points),
            self.config.f + 1,
        )
        for path in paths:
            if len(path) == 1:  # we are the entry point
                self._accept(self.node_id, envelope)
            elif len(path) == 2:
                self.send(
                    path[1],
                    Message(
                        DISSEMINATE_KIND,
                        envelope,
                        size,
                        tx_id=tx_id,
                        overlay_id=overlay_id,
                    ),
                )
            else:
                body = (envelope, tuple(path), 1)
                self.send(
                    path[1],
                    Message(
                        ROUTE_KIND,
                        body,
                        size + _ROUTE_EXTRA_BYTES,
                        tx_id=tx_id,
                        overlay_id=overlay_id,
                    ),
                )

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def on_message(self, sender: int, message: Message) -> None:
        if self.behavior is Behavior.CRASH:
            return
        if self.trs_member is not None and self.trs_member.handles(message.kind):
            self.trs_member.handle(sender, message)
            return
        if self.trs_client.handles(message.kind):
            self.trs_client.handle(sender, message)
            return
        if message.kind == DISSEMINATE_KIND:
            self._accept(sender, message.payload)
        elif message.kind == ROUTE_KIND:
            self._route(sender, message)
        elif message.kind == ACK_KIND:
            self._on_ack(sender, message.payload)
        elif message.kind == GOSSIP_DIGEST_KIND:
            self._on_gossip_digest(sender, message.payload)
        elif message.kind == GOSSIP_REQUEST_KIND:
            self._on_gossip_request(sender, message.payload)
        elif message.kind == GOSSIP_TXS_KIND:
            self._on_gossip_txs(sender, message.payload)

    def _route(self, sender: int, message: Message) -> None:
        """Forward a source-routed envelope one hop toward its entry point.

        The destination entry point accepts the envelope on behalf of its
        origin: path relays cannot forge it (the TRS signature covers the
        origin, sequence and transaction), they can only deliver or drop it —
        and dropping is masked by the f+1 disjoint paths.
        """

        envelope, path, index = message.payload
        if self.node_id != path[index]:
            return  # misrouted; drop
        if index == len(path) - 1:
            self._accept(envelope.origin, envelope)
            return
        if self.behavior is Behavior.DROP_RELAY:
            return
        self.send(
            path[index + 1],
            Message(
                ROUTE_KIND,
                (envelope, path, index + 1),
                message.size_bytes,
                tx_id=envelope.tx.tx_id,
                overlay_id=envelope.overlay_id,
            ),
        )

    def _accept(self, sender: int, envelope: DisseminationEnvelope) -> None:
        """Verify and process a disseminated envelope (§VI-C checks)."""

        if self.monitor.is_excluded(sender) and sender != self.node_id:
            self.monitor.flag(
                ViolationKind.EXCLUDED_SENDER, sender, self.now, "message after exclusion"
            )
            return
        # Sharded deployments: traffic sealed for another shard's committee
        # is rejected at admission — mis-routed envelopes cannot leak across
        # shard boundaries (repro.sharding).
        if (
            self.config.shard_id is not None
            and envelope.shard_id != self.config.shard_id
        ):
            self.monitor.flag(
                ViolationKind.WRONG_SHARD,
                sender,
                self.now,
                f"envelope tagged for shard {envelope.shard_id}, "
                f"this relay serves shard {self.config.shard_id}",
            )
            return
        overlay = self.overlays.get(envelope.overlay_id)
        if overlay is None:
            self.monitor.flag(
                ViolationKind.WRONG_OVERLAY,
                sender,
                self.now,
                f"unknown overlay {envelope.overlay_id}",
            )
            return
        # Check (i): the threshold signature, and that it selects this overlay.
        if not envelope.verify(self.backend, self.config.num_overlays):
            self.monitor.flag(
                ViolationKind.BAD_SIGNATURE, sender, self.now, "invalid TRS"
            )
            return
        # Check (iii): sender must be a legitimate predecessor in the overlay
        # (entry points accept only from the origin; sender == self covers the
        # origin-is-entry-point case).
        if sender != self.node_id:
            if overlay.is_entry(self.node_id):
                if sender != envelope.origin:
                    self.monitor.flag(
                        ViolationKind.ILLEGITIMATE_PREDECESSOR,
                        sender,
                        self.now,
                        "non-origin delivered to entry point",
                    )
                    return
            elif sender not in overlay.valid_senders(self.node_id):
                self.monitor.flag(
                    ViolationKind.ILLEGITIMATE_PREDECESSOR,
                    sender,
                    self.now,
                    f"not a predecessor in overlay {envelope.overlay_id}",
                )
                return

        # Check (ii): sequence continuity auditing (never delays delivery).
        self._audit_sequence(envelope)
        self._trace(
            ActivityKind.RECEIVED, envelope.tx.tx_id, envelope.overlay_id, peer=sender
        )
        if envelope.tx.tx_id not in self.mempool:
            self._trace(
                ActivityKind.DELIVERED, envelope.tx.tx_id, envelope.overlay_id,
                peer=sender,
            )
            if self._obs is not None:
                depth = overlay.depth_of.get(self.node_id, 0)
                self._obs.metrics.histogram("hermes.overlay.hops").observe(depth)
        self._deliver_locally(
            envelope.tx,
            sender=sender,
            overlay_id=envelope.overlay_id,
            hops=overlay.depth_of.get(self.node_id, 0),
        )
        key = (envelope.tx.tx_id, envelope.overlay_id)
        if key in self._forwarded:
            return
        self._forwarded.add(key)
        if self.behavior is Behavior.DROP_RELAY or envelope.tx.tx_id in self.censor_ids:
            return  # Byzantine censorship: consume but never forward
        successors = self._forward_targets(envelope, overlay)
        size = envelope.wire_bytes(self.backend)
        for successor in successors:
            self._trace(
                ActivityKind.RELAYED, envelope.tx.tx_id, envelope.overlay_id,
                peer=successor,
            )
            self.send(
                successor,
                Message(
                    DISSEMINATE_KIND,
                    envelope,
                    size,
                    tx_id=envelope.tx.tx_id,
                    overlay_id=envelope.overlay_id,
                ),
            )
        if self.config.acknowledgments_enabled:
            self._ack_origin[key] = envelope.origin
            if overlay.is_leaf(self.node_id):
                # Leaves acknowledge immediately, back along the overlay.
                self._flush_ack(envelope.tx.tx_id, envelope.overlay_id)
            else:
                # Interior nodes wait for successor acks, with a flush
                # timeout staged by height (deeper nodes report first) so
                # Byzantine successors cannot mute the report.
                self._ack_covered.setdefault(key, set())
                height = overlay.max_depth() - overlay.depth_of[self.node_id]
                self.schedule(
                    self.config.ack_flush_timeout_ms * max(height, 1),
                    lambda: self._flush_ack(envelope.tx.tx_id, envelope.overlay_id),
                )

    def _audit_sequence(self, envelope: DisseminationEnvelope) -> None:
        origin, sequence = envelope.origin, envelope.sequence
        self.auditor.observe(origin, sequence, self.now)
        gaps = self.auditor.pending_gaps(origin)
        if not gaps:
            return

        def check_later() -> None:
            if self.behavior is Behavior.CRASH:
                return
            for missing in self.auditor.expired_gaps(origin, self.now):
                key = (origin, missing)
                if key not in self._flagged_gaps:
                    self._flagged_gaps.add(key)
                    self.monitor.flag(
                        ViolationKind.SEQUENCE_GAP,
                        origin,
                        self.now,
                        f"sequence {missing} never disseminated",
                    )

        self.schedule(self.config.sequence_gap_timeout_ms, check_later)

    def _forward_targets(self, envelope: DisseminationEnvelope, overlay) -> list[int]:
        """Which successors to forward *envelope* to.

        The default is all of them (the f+1-redundant robust-tree flow);
        extensions may thin the flow when redundancy is provided elsewhere
        (e.g. erasure-coded shards, repro.core.batching).
        """

        return list(overlay.successors.get(self.node_id, ()))

    # ------------------------------------------------------------------
    # Acknowledgments (§IV step 3, optional)
    # ------------------------------------------------------------------

    def _flush_ack(self, tx_id: int, overlay_id: int) -> None:
        """Send the aggregated ack one level up the dissemination overlay.

        Re-invocations after new coverage arrived send incremental updates;
        unchanged coverage is never re-sent.
        """

        key = (tx_id, overlay_id)
        if self.behavior in (Behavior.DROP_RELAY, Behavior.CRASH):
            return
        overlay = self.overlays.get(overlay_id)
        origin = self._ack_origin.get(key)
        if overlay is None or origin is None:
            return
        covered = frozenset(self._ack_covered.get(key, set()) | {self.node_id})
        if self._ack_sent.get(key) == covered:
            return
        self._ack_sent[key] = covered
        self._ack_flushed.add(key)
        self._trace(ActivityKind.ACKED, tx_id, overlay_id)
        body = (tx_id, overlay_id, covered)
        message = Message(ACK_KIND, body, 48 + 8 * len(covered))
        if overlay.is_entry(self.node_id):
            if origin == self.node_id:
                self.ack_confirmations.setdefault(tx_id, set()).update(covered)
            else:
                self.send(origin, message)
        else:
            for predecessor in overlay.predecessors.get(self.node_id, ()):
                self.send(predecessor, message)

    def _on_ack(self, sender: int, body: tuple[int, int, frozenset[int]]) -> None:
        tx_id, overlay_id, covered = body
        overlay = self.overlays.get(overlay_id)
        if overlay is None:
            return
        # The origin receives the final, entry-point-aggregated reports.
        if tx_id in self._my_tx_ids:
            if sender in overlay.entry_points:
                self.ack_confirmations.setdefault(tx_id, set()).update(covered)
            return
        # Relays only accept acks from their own overlay successors.
        if sender not in overlay.successors.get(self.node_id, ()):
            self.monitor.flag(
                ViolationKind.ILLEGITIMATE_PREDECESSOR,
                sender,
                self.now,
                f"ack from non-successor in overlay {overlay_id}",
            )
            return
        key = (tx_id, overlay_id)
        state = self._ack_covered.setdefault(key, set())
        state.update(covered)
        state.add(sender)
        # Flush when the whole successor set reported, or push an
        # incremental update if we already reported once.
        if set(overlay.successors[self.node_id]) <= state or key in self._ack_flushed:
            self._flush_ack(tx_id, overlay_id)

    def _deliver_locally(
        self,
        tx: Transaction,
        sender: int | None = None,
        **attrs: object,
    ) -> None:
        """Record *tx* in the mempool; fresh remote arrivals emit ``tx.deliver``.

        *sender* is the immediate predecessor the transaction arrived from
        (None for the origin's own copy), which is the parent edge the
        dissemination-tree reconstruction in :mod:`repro.obs.analysis` reads.
        """

        if self.mempool.add(tx, self.now):
            self.network.stats.record_delivery(tx.tx_id, self.node_id, self.now)
            if self._obs is not None:
                self._obs.metrics.counter("mempool.insertions").inc()
                self._obs.metrics.gauge("mempool.depth.max").track_max(
                    len(self.mempool)
                )
                if sender is not None and sender != self.node_id:
                    self._obs.event(
                        "tx.deliver",
                        tx_id=tx.tx_id,
                        node=self.node_id,
                        sender=sender,
                        **attrs,
                    )
            if self.observe_hook is not None:
                self.observe_hook(self, tx)

    # ------------------------------------------------------------------
    # Gossip fallback (§VII-A)
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        if not self.config.gossip_fallback_enabled:
            return
        # Stagger the first round to avoid a synchronized burst.  The loop is
        # scheduled even for crashed nodes: each round no-ops while the node
        # is down (see _gossip_round), so a chaos recovery flips the node
        # straight back into the reconciliation cadence without rewiring.
        first = self.config.gossip_fallback_delay_ms * (1 + self.rng.random())
        self.schedule(first, self._gossip_round)

    def _gossip_round(self) -> None:
        if self.behavior is Behavior.CRASH:
            # Down — keep the cadence ticking but touch nothing (no sends, no
            # rng draws), so honest nodes' random streams are unaffected.
            self.schedule(self.config.gossip_period_ms, self._gossip_round)
            return
        peers = [n for n in self.network.node_ids() if n != self.node_id]
        fanout = min(self.config.gossip_fanout, len(peers))
        if fanout:
            known = self.mempool.known_ids()
            size = _DIGEST_BASE_BYTES + len(known)
            for peer in self.rng.sample(peers, fanout):
                self.send(peer, Message(GOSSIP_DIGEST_KIND, known, size))
        self.schedule(self.config.gossip_period_ms, self._gossip_round)

    def _on_gossip_digest(self, sender: int, known_ids: tuple[int, ...]) -> None:
        missing = self.mempool.absent_locally(known_ids)
        if missing and self.behavior is not Behavior.DROP_RELAY:
            size = _DIGEST_BASE_BYTES + 8 * len(missing)
            self.send(sender, Message(GOSSIP_REQUEST_KIND, tuple(missing), size))
        # Symmetric push: offer what the peer lacks.
        extra = self.mempool.missing_from(known_ids)
        if extra and self.behavior is not Behavior.DROP_RELAY:
            txs = [self.mempool.get(tx_id) for tx_id in extra]
            txs = [tx for tx in txs if tx is not None]
            if txs:
                size = sum(tx.size_bytes for tx in txs)
                self.send(sender, Message(GOSSIP_TXS_KIND, tuple(txs), size,
                                          tx_id=txs[0].tx_id if len(txs) == 1 else None))

    def _on_gossip_request(self, sender: int, tx_ids: tuple[int, ...]) -> None:
        if self.behavior is Behavior.DROP_RELAY:
            return
        txs = [self.mempool.get(tx_id) for tx_id in tx_ids]
        txs = [tx for tx in txs if tx is not None]
        if txs:
            size = sum(tx.size_bytes for tx in txs)
            self.send(sender, Message(GOSSIP_TXS_KIND, tuple(txs), size,
                                      tx_id=txs[0].tx_id if len(txs) == 1 else None))

    def _on_gossip_txs(self, sender: int, txs: tuple[Transaction, ...]) -> None:
        for tx in txs:
            self._deliver_locally(tx, sender=sender, via="gossip")


class HermesSystem(Deployment):
    """Builds and owns a complete HERMES deployment on one simulator."""

    # Subclasses may substitute an extended node implementation (e.g. the
    # erasure-coded batching node of repro.core.batching).
    node_class: type[HermesNode] = HermesNode

    def __init__(
        self,
        physical: PhysicalNetwork,
        config: HermesConfig | None = None,
        fault_plan: FaultPlan | None = None,
        backend: CryptoBackend | None = None,
        overlays: Sequence[Overlay] | None = None,
        observe_hook: Callable[[HermesNode, Transaction], None] | None = None,
        optimize_overlays: bool = True,
        seed: int = 0,
        obs: Observability | None = None,
    ) -> None:
        self.physical = physical
        self.config = config if config is not None else HermesConfig()
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan.honest()
        self.backend = backend if backend is not None else FastCryptoBackend(seed)
        self.simulator = Simulator()
        self.obs = obs
        self.network = Network(self.simulator, physical, seed=seed, obs=obs)
        self.violation_log = ViolationLog()
        self.activity_trace = ActivityTrace(enabled=self.config.tracing_enabled)

        node_ids = physical.nodes()
        if len(node_ids) < self.config.committee_size:
            raise ConfigurationError(
                f"{len(node_ids)} nodes cannot host a committee of "
                f"{self.config.committee_size}"
            )
        self.committee = self._select_committee(node_ids)
        self.backend.setup_committee(self.committee, self.config.committee_threshold)
        for node_id in node_ids:
            self.backend.register_node(node_id)

        if overlays is None:
            overlays, self.rank_tracker = build_overlay_family(
                physical,
                f=self.config.f,
                k=self.config.num_overlays,
                optimize=optimize_overlays,
                seed=seed,
            )
        else:
            overlays = list(overlays)
            self.rank_tracker = None
        if len(overlays) != self.config.num_overlays:
            raise ConfigurationError(
                f"expected {self.config.num_overlays} overlays, got {len(overlays)}"
            )
        self.overlays = overlays
        self.certificates = certify_overlays(overlays, self.backend, self.committee)

        # Verify + decode each certificate once and share the result across
        # all N nodes (byte-identical to every node doing it itself, since
        # both steps are deterministic; nodes never mutate these objects).
        # Without this, construction is O(N · k · overlay size) — the single
        # largest setup cost at N = 10,000.
        decoded: dict[int, Overlay] = {}
        for certificate in self.certificates:
            if certificate.verify(self.backend):
                overlay = decode_overlay(certificate.encoded)
                decoded[overlay.overlay_id] = overlay

        self.nodes: dict[int, HermesNode] = {}
        for node_id in node_ids:
            self.nodes[node_id] = self.node_class(
                node_id,
                self.network,
                self.config,
                self.backend,
                self.committee,
                self.certificates,
                self.violation_log,
                behavior=self.fault_plan.behavior_of(node_id),
                observe_hook=observe_hook,
                trace=self.activity_trace,
                decoded_overlays=decoded,
            )

    def _select_committee(self, node_ids: list[int]) -> list[int]:
        """Pick a low-diameter committee around the most latency-central node.

        Any ``3f+1`` subset is correct; we pick the most central node and its
        ``3f`` nearest neighbours so the committee-internal echo/ready rounds
        of the TRS run at intra-region latency.  This matches the paper's
        observation that TRS overhead "slightly increases the average latency"
        — a geographically scattered committee would instead add several WAN
        round-trips to every message.
        """

        sample = node_ids[:: max(1, len(node_ids) // 16)] or node_ids
        # The pairs centrality reads: drawn ahead by forked helpers when large.
        self.physical.fill_pairs((node, sample) for node in node_ids)

        def centrality(node: int) -> float:
            return sum(self.physical.transport_latency(node, other) for other in sample)

        center = min(node_ids, key=lambda n: (centrality(n), n))
        # node_ids is ascending, so nearest's input-order ties are id ties.
        return [center] + self.physical.nearest(
            center, [n for n in node_ids if n != center], self.config.committee_size - 1
        )

    # -- driving ----------------------------------------------------------

    def start(self) -> None:
        self.network.start_all()

    def submit(self, origin: int, tx: Transaction) -> None:
        self.nodes[origin].submit_transaction(tx)

    def run(self, until_ms: float | None = None) -> float:
        return self.simulator.run(until_ms)

    @property
    def stats(self):
        return self.network.stats

    def honest_node_ids(self) -> list[int]:
        return self.fault_plan.honest_nodes(self.physical.nodes())

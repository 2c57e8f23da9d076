"""The network layer binding nodes, links, latency, loss and accounting.

Two connectivity views coexist, matching the paper's setup:

* the *physical graph* (``PhysicalNetwork``) with labeled links — overlay
  construction runs on this;
* the *transport*, which lets any node message any other (the internet under
  a P2P system).  Pairs joined by a physical link use the link's base latency;
  other pairs get a per-pair latency drawn once from the regional model and
  cached, so repeated sends see a stable RTT like a real TCP path would.

Protocols implement :class:`ProtocolNode` and interact with the world only
through it: ``send`` (or ``network.send_many`` for a fan-out), ``schedule``
and the ``on_start``/``on_message`` hooks.
"""

from __future__ import annotations

import random
from heapq import heappush
from math import exp as _exp
from typing import TYPE_CHECKING, Callable, Iterable

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> net.stats)
    from ..chaos.disruption import LinkDisruptor
    from ..load.capacity import CapacityModel
    from ..obs import Observability
from ..utils.rng import derive_rng
from .channel import LossModel
from .events import ENVELOPE_OVERHEAD_BYTES, Message
from .sampling import BlockSampler
from .simulator import Simulator
from .stats import NetworkStats
from .topology import PhysicalNetwork

__all__ = ["Deployment", "Network", "ProtocolNode"]

# Jitter normals drawn per vectorized block on a lossless network.
JITTER_BLOCK = 4096


class Network:
    """Routes messages between registered protocol nodes."""

    def __init__(
        self,
        simulator: Simulator,
        physical: PhysicalNetwork,
        loss_model: LossModel | None = None,
        processing_delay_ms: float = 0.05,
        service_time_ms: float = 0.0,
        seed: int = 0,
        obs: "Observability | None" = None,
    ) -> None:
        self.simulator = simulator
        # Observability is strictly read-only: it never draws randomness or
        # schedules events, so obs-on and obs-off runs replay identically.
        self.obs = obs
        if obs is not None:
            obs.attach(simulator)
        self.physical = physical
        self.loss_model = loss_model if loss_model is not None else LossModel()
        self.processing_delay_ms = processing_delay_ms
        # When positive, each node handles messages sequentially, one every
        # service_time_ms — this makes targeted overload attacks (flooding a
        # node to delay its relaying) observable in the simulation.
        self.service_time_ms = service_time_ms
        self._busy_until: dict[int, float] = {}
        self.stats = NetworkStats()
        self.seed = seed
        self._nodes: dict[int, "ProtocolNode"] = {}
        self._rng = derive_rng(seed, "network")
        # Buffered standard normals of the jitter stream (see send_many) and a
        # per-pair base-latency cache keyed by PhysicalNetwork.version so
        # topology churn invalidates it.
        self._sampler = BlockSampler(self._rng)
        self._jitter_block: list[float] = []
        self._jitter_pos = 0
        self._latency_cache: dict[tuple[int, int], float] = {}
        self._latency_version = physical.version
        # Chaos hooks (repro.chaos): an optional link disruptor consulted per
        # transmission (partitions, latency spikes, loss windows) and an
        # optional send listener used by the invariant monitors to witness
        # forwarding *before* loss is sampled.  Both default to None and cost
        # nothing when absent.
        self.disruptor: "LinkDisruptor | None" = None
        # Load hook (repro.load): an optional per-node capacity model giving
        # links finite rates and bounded egress queues.  None (the default)
        # keeps the infinite-capacity transport, byte-identical to before the
        # hook existed; the model itself draws no randomness, so enabled runs
        # replay deterministically too.
        self.capacity: "CapacityModel | None" = None
        # Sharding hook (repro.sharding): which shard this network belongs to.
        # Purely descriptive — per-shard capacity/stats books key on it; None
        # (the default) means an unsharded deployment.
        self.shard_id: int | None = None
        self.on_send: Callable[[int, int, Message, float], None] | None = None
        # Fires at delivery time, just before the receiver processes the
        # message — i.e. only for transmissions that survived loss and
        # disruption.  on_send witnesses intent; on_receive witnesses arrival.
        self.on_receive: Callable[[int, int, Message, float], None] | None = None

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------

    def register(self, node: "ProtocolNode") -> None:
        if node.node_id in self._nodes:
            raise SimulationError(f"node {node.node_id} registered twice")
        self._nodes[node.node_id] = node

    def node(self, node_id: int) -> "ProtocolNode":
        try:
            return self._nodes[node_id]
        except KeyError:
            raise SimulationError(f"unknown node {node_id}") from None

    def node_ids(self) -> list[int]:
        return sorted(self._nodes)

    def close(self) -> None:
        """Forget the registered nodes and every per-run hook (idempotent).

        Nodes point back at their network, so the registry is a reference
        cycle; hooks are usually bound methods of per-run objects that hold
        the network too.  Statistics, the physical network and the latency
        cache stay — a closed network can still be read, not driven.
        """

        self._nodes.clear()
        self.on_send = None
        self.on_receive = None
        self.disruptor = None
        self.capacity = None

    def start_all(self) -> None:
        """Invoke ``on_start`` on every registered node at time zero."""

        for node_id in self.node_ids():
            node = self._nodes[node_id]
            self.simulator.schedule(0.0, node.on_start)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def base_latency(self, src: int, dst: int) -> float:
        """Stable one-way latency between *src* and *dst* in milliseconds.

        Delegates to :meth:`PhysicalNetwork.transport_latency` so overlay
        optimization and actual message delays use identical numbers.  Nodes
        outside the physical membership (e.g. external attack traffic
        generators) fall back to the inter-regional mean.
        """

        try:
            return self.physical.transport_latency(src, dst)
        except KeyError:
            return self.physical.latency_model.parameters.inter_mean

    def send(self, src: int, dst: int, message: Message) -> None:
        """Deliver *message* from *src* to *dst*: :meth:`send_many` to one."""

        self.send_many(src, (dst,), message)

    def send_many(self, src: int, dsts: Iterable[int], message: Message) -> None:
        """Transmit one *message* from *src* to each of *dsts*, in order.

        The kernel's only transmission body.  Per destination: ``on_send``
        witnesses the intent, both endpoints pay the wire bytes, then egress
        capacity, the disruptor and loss may each drop it (counted only);
        otherwise ``receiver.on_message(src, message)`` goes straight onto
        the event list after base latency x disruption x jitter + processing
        (+ capacity and service queueing).  Hooks, settings and stats dicts
        are read once per fan-out.  Self is not skipped: callers filter.
        """

        # Message.wire_size() and NetworkStats.record_send(), inlined.
        wire = message.size_bytes + ENVELOPE_OVERHEAD_BYTES
        nodes = self._nodes
        simulator = self.simulator
        now = simulator.now
        # The simulator's own event list and tie-break counter: pushing here
        # is exactly Simulator.schedule_call, minus its frame.
        queue, sequence = simulator._queue, simulator._sequence
        stats = self.stats
        bytes_sent, messages_sent = stats.bytes_sent, stats.messages_sent
        bytes_received, messages_received = stats.bytes_received, stats.messages_received
        on_send, on_receive = self.on_send, self.on_receive
        obs, capacity, disruptor = self.obs, self.capacity, self.disruptor
        loss = self.loss_model.loss_probability
        sigma = self.loss_model.jitter_sigma
        proc, service = self.processing_delay_ms, self.service_time_ms
        if self._latency_version != self.physical.version:
            self._latency_cache.clear()
            self._latency_version = self.physical.version
        latency_cache = self._latency_cache
        for dst in dsts:
            receiver = nodes.get(dst)
            if receiver is None:
                raise SimulationError(f"send to unknown node {dst}")
            if on_send is not None:
                on_send(src, dst, message, now)
            bytes_sent[src] += wire
            messages_sent[src] += 1
            bytes_received[dst] += wire
            messages_received[dst] += 1
            if obs is not None:
                obs.metrics.counter("net.messages.sent", kind=message.kind).inc()
                obs.metrics.counter("net.bytes.sent", kind=message.kind).inc(wire)
            # Egress capacity runs before the wire: an overflowing uplink
            # queue drops the message at the sender, before loss or
            # disruption can act.
            egress = None
            if capacity is not None:
                egress = capacity.admit_egress(src, wire, now)
                if egress.dropped:
                    stats.record_capacity_drop(src, wire)
                    if obs is not None:
                        obs.metrics.counter("net.messages.capacity_dropped",
                                            kind=message.kind).inc()
                        obs.event("net.capacity_drop", src=src, dst=dst, kind=message.kind,
                                  bytes=wire, tx_id=message.tx_id)
                    continue
            latency_factor = 1.0
            if disruptor is not None:
                verdict = disruptor.apply(src, dst, now)
                if verdict.dropped:
                    stats.record_drop(wire)
                    if obs is not None:
                        obs.metrics.counter("net.messages.disrupted", kind=message.kind).inc()
                    continue
                latency_factor = verdict.latency_factor
            if loss > 0:
                # LossModel.drops and .jitter_factor, interleaved on one rng.
                if self._rng.random() < loss:
                    stats.record_drop(wire)
                    if obs is not None:
                        obs.metrics.counter("net.messages.dropped", kind=message.kind).inc()
                        obs.event("net.drop", src=src, dst=dst, kind=message.kind,
                                  bytes=wire, tx_id=message.tx_id)
                    continue
                jitter = self._rng.lognormvariate(0.0, sigma) if sigma else 1.0
            elif sigma:
                # Lossless: the rng feeds jitter alone, so its normals are
                # drawn a block ahead; exp(z * sigma) is bitwise what
                # lognormvariate(0.0, sigma) returns for the same uniforms.
                # Position and block live on self: a hook may send mid-loop.
                pos, block = self._jitter_pos, self._jitter_block
                if pos == len(block):
                    block = self._jitter_block = self._sampler.normals(0.0, 1.0, JITTER_BLOCK)
                    pos = 0
                self._jitter_pos = pos + 1
                jitter = _exp(block[pos] * sigma)
            else:
                jitter = 1.0
            base = latency_cache.get((src, dst))
            if base is None:
                base = latency_cache[(src, dst)] = self.base_latency(src, dst)
            link_ms = base * latency_factor * jitter
            delay = link_ms + proc
            queue_ms = 0.0
            if egress is not None:
                # Serialization: propagation starts when the last byte leaves
                # the uplink, and delivery completes once the receiver's
                # downlink has drained the message.
                delay = capacity.ingress_finish(dst, wire, egress.finish_ms + delay) - now
                queue_ms += egress.queued_ms
                if obs is not None:
                    obs.metrics.histogram("net.capacity.queue_ms").observe(egress.queued_ms)
            if service > 0:
                arrival = now + delay
                start = max(arrival, self._busy_until.get(dst, 0.0))
                finish = self._busy_until[dst] = start + service
                delay = finish - now
                queue_ms += start - arrival
                if obs is not None:
                    obs.metrics.histogram("net.service.queue_ms").observe(start - arrival)
            if obs is not None:
                # One record per scheduled transmission, decomposing its delay
                # so the offline critical-path analysis can attribute every
                # hop:  delay = queue + serialization + link + proc  (exactly).
                # Serialization is the residual — with the capacity model off
                # and service_time zero it is 0.0 by construction, so the
                # identity holds in every configuration.
                obs.event(
                    "net.send", src=src, dst=dst, kind=message.kind, bytes=wire,
                    msg_id=message.msg_id, tx_id=message.tx_id,
                    overlay_id=message.overlay_id, queue_ms=queue_ms,
                    serialization_ms=delay - queue_ms - link_ms - proc,
                    link_ms=link_ms, proc_ms=proc, delay_ms=delay, deliver_ms=now + delay,
                )
            if on_receive is None:
                heappush(queue, (now + delay, next(sequence), receiver.on_message,
                                 (src, message)))
            else:
                heappush(queue, (now + delay, next(sequence), self._deliver_tapped,
                                 (receiver, src, dst, message)))

    def _deliver_tapped(self, receiver: "ProtocolNode", src: int, dst: int,
                        message: Message) -> None:
        """A delivery while an ``on_receive`` tap is installed: tap, then handle."""

        if self.on_receive is not None:
            self.on_receive(src, dst, message, self.simulator.now)
        receiver.on_message(src, message)


class ProtocolNode:
    """Base class for all protocol actors in the simulation.

    Subclasses override :meth:`on_start` and :meth:`on_message`; Byzantine
    variants override :meth:`on_message` or individual handlers.  The
    transport calls ``on_message`` directly at delivery time, and a node
    hands itself a message by calling it too.
    """

    def __init__(self, node_id: int, network: Network) -> None:
        self.node_id = node_id
        self.network = network
        self.rng: random.Random = derive_rng(network.seed, "node", node_id)
        network.register(self)

    # -- conveniences ---------------------------------------------------

    @property
    def now(self) -> float:
        return self.network.simulator.now

    def send(self, dst: int, message: Message) -> None:
        self.network.send_many(self.node_id, (dst,), message)

    def schedule(self, delay_ms: float, callback: Callable[[], None]) -> None:
        self.network.simulator.schedule(delay_ms, callback)

    # -- hooks ----------------------------------------------------------

    def on_start(self) -> None:
        """Called once when the simulation starts."""

    def on_message(self, sender: int, message: Message) -> None:
        """Handle a delivered message.  Subclasses must override."""

        raise NotImplementedError

    def close(self) -> None:
        """Drop references that lead from this node's state back to itself.

        Called by :meth:`Deployment.close`; must be idempotent.  Nodes whose
        components or hooks hold the node (or its system) override this.
        """


class Deployment:
    """The end of life every protocol system shares: ``close()`` and ``with``.

    A system owns a :class:`~repro.net.simulator.Simulator`, a
    :class:`Network` and a ``nodes`` map, and those point at each other —
    nodes at the network, the network at the nodes, pending events at nodes'
    bound methods.  Left alone, a finished run is cyclic garbage that waits
    for a generation-2 collection.  :meth:`close` cuts every one of those
    links, so reference counting frees the deployment as soon as the caller
    drops it.  Read results (``stats``, mempools, logs) before closing; a
    closed system can be inspected but not driven.
    """

    simulator: Simulator
    network: Network
    nodes: dict

    def close(self) -> None:
        """Release the deployment's reference cycles (idempotent)."""

        self.simulator.clear()
        self.network.close()
        for node in self.nodes.values():
            node.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

"""The network layer binding nodes, links, latency, loss and accounting.

Two connectivity views coexist, matching the paper's setup:

* the *physical graph* (``PhysicalNetwork``) with labeled links — overlay
  construction runs on this;
* the *transport*, which lets any node message any other (the internet under
  a P2P system).  Pairs joined by a physical link use the link's base latency;
  other pairs get a per-pair latency drawn once from the regional model and
  cached, so repeated sends see a stable RTT like a real TCP path would.

Protocols implement :class:`ProtocolNode` and interact with the world only
through it: ``send``, ``schedule`` and the ``on_start``/``on_message`` hooks.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Iterable

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> net.stats)
    from ..chaos.disruption import LinkDisruptor
    from ..load.capacity import CapacityModel
    from ..obs import Observability
from ..utils.rng import derive_rng
from .channel import JitterStream, LossModel
from .events import ENVELOPE_OVERHEAD_BYTES, Message
from .simulator import Simulator
from .stats import NetworkStats
from .topology import PhysicalNetwork

__all__ = ["Deployment", "Network", "ProtocolNode"]


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
        # Batched view of the jitter stream (byte-identical to per-send scalar
        # draws, see JitterStream) and a per-pair base-latency cache keyed by
        # PhysicalNetwork.version so topology churn invalidates it.
        self._jitter = JitterStream(self._rng)
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
        """Deliver *message* from *src* to *dst* after link latency + jitter.

        Loss is sampled per transmission; dropped messages are only counted in
        the drop statistic (the sender still paid the bytes).
        """

        receiver = self._nodes.get(dst)
        if receiver is None:
            raise SimulationError(f"send to unknown node {dst}")
        # Message.wire_size() and NetworkStats.record_send(), inlined: this
        # method runs once per transmission and the two call frames were
        # measurable at paper scale.  Keep in sync with both definitions.
        wire = message.size_bytes + ENVELOPE_OVERHEAD_BYTES
        simulator = self.simulator
        now = simulator.now
        if self.on_send is not None:
            self.on_send(src, dst, message, now)
        stats = self.stats
        stats.bytes_sent[src] += wire
        stats.messages_sent[src] += 1
        stats.bytes_received[dst] += wire
        stats.messages_received[dst] += 1
        obs = self.obs
        if obs is not None:
            obs.metrics.counter("net.messages.sent", kind=message.kind).inc()
            obs.metrics.counter("net.bytes.sent", kind=message.kind).inc(wire)
        # Egress capacity runs before the wire: an overflowing uplink queue
        # drops the message at the sender, before loss or disruption can act.
        capacity = self.capacity
        egress = None
        if capacity is not None:
            egress = capacity.admit_egress(src, wire, now)
            if egress.dropped:
                self.stats.record_capacity_drop(src, wire)
                if obs is not None:
                    obs.metrics.counter(
                        "net.messages.capacity_dropped", kind=message.kind
                    ).inc()
                    obs.event(
                        "net.capacity_drop",
                        src=src,
                        dst=dst,
                        kind=message.kind,
                        bytes=wire,
                        tx_id=message.tx_id,
                    )
                return
        latency_factor = 1.0
        if self.disruptor is not None:
            verdict = self.disruptor.apply(src, dst, now)
            if verdict.dropped:
                self.stats.record_drop(wire)
                if obs is not None:
                    obs.metrics.counter(
                        "net.messages.disrupted", kind=message.kind
                    ).inc()
                return
            latency_factor = verdict.latency_factor
        loss_model = self.loss_model
        if loss_model.loss_probability > 0 and loss_model.drops(self._rng):
            self.stats.record_drop(wire)
            if obs is not None:
                obs.metrics.counter("net.messages.dropped", kind=message.kind).inc()
                obs.event(
                    "net.drop",
                    src=src,
                    dst=dst,
                    kind=message.kind,
                    bytes=wire,
                    tx_id=message.tx_id,
                )
            return
        if self._latency_version != self.physical.version:
            self._latency_cache.clear()
            self._latency_version = self.physical.version
        base = self._latency_cache.get((src, dst))
        if base is None:
            base = self.base_latency(src, dst)
            self._latency_cache[(src, dst)] = base
        link_ms = base * latency_factor * self._jitter.factor(loss_model)
        delay = link_ms + self.processing_delay_ms
        queue_ms = 0.0
        if capacity is not None and egress is not None:
            # Serialization: propagation starts when the last byte leaves the
            # uplink, and delivery completes once the receiver's downlink has
            # drained the message.
            finish = capacity.ingress_finish(dst, wire, egress.finish_ms + delay)
            delay = finish - now
            queue_ms += egress.queued_ms
            if obs is not None:
                obs.metrics.histogram("net.capacity.queue_ms").observe(
                    egress.queued_ms
                )
        if self.service_time_ms > 0:
            arrival = now + delay
            start = max(arrival, self._busy_until.get(dst, 0.0))
            finish = start + self.service_time_ms
            self._busy_until[dst] = finish
            delay = finish - now
            queue_ms += start - arrival
            if obs is not None:
                obs.metrics.histogram("net.service.queue_ms").observe(start - arrival)
        if obs is not None:
            # One record per scheduled transmission, decomposing its delay so
            # the offline critical-path analysis can attribute every hop:
            #   delay = queue + serialization + link + proc      (exactly)
            # Serialization is the residual — with the capacity model off and
            # service_time zero it is 0.0 by construction, so the identity
            # holds in every configuration.
            obs.event(
                "net.send",
                src=src,
                dst=dst,
                kind=message.kind,
                bytes=wire,
                msg_id=message.msg_id,
                tx_id=message.tx_id,
                overlay_id=message.overlay_id,
                queue_ms=queue_ms,
                serialization_ms=delay - queue_ms - link_ms - self.processing_delay_ms,
                link_ms=link_ms,
                proc_ms=self.processing_delay_ms,
                delay_ms=delay,
                deliver_ms=now + delay,
            )
        if self.on_receive is None:
            # Flyweight scheduling: no closure allocation on the hot path.
            simulator.schedule_call(delay, receiver.receive, src, message)
        else:

            def deliver() -> None:
                if self.on_receive is not None:
                    self.on_receive(src, dst, message, self.simulator.now)
                receiver.receive(src, message)

            simulator.schedule(delay, deliver)

    def multicast(self, src: int, dsts: Iterable[int], message: Message) -> None:
        """Send *message* to every destination (self is skipped)."""

        for dst in dsts:
            if dst != src:
                self.send(src, dst, message)


class ProtocolNode:
    """Base class for all protocol actors in the simulation.

    Subclasses override :meth:`on_start` and :meth:`on_message`; Byzantine
    variants typically override :meth:`receive` or individual handlers.
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
        self.network.send(self.node_id, dst, message)

    def multicast(self, dsts: Iterable[int], message: Message) -> None:
        self.network.multicast(self.node_id, dsts, message)

    def schedule(self, delay_ms: float, callback: Callable[[], None]) -> None:
        self.network.simulator.schedule(delay_ms, callback)

    # -- hooks ----------------------------------------------------------

    def on_start(self) -> None:
        """Called once when the simulation starts."""

    def receive(self, sender: int, message: Message) -> None:
        """Transport-level entry point; dispatches to :meth:`on_message`."""

        self.on_message(sender, message)

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

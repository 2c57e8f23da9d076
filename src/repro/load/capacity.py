"""Per-node link capacity: serialization delay and bounded egress queues.

The default transport charges bytes to :class:`~repro.net.stats.NetworkStats`
but schedules every transmission with pure propagation delay — links have
infinite capacity, so offered load can never saturate anything.  This module
adds the missing physics as an opt-in hook, in the same style as the chaos
:class:`~repro.chaos.disruption.LinkDisruptor`:

* every node owns an **uplink** (egress) and a **downlink** (ingress), each a
  FIFO server with a configured rate in KB/s; a message of ``w`` wire bytes
  occupies a link for ``w / rate`` milliseconds (its serialization delay) and
  later messages queue behind it;
* the egress queue is **bounded**: when the backlog (bytes not yet
  serialized) would exceed ``queue_bytes``, the transmission is dropped and
  the overflow is accounted explicitly — both here and in
  :meth:`NetworkStats.record_capacity_drop <repro.net.stats.NetworkStats>`;
* the downlink models ingress serialization only (no bound): real NICs drop
  on the sender's queue first, and a second bound would double-count.

Install with ``network.capacity = CapacityModel(CapacityConfig(...))``.  The
attribute defaults to ``None`` and the model draws **no randomness**, so
every capacity-disabled run is byte-identical to pre-capacity behavior and
enabled runs replay deterministically from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..utils.validation import require_positive

__all__ = ["CapacityConfig", "CapacityModel", "EgressVerdict"]


@dataclass(frozen=True, slots=True)
class CapacityConfig:
    """Link rates (KB/s) and the egress queue bound (bytes) for every node.

    The defaults model a modest residential peer: 1 MB/s up, 4 MB/s down,
    with a 256 KiB egress buffer — far below data-center links on purpose,
    so saturation experiments reach the knee at simulatable rates.
    """

    uplink_kb_per_s: float = 1024.0
    downlink_kb_per_s: float = 4096.0
    queue_bytes: int = 256 * 1024

    def __post_init__(self) -> None:
        require_positive(self.uplink_kb_per_s, "uplink_kb_per_s")
        require_positive(self.downlink_kb_per_s, "downlink_kb_per_s")
        require_positive(self.queue_bytes, "queue_bytes")

    @property
    def uplink_bytes_per_ms(self) -> float:
        return self.uplink_kb_per_s * 1024.0 / 1000.0

    @property
    def downlink_bytes_per_ms(self) -> float:
        return self.downlink_kb_per_s * 1024.0 / 1000.0


@dataclass(frozen=True, slots=True)
class EgressVerdict:
    """What happened to one transmission at the sender's uplink."""

    dropped: bool
    #: Simulation time at which the last byte leaves the sender (propagation
    #: starts here).  Meaningless when dropped.
    finish_ms: float = 0.0
    #: Time the message spent waiting behind earlier traffic (excludes its
    #: own serialization delay).
    queued_ms: float = 0.0


_DROPPED = EgressVerdict(dropped=True)


class CapacityModel:
    """Tracks every node's link occupancy and answers per-transmission.

    The two-phase API mirrors the physical path: :meth:`admit_egress` runs at
    send time (queue bound, uplink serialization), :meth:`ingress_finish`
    places the message on the receiver's downlink once propagation delay is
    known.  Both phases reserve link time eagerly at send time — standard
    DES practice (the transport's ``service_time_ms`` does the same), and
    what keeps the model deterministic and O(1) per message.
    """

    def __init__(self, config: CapacityConfig | None = None) -> None:
        self.config = config if config is not None else CapacityConfig()
        # The config is frozen: resolve the rates once, not per message.
        self._uplink_bytes_per_ms = self.config.uplink_bytes_per_ms
        self._downlink_bytes_per_ms = self.config.downlink_bytes_per_ms
        self._uplink_busy_until: dict[int, float] = {}
        self._downlink_busy_until: dict[int, float] = {}
        # Deterministic counters for reports and the load driver's samples.
        self.drops = 0
        self.drops_by_node: dict[int, int] = {}
        self.max_backlog_bytes: float = 0.0

    # -- per-transmission evaluation -------------------------------------

    def backlog_bytes(self, node: int, now: float) -> float:
        """Bytes sitting in *node*'s egress queue at time *now*."""

        busy = self._uplink_busy_until.get(node, 0.0)
        return max(0.0, busy - now) * self._uplink_bytes_per_ms

    def admit_egress(self, src: int, wire_bytes: int, now: float) -> EgressVerdict:
        """Queue one message on *src*'s uplink, or drop it on overflow."""

        rate = self._uplink_bytes_per_ms
        busy = self._uplink_busy_until.get(src, 0.0)
        backlog = max(0.0, busy - now) * rate  # == backlog_bytes(src, now)
        if backlog + wire_bytes > self.config.queue_bytes:
            self.drops += 1
            self.drops_by_node[src] = self.drops_by_node.get(src, 0) + 1
            return _DROPPED
        if backlog + wire_bytes > self.max_backlog_bytes:
            self.max_backlog_bytes = backlog + wire_bytes
        start = max(now, busy)
        finish = start + wire_bytes / rate
        self._uplink_busy_until[src] = finish
        return EgressVerdict(dropped=False, finish_ms=finish, queued_ms=start - now)

    def ingress_finish(self, dst: int, wire_bytes: int, arrival_ms: float) -> float:
        """Serialize one message on *dst*'s downlink; returns delivery time."""

        start = max(arrival_ms, self._downlink_busy_until.get(dst, 0.0))
        finish = start + wire_bytes / self._downlink_bytes_per_ms
        self._downlink_busy_until[dst] = finish
        return finish

    # -- observation ------------------------------------------------------

    def total_backlog_bytes(self, now: float) -> float:
        """Sum of every node's egress backlog — the driver's queue gauge."""

        return sum(
            self.backlog_bytes(node, now) for node in self._uplink_busy_until
        )

    def reset(self) -> None:
        """Forget all link occupancy and counters (between repetitions)."""

        self._uplink_busy_until.clear()
        self._downlink_busy_until.clear()
        self.drops = 0
        self.drops_by_node = {}
        self.max_backlog_bytes = 0.0

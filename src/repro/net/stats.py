"""Measurement: bandwidth accounting and latency statistics.

Every send is charged to its sender (bytes and messages out), and protocols
record delivery times per disseminated item so the experiment harness can
compute the paper's metrics: average latency, 5th–95th percentile spread
(Fig. 3a), per-node bandwidth in KB/min (Fig. 3b), and delivery probability
(Fig. 5b).
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterable, Sequence

__all__ = [
    "DeliveryTimes",
    "NetworkStats",
    "LatencySummary",
    "percentile",
    "summarize_latencies",
]


def interpolate(low: float, high: float, weight: float) -> float:
    """The point *weight* of the way from *low* to *high* (``low <= high``).

    The one interpolation step behind every percentile in the package — the
    exact :func:`percentile` and :class:`~repro.net.sketch.QuantileSketch`
    alike — so the two cannot drift apart in the last bit.

    >>> interpolate(3.25, 3.25, 0.15)  # 3.2499999999999996 unclamped
    3.25
    """

    value = low * (1 - weight) + high * weight
    # Clamp 1-ulp float drift so the result always lies within the sample.
    return min(max(value, low), high)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (matching ``numpy.percentile`` default).

    >>> percentile([1.0, 2.0, 3.0, 4.0], 50)
    2.5
    """

    if not values:
        raise ValueError("cannot take a percentile of no values")
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    return interpolate(ordered[low], ordered[high], rank - low)


@dataclass(frozen=True, slots=True)
class LatencySummary:
    """Average and percentile spread of a latency population.

    An *empty* summary (``count == 0``, NaN statistics) represents a run that
    recorded no deliveries — e.g. every transmission was lost, or the horizon
    expired before the first delivery.  Check :attr:`is_empty` before
    comparing statistics; NaN propagates through arithmetic and formats as
    ``nan`` in tables rather than raising mid-experiment.
    """

    count: int
    mean: float
    p5: float
    p50: float
    p95: float

    @classmethod
    def empty(cls) -> "LatencySummary":
        """The summary of zero observations (all statistics NaN).

        >>> LatencySummary.empty().is_empty
        True
        """

        nan = float("nan")
        return cls(count=0, mean=nan, p5=nan, p50=nan, p95=nan)

    @property
    def is_empty(self) -> bool:
        return self.count == 0

    @property
    def spread(self) -> float:
        """The 5th–95th percentile range the paper plots as variability."""

        return self.p95 - self.p5


def summarize_latencies(values: Sequence[float]) -> LatencySummary:
    """Compute the Fig. 3a summary statistics for *values*.

    Unlike :func:`percentile`, an empty population is not an error here: it
    returns :meth:`LatencySummary.empty`, so experiment code that summarizes
    a run with zero recorded deliveries degrades to NaN cells instead of
    crashing after minutes of simulation.
    """

    if not values:
        return LatencySummary.empty()
    return LatencySummary(
        count=len(values),
        mean=sum(values) / len(values),
        p5=percentile(values, 5),
        p50=percentile(values, 50),
        p95=percentile(values, 95),
    )


_NAN_ROW = array("d", [math.nan])


class DeliveryTimes(Mapping):
    """First deliveries of one item: node id -> time (ms), a read-only Mapping
    that iterates in first-delivery order, like the dict it replaces.

    Two flat columns instead of one dict entry and one boxed float per node:
    ``_order`` holds the node ids in first-delivery order and ``_times`` is
    indexed by node id, NaN where the node has no delivery yet.  Only
    :meth:`NetworkStats.record_delivery` writes them.

    >>> stats = NetworkStats()
    >>> for node, ms in ((4, 9.5), (1, 3.0), (4, 12.0)):
    ...     stats.record_delivery("tx", node, ms)
    >>> stats.deliveries["tx"]
    DeliveryTimes({4: 9.5, 1: 3.0})
    """

    __slots__ = ("_order", "_times")

    def __init__(self) -> None:
        self._order = array("q")
        self._times = array("d")

    def get(self, node: int, default=None):
        try:
            time_ms = self._times[node] if node >= 0 else math.nan
        except (IndexError, TypeError):
            return default
        return time_ms if time_ms == time_ms else default

    def __getitem__(self, node: int) -> float:
        time_ms = self.get(node)
        if time_ms is None:
            raise KeyError(node)
        return time_ms

    def __iter__(self):
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def values(self) -> list[float]:
        return list(map(self._times.__getitem__, self._order))

    def items(self) -> list[tuple[int, float]]:
        return list(zip(self._order, self.values()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


@dataclass
class NetworkStats:
    """Mutable counters filled in by the network layer and protocols."""

    bytes_sent: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    messages_sent: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    messages_dropped: int = 0
    # Wire bytes of every dropped transmission (loss, disruption or capacity
    # overflow) — what separates offered bytes from goodput.
    bytes_dropped: int = 0
    # Capacity-induced egress-queue overflows, kept distinct from stochastic
    # loss so saturation reports can attribute drops to the right cause.
    capacity_drops: int = 0
    capacity_dropped_bytes: int = 0
    capacity_drops_by_node: dict[int, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    # item id -> node id -> first delivery time (ms), in delivery order
    deliveries: dict[object, DeliveryTimes] = field(
        default_factory=lambda: defaultdict(DeliveryTimes)
    )
    # item id -> first transmission time of the item payload (ms)
    send_times: dict[object, float] = field(default_factory=dict)
    # item id -> time the application handed the item to the protocol (ms);
    # for HERMES this precedes send_times by the TRS acquisition delay.
    submit_times: dict[object, float] = field(default_factory=dict)

    def record_send(self, sender: int, receiver: int, wire_bytes: int) -> None:
        """Charge one transmission to *sender*; nothing reads a receiver's
        inbound totals, so none are kept."""

        self.bytes_sent[sender] += wire_bytes
        self.messages_sent[sender] += 1

    def record_drop(self, wire_bytes: int = 0) -> None:
        self.messages_dropped += 1
        self.bytes_dropped += wire_bytes

    def record_capacity_drop(self, sender: int, wire_bytes: int) -> None:
        """One egress-queue overflow at *sender* (also counted as a drop)."""

        self.record_drop(wire_bytes)
        self.capacity_drops += 1
        self.capacity_dropped_bytes += wire_bytes
        self.capacity_drops_by_node[sender] += 1

    def record_submission(self, item: object, time_ms: float) -> None:
        """Mark the moment the application submitted *item* to the protocol."""

        self.submit_times.setdefault(item, time_ms)

    def record_dissemination_start(self, item: object, time_ms: float) -> None:
        """Mark the moment *item* (e.g. a transaction id) entered the network.

        This is the paper's latency reference point: the first transmission of
        the item payload itself (for HERMES, after TRS acquisition — the TRS
        request carries only ``H(m)``, not the transaction).
        """

        self.send_times.setdefault(item, time_ms)
        self.submit_times.setdefault(item, time_ms)

    def record_delivery(self, item: object, node: int, time_ms: float) -> None:
        """Record the first delivery of *item* at *node* (later ones ignored)."""

        # Inline, no call but the append: this runs once per (node, item).
        columns = self.deliveries[item]
        times = columns._times
        if node < 0:
            raise ValueError(f"node ids must be non-negative, got {node}")
        try:
            known = times[node]
            if known == known:  # NaN != NaN: not delivered yet
                return
        except IndexError:  # array over-allocates: O(N) to reach node N
            times.extend(_NAN_ROW * (node + 1 - len(times)))
        times[node] = time_ms
        columns._order.append(node)

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------

    def delivery_latencies(self, item: object) -> list[float]:
        """Per-node latency (delivery − send time) for *item*."""

        if item not in self.send_times:
            raise KeyError(f"item {item!r} was never sent")
        start = self.send_times[item]
        # The origin delivers to itself at submission, which may precede the
        # first transmission (HERMES acquires its TRS in between): clamp to 0.
        return [max(0.0, t - start) for t in self.deliveries.get(item, {}).values()]

    def all_delivery_latencies(self) -> list[float]:
        """Latencies across all items and receiving nodes."""

        out: list[float] = []
        for item in self.send_times:
            out.extend(self.delivery_latencies(item))
        return out

    def latency_summary(self) -> LatencySummary:
        return summarize_latencies(self.all_delivery_latencies())

    def setup_overheads(self) -> list[float]:
        """Per-item delay between submission and first payload transmission
        (for HERMES: the TRS acquisition time; zero for the baselines)."""

        return [
            self.send_times[item] - submit
            for item, submit in self.submit_times.items()
            if item in self.send_times
        ]

    def coverage(self, item: object, audience: Iterable[int]) -> float:
        """Fraction of *audience* that received *item* (Fig. 5b robustness)."""

        targets = set(audience)
        if not targets:
            raise ValueError("audience must be non-empty")
        reached = targets & set(self.deliveries.get(item, {}))
        return len(reached) / len(targets)

    def total_bytes(self) -> int:
        return sum(self.bytes_sent.values())

    def bandwidth_kb_per_minute(
        self, duration_ms: float, nodes: Iterable[int] | None = None
    ) -> float:
        """Average per-node bandwidth (sent) in KB/min over *duration_ms*.

        This is the Fig. 3b metric: protocol overhead normalized per node per
        minute of simulated time.
        """

        if duration_ms <= 0:
            raise ValueError(f"duration must be positive, got {duration_ms}")
        if nodes is None:
            population: Mapping[int, int] = self.bytes_sent
            node_count = len(population) or 1
            total = sum(population.values())
        else:
            node_list = list(nodes)
            node_count = len(node_list) or 1
            total = sum(self.bytes_sent.get(n, 0) for n in node_list)
        minutes = duration_ms / 60_000.0
        return (total / 1024.0) / (node_count * minutes)

    def load_per_node(self) -> dict[int, int]:
        """Messages forwarded per node — the Fig. 2 load metric."""

        return dict(self.messages_sent)

    def drop_rate(self) -> float:
        """Fraction of attempted transmissions that were dropped (any cause).

        Zero when nothing was sent; capacity overflows, stochastic loss and
        chaos disruption all count — use :attr:`capacity_drops` to attribute.
        """

        attempted = sum(self.messages_sent.values())
        if attempted == 0:
            return 0.0
        return self.messages_dropped / attempted

    def goodput_kb_per_minute(self, duration_ms: float) -> float:
        """Per-node *delivered* bandwidth in KB/min over *duration_ms*.

        The capacity-aware counterpart of :meth:`bandwidth_kb_per_minute`:
        wire bytes of dropped transmissions are subtracted, so under an
        egress-queue overload goodput plateaus while offered bandwidth keeps
        climbing.  Without drops the two accessors agree exactly.
        """

        if duration_ms <= 0:
            raise ValueError(f"duration must be positive, got {duration_ms}")
        node_count = len(self.bytes_sent) or 1
        delivered = self.total_bytes() - self.bytes_dropped
        minutes = duration_ms / 60_000.0
        return (delivered / 1024.0) / (node_count * minutes)

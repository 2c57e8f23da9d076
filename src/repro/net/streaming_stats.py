"""Streaming measurement for sustained-load runs: latencies into sketches.

A sustained run sees millions of transactions, so it cannot keep
:class:`~repro.net.stats.NetworkStats`' delivery map per item.  Only the
load and population drivers install :class:`StreamingNetworkStats`, so it
lives apart from the exact stats every :class:`~repro.net.node.Network`
loads, and a process that runs no sustained load never compiles it.
"""

from __future__ import annotations

import math
from typing import Iterable

from .sketch import QuantileSketch, WindowedCounter, WindowedQuantiles
from .stats import LatencySummary, NetworkStats

__all__ = ["StreamingNetworkStats"]


class _Inflight:
    """Per-transaction bookkeeping while deliveries are still arriving.

    ``times`` buffers raw delivery timestamps until the item crosses the
    delivery threshold (or its dissemination start is known); after the flush
    it is ``None`` and further deliveries stream straight into the sketches.
    """

    __slots__ = ("created", "send_time", "nodes", "times")

    def __init__(self, created: float) -> None:
        self.created = created
        self.send_time: float | None = None
        self.nodes: set[int] = set()
        self.times: list[float] | None = []


class StreamingNetworkStats(NetworkStats):
    """Drop-in :class:`NetworkStats` that folds latencies into sketches.

    The exact implementation keeps ``deliveries[item][node]`` — O(tx × N)
    memory that caps a run around 10⁴ transactions.  This subclass keeps the
    same byte/message counters (O(nodes)) but replaces the per-transaction
    delivery maps with:

    * one :class:`~repro.net.sketch.QuantileSketch` over the latency
      population (same population the load driver would build: every per-node
      latency of every item that reached ``delivery_fraction`` of nodes,
      clamped at 0) — so streaming and exact runs differ only by the sketch's
      documented :meth:`~repro.net.sketch.QuantileSketch.rank_error`;
    * a :class:`~repro.net.sketch.WindowedQuantiles` trajectory of the same
      latencies for tail-over-time reporting;
    * an in-flight table holding only items whose deliveries are still
      arriving — O(active transactions × nodes), independent of run length,
      provided the caller :meth:`expire`\\ s stragglers periodically.

    Recording is observation-only: installing this on ``network.stats`` draws
    no randomness and schedules no events, so the simulation trajectory is
    byte-identical to an exact-stats run of the same seed.
    """

    def __init__(
        self,
        node_count: int,
        *,
        delivery_fraction: float = 0.99,
        sketch_capacity: int = 512,
        window_ms: float = 60_000.0,
    ) -> None:
        super().__init__()
        if node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {node_count}")
        if not 0.0 < delivery_fraction <= 1.0:
            raise ValueError(
                f"delivery_fraction must be in (0, 1], got {delivery_fraction}"
            )
        self.node_count = node_count
        self.delivery_fraction = delivery_fraction
        self.delivery_threshold = math.ceil(delivery_fraction * node_count)
        self.latency_sketch = QuantileSketch(sketch_capacity)
        self.latency_windows = WindowedQuantiles(window_ms, capacity=128)
        self.delivery_counter = WindowedCounter(window_ms)
        self._inflight: dict[object, _Inflight] = {}
        self.submitted = 0
        self.sent = 0
        self.delivered_items = 0
        self.expired_items = 0

    # -- recording (same call sites as the exact implementation) ----------

    def _entry(self, item: object, now: float) -> _Inflight:
        entry = self._inflight.get(item)
        if entry is None:
            entry = self._inflight[item] = _Inflight(now)
        return entry

    def record_submission(self, item: object, time_ms: float) -> None:
        if item not in self._inflight:
            self.submitted += 1
        self._entry(item, time_ms)

    def record_dissemination_start(self, item: object, time_ms: float) -> None:
        entry = self._entry(item, time_ms)
        if entry.send_time is None:
            entry.send_time = time_ms
            self.sent += 1
            self._maybe_flush(item, entry)

    def record_delivery(self, item: object, node: int, time_ms: float) -> None:
        entry = self._entry(item, time_ms)
        if node in entry.nodes:
            return
        entry.nodes.add(node)
        if entry.times is None:
            self._observe(entry, time_ms)
        else:
            entry.times.append(time_ms)
            self._maybe_flush(item, entry)
        if len(entry.nodes) >= self.node_count and entry.times is None:
            self._inflight.pop(item, None)

    def _maybe_flush(self, item: object, entry: _Inflight) -> None:
        """Promote *item* to delivered once threshold and send time are known."""

        if entry.times is None or entry.send_time is None:
            return
        if len(entry.nodes) < self.delivery_threshold:
            return
        for t in entry.times:
            self._observe(entry, t)
        entry.times = None
        self.delivered_items += 1
        self.delivery_counter.add(entry.send_time)
        if len(entry.nodes) >= self.node_count:
            self._inflight.pop(item, None)

    def _observe(self, entry: _Inflight, delivery_ms: float) -> None:
        # Same clamp as NetworkStats.delivery_latencies: the origin delivers
        # to itself at submission, which may precede the first transmission.
        latency = max(0.0, delivery_ms - (entry.send_time or 0.0))
        self.latency_sketch.observe(latency)
        self.latency_windows.observe(delivery_ms, latency)

    def expire(self, now_ms: float, ttl_ms: float) -> int:
        """Evict in-flight items older than *ttl_ms* that never crossed the
        delivery threshold, returning how many were dropped.

        Exact stats keep such stragglers forever (they simply never count as
        delivered); streaming stats must shed them or the in-flight table
        grows with every lost transaction.  Call this on a telemetry cadence.
        """

        cutoff = now_ms - ttl_ms
        stale = [
            item
            for item, entry in self._inflight.items()
            if entry.created <= cutoff and entry.times is not None
        ]
        for item in stale:
            del self._inflight[item]
        self.expired_items += len(stale)
        return len(stale)

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    # -- derived metrics ---------------------------------------------------

    def delivery_latencies(self, item: object) -> list[float]:
        raise NotImplementedError(
            "StreamingNetworkStats does not retain per-item deliveries; "
            "use latency_sketch / latency_summary()"
        )

    def all_delivery_latencies(self) -> list[float]:
        raise NotImplementedError(
            "StreamingNetworkStats does not retain per-item deliveries; "
            "use latency_sketch / latency_summary()"
        )

    def setup_overheads(self) -> list[float]:
        raise NotImplementedError(
            "StreamingNetworkStats does not retain per-item submit times"
        )

    def coverage(self, item: object, audience: Iterable[int]) -> float:
        raise NotImplementedError(
            "StreamingNetworkStats does not retain per-item deliveries"
        )

    def latency_summary(self) -> LatencySummary:
        sketch = self.latency_sketch
        if not sketch.count:
            return LatencySummary.empty()
        return LatencySummary(
            count=sketch.count,
            mean=sketch.mean,
            p5=sketch.percentile(5),
            p50=sketch.percentile(50),
            p95=sketch.percentile(95),
        )

    def percentile_ms(self, pct: float) -> float | None:
        """Sketch percentile of the delivered-latency population (None if
        nothing was delivered)."""

        if not self.latency_sketch.count:
            return None
        return self.latency_sketch.percentile(pct)

"""Drive a protocol system under a client population with a fee market.

:class:`PopulationDriver` is the sustained-load counterpart of
:class:`repro.load.driver.LoadDriver`, rebuilt so nothing grows with the
transaction count:

* **Self-scheduling injection** — the population's event stream is pulled one
  submission at a time; each injection schedules the next.  The simulator's
  pending-event count stays O(1) for the workload instead of O(total
  transactions) (LoadDriver schedules its whole arrival list up front, which
  alone is ~200 MB at 10⁶ transactions).
* **Streaming stats** — ``network.stats`` is replaced with a
  :class:`~repro.net.stats.StreamingNetworkStats` before the run, folding
  every delivery into constant-size sketches (installed pre-``start()``;
  recording is observation-only, so the simulated trajectory is unchanged).
* **Bounded mempools** — every node's mempool gets the run's
  :class:`~repro.mempool.MempoolPolicy`; drops are aggregated across nodes
  and mirrored into ``repro.obs`` counters (``mempool.evicted`` /
  ``mempool.expired`` / ``mempool.rejected``).
* **Fee market ticks** — on the market's update cadence the driver reads the
  designated proposer's mempool occupancy, updates the base fee, and every
  subsequent bid prices against the new fee.  Per-transaction bids flow into
  the :class:`~repro.net.sketch.WindowedQuantiles` fee trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..mempool.mempool import MempoolPolicy
from ..mempool.transaction import Transaction
from ..net.sketch import WindowedQuantiles
from ..net.stats import StreamingNetworkStats
from ..utils.validation import require_positive
from .clients import ClientPopulation
from .fees import FeeMarket

__all__ = ["PopulationDriver", "PopulationResult"]


@dataclass(frozen=True, slots=True)
class PopulationResult:
    """One protocol's measurements under one sustained population load.

    Latency statistics are ``None`` (not NaN) when nothing was delivered so
    results stay canonical-JSON-serializable for the content-addressed
    result store; trajectory fields are windowed series, O(duration /
    window), never O(transactions).
    """

    protocol: str
    offered_tps: float
    injected: int
    delivered: int
    goodput_tps: float
    mean_ms: float | None
    p50_ms: float | None
    p95_ms: float | None
    p99_ms: float | None
    latency_rank_error: float
    evicted: int
    expired: int
    rejected: int
    stats_expired: int
    base_fee_final: float
    base_fee_max: float
    fee_p50: float | None
    fee_p95: float | None
    peak_active_sessions: int
    mempool_peak: int
    duration_ms: float
    horizon_ms: float
    # [{start_ms, count, p50, p95}, ...] per telemetry window
    latency_series: list
    fee_series: list
    base_fee_series: list
    eviction_series: list

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.injected if self.injected else 0.0

    def to_json(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "PopulationResult":
        return cls(**{name: doc[name] for name in cls.__slots__})


class PopulationDriver:
    """Runs one protocol system under one :class:`ClientPopulation`.

    The system must expose the shared lifecycle (``start`` / ``submit`` /
    ``run`` / ``stats`` / ``nodes`` / ``simulator`` / ``network``).
    """

    def __init__(
        self,
        system,
        population: ClientPopulation,
        *,
        protocol: str = "",
        fee_market: FeeMarket | None = None,
        policy: MempoolPolicy | None = None,
        delivery_fraction: float = 0.99,
        sketch_capacity: int = 512,
        window_ms: float = 10_000.0,
        stats_ttl_ms: float = 120_000.0,
        target_occupancy: int = 2_000,
    ) -> None:
        require_positive(window_ms, "window_ms")
        require_positive(stats_ttl_ms, "stats_ttl_ms")
        require_positive(target_occupancy, "target_occupancy")
        self.system = system
        self.population = population
        self.protocol = protocol or type(system).__name__
        self.fee_market = fee_market
        self.policy = policy
        self.delivery_fraction = delivery_fraction
        self.sketch_capacity = sketch_capacity
        self.window_ms = window_ms
        self.stats_ttl_ms = stats_ttl_ms
        self.target_occupancy = target_occupancy
        self.injected = 0
        self.mempool_peak = 0
        self.fee_windows = WindowedQuantiles(window_ms, capacity=128)
        self.eviction_counts = {"evicted": 0, "expired": 0, "rejected": 0}
        self._eviction_series: list[dict] = []
        self._last_eviction_snapshot = dict(self.eviction_counts)

    # -- wiring ------------------------------------------------------------

    def _install_streaming_stats(self) -> StreamingNetworkStats:
        stats = StreamingNetworkStats(
            node_count=len(self.system.nodes),
            delivery_fraction=self.delivery_fraction,
            sketch_capacity=self.sketch_capacity,
            window_ms=self.window_ms,
        )
        self.system.network.stats = stats
        return stats

    def _install_policies(self) -> None:
        if self.policy is None:
            return

        # Installed in every mempool, so it must not hold the driver: the
        # driver holds the system, which holds the mempools.
        counts = self.eviction_counts
        obs = self.system.network.obs

        def on_drop(reason: str, tx: Transaction) -> None:
            counts[reason] += 1
            if obs is not None:
                obs.metrics.counter(f"mempool.{reason}").inc()

        for node in self.system.nodes.values():
            mempool = getattr(node, "mempool", None)
            if mempool is not None:
                mempool.install_policy(self.policy, on_drop)

    def _proposer_mempool(self):
        """The designated proposer's mempool (lowest node id), if any."""

        nodes = self.system.nodes
        for node_id in sorted(nodes):
            mempool = getattr(nodes[node_id], "mempool", None)
            if mempool is not None:
                return mempool
        return None

    # -- injection ---------------------------------------------------------

    # The self-rescheduling callbacks below are methods, not nested closures:
    # a closure that schedules itself references itself, a cycle no close()
    # can reach.

    def _schedule_stream(self, horizon_ms: float) -> None:
        """Pull-one/schedule-next injection: O(1) pending events."""

        self._schedule_next(self.population.events(horizon_ms))

    def _schedule_next(self, events) -> None:
        submission = next(events, None)
        if submission is not None:
            simulator = self.system.simulator
            simulator.schedule_call(
                submission.time_ms - simulator.now, self._inject, events, submission
            )

    def _inject(self, events, submission) -> None:
        system = self.system
        fee = 0.0
        if self.fee_market is not None:
            fee = self.fee_market.bid(self.population.tier_bid_scale(submission.tier))
            self.fee_windows.observe(submission.time_ms, fee)
        tx = Transaction.create(
            origin=submission.origin,
            created_at=system.simulator.now,
            fee=fee,
        )
        system.submit(submission.origin, tx)
        self.injected += 1
        self._schedule_next(events)

    # -- telemetry ---------------------------------------------------------

    def _telemetry_tick(self, now_ms: float, stats: StreamingNetworkStats) -> None:
        proposer = self._proposer_mempool()
        occupancy = len(proposer) if proposer is not None else 0
        self.mempool_peak = max(self.mempool_peak, occupancy)
        if self.policy is not None:
            for node in self.system.nodes.values():
                mempool = getattr(node, "mempool", None)
                if mempool is not None:
                    mempool.expire(now_ms)
        if self.fee_market is not None:
            self.fee_market.on_pressure(occupancy / self.target_occupancy, now_ms)
        stats.expire(now_ms, self.stats_ttl_ms)
        snapshot = dict(self.eviction_counts)
        delta = {
            reason: snapshot[reason] - self._last_eviction_snapshot[reason]
            for reason in snapshot
        }
        self._last_eviction_snapshot = snapshot
        self._eviction_series.append({"start_ms": now_ms, **delta})
        obs = self.system.network.obs
        if obs is not None:
            obs.metrics.gauge("population.mempool.occupancy").set(occupancy)
            obs.metrics.gauge("population.mempool.peak").track_max(occupancy)
            if self.fee_market is not None:
                obs.metrics.gauge("population.base_fee").set(self.fee_market.base_fee)

    def _schedule_telemetry(self, horizon_ms: float, stats: StreamingNetworkStats) -> None:
        interval = (
            self.fee_market.config.update_interval_ms
            if self.fee_market is not None
            else self.window_ms
        )
        self.system.simulator.schedule_call(
            interval, self._tick, interval, horizon_ms, stats
        )

    def _tick(
        self, interval: float, horizon_ms: float, stats: StreamingNetworkStats
    ) -> None:
        simulator = self.system.simulator
        self._telemetry_tick(simulator.now, stats)
        if simulator.now + interval <= horizon_ms:
            simulator.schedule_call(interval, self._tick, interval, horizon_ms, stats)

    # -- the run -----------------------------------------------------------

    def run(self, duration_ms: float, drain_ms: float = 0.0) -> PopulationResult:
        """Inject for *duration_ms*, let the system drain *drain_ms* more."""

        require_positive(duration_ms, "duration_ms")
        if drain_ms < 0:
            raise ValueError(f"drain_ms must be >= 0, got {drain_ms}")
        system = self.system
        horizon_ms = duration_ms + drain_ms
        stats = self._install_streaming_stats()
        system.start()
        self._install_policies()
        self._schedule_stream(duration_ms)
        self._schedule_telemetry(horizon_ms, stats)
        system.run(until_ms=horizon_ms)
        return self._summarize(stats, duration_ms, horizon_ms)

    def _summarize(
        self,
        stats: StreamingNetworkStats,
        duration_ms: float,
        horizon_ms: float,
    ) -> PopulationResult:
        duration_s = duration_ms / 1000.0
        sketch = stats.latency_sketch
        market = self.fee_market
        fee_sketch = self.fee_windows.merged() if market is not None else None
        base_series = market.history if market is not None else []
        fee_digest = (
            market.fee_percentiles()
            if market is not None
            else {"final": 0.0, "max": 0.0}
        )
        return PopulationResult(
            protocol=self.protocol,
            offered_tps=self.injected / duration_s,
            injected=self.injected,
            delivered=stats.delivered_items,
            goodput_tps=stats.delivered_items / duration_s,
            mean_ms=sketch.mean if sketch.count else None,
            p50_ms=stats.percentile_ms(50),
            p95_ms=stats.percentile_ms(95),
            p99_ms=stats.percentile_ms(99),
            latency_rank_error=sketch.rank_error(),
            evicted=self.eviction_counts["evicted"],
            expired=self.eviction_counts["expired"],
            rejected=self.eviction_counts["rejected"],
            stats_expired=stats.expired_items,
            base_fee_final=fee_digest["final"],
            base_fee_max=fee_digest["max"],
            fee_p50=(
                fee_sketch.percentile(50)
                if fee_sketch is not None and fee_sketch.count
                else None
            ),
            fee_p95=(
                fee_sketch.percentile(95)
                if fee_sketch is not None and fee_sketch.count
                else None
            ),
            peak_active_sessions=self.population.last_peak_active,
            mempool_peak=self.mempool_peak,
            duration_ms=duration_ms,
            horizon_ms=horizon_ms,
            latency_series=stats.latency_windows.series((50.0, 95.0)),
            fee_series=self.fee_windows.series((50.0, 95.0)),
            base_fee_series=[list(pair) for pair in base_series],
            eviction_series=self._eviction_series,
        )

"""The open-loop load driver: inject a schedule, sample pressure, summarize.

:class:`LoadDriver` owns one run of one protocol system under one arrival
schedule.  It schedules every injection on the system's simulator up front
(open-loop: arrivals never wait for the system), samples mempool occupancy
and capacity-queue depth on a fixed cadence through ``repro.obs`` gauges, and
folds the run into a :class:`LoadResult` — the offered-load / goodput /
latency triple that saturation curves are made of.

A transaction counts as *delivered* when it reaches at least
``delivery_fraction`` of the system's nodes by the end of the run; goodput is
delivered transactions per second of injection window.  Under light load
goodput tracks offered load; past the capacity knee it plateaus while p95
latency inflates — see :mod:`repro.experiments.fig6_saturation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..mempool.transaction import Transaction
from ..net.stats import summarize_latencies
from ..utils.validation import require_positive
from .arrival import ArrivalProcess, Injection

__all__ = ["KNEE_GOODPUT_RATIO", "LoadDriver", "LoadResult"]

#: A rate saturates once goodput drops below this fraction of offered load
#: (the knee rule of the Fig. 6 and Fig. 8 sweeps).
KNEE_GOODPUT_RATIO = 0.85

#: Simulated milliseconds between mempool / capacity-queue samples.
SAMPLE_INTERVAL_MS = 250.0


@dataclass(frozen=True, slots=True)
class LoadResult:
    """One protocol's measurements under one offered load.

    Latency statistics are ``None`` (not NaN) when nothing was delivered, so
    results stay canonical-JSON-serializable for the content-addressed
    result store.
    """

    protocol: str
    offered_tps: float
    injected: int
    delivered: int
    goodput_tps: float
    mean_ms: float | None
    p50_ms: float | None
    p95_ms: float | None
    drop_rate: float
    capacity_drops: int
    goodput_kb_per_min: float
    bandwidth_kb_per_min: float
    max_queue_bytes: float
    mempool_peak: int
    mempool_mean: float
    duration_ms: float
    horizon_ms: float

    @property
    def delivery_ratio(self) -> float:
        """Fraction of injected transactions that were delivered."""

        return self.delivered / self.injected if self.injected else 0.0

    def to_json(self) -> dict[str, Any]:
        return {
            "protocol": self.protocol,
            "offered_tps": self.offered_tps,
            "injected": self.injected,
            "delivered": self.delivered,
            "goodput_tps": self.goodput_tps,
            "mean_ms": self.mean_ms,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "drop_rate": self.drop_rate,
            "capacity_drops": self.capacity_drops,
            "goodput_kb_per_min": self.goodput_kb_per_min,
            "bandwidth_kb_per_min": self.bandwidth_kb_per_min,
            "max_queue_bytes": self.max_queue_bytes,
            "mempool_peak": self.mempool_peak,
            "mempool_mean": self.mempool_mean,
            "duration_ms": self.duration_ms,
            "horizon_ms": self.horizon_ms,
        }

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "LoadResult":
        return cls(**{spec: doc[spec] for spec in cls.__slots__})


class LoadDriver:
    """Drives one system through one open-loop arrival schedule.

    The system must expose the shared lifecycle (``start`` / ``submit`` /
    ``run`` / ``stats`` / ``nodes`` / ``simulator`` / ``network``) — every
    protocol system in this repository does.
    """

    def __init__(
        self,
        system,
        arrivals: ArrivalProcess,
        *,
        protocol: str = "",
        delivery_fraction: float = 0.99,
        streaming: bool = False,
    ) -> None:
        if not 0.0 < delivery_fraction <= 1.0:
            raise ValueError(
                f"delivery_fraction must be in (0, 1], got {delivery_fraction}"
            )
        self.system = system
        self.arrivals = arrivals
        self.protocol = protocol or type(system).__name__
        self.delivery_fraction = delivery_fraction
        # Opt-in constant-memory mode: network.stats is swapped for a
        # StreamingNetworkStats before the run and _summarize reads sketches
        # instead of iterating per-transaction delivery maps.  Off by default
        # so existing exact-stats runs stay byte-identical.
        self.streaming = streaming
        # One (mean occupancy, total egress backlog bytes) pair per sample.
        self.samples: list[tuple[float, float, float]] = []

    # -- sampling ----------------------------------------------------------

    def _sample(self) -> None:
        system = self.system
        nodes = system.nodes.values()
        occupancies = [
            len(node.mempool) for node in nodes if hasattr(node, "mempool")
        ]
        mean_occupancy = (
            sum(occupancies) / len(occupancies) if occupancies else 0.0
        )
        now = system.simulator.now
        capacity = system.network.capacity
        backlog = capacity.total_backlog_bytes(now) if capacity is not None else 0.0
        self.samples.append((now, mean_occupancy, backlog))
        obs = system.network.obs
        if obs is not None:
            obs.metrics.gauge("load.mempool.occupancy").set(mean_occupancy)
            obs.metrics.gauge("load.mempool.peak").track_max(
                max(occupancies, default=0)
            )
            obs.metrics.gauge("load.queue.backlog_bytes").set(backlog)
            obs.metrics.gauge("load.queue.peak_bytes").track_max(backlog)

    def _schedule_sampler(self, horizon_ms: float) -> None:
        self.system.simulator.schedule_call(
            SAMPLE_INTERVAL_MS, self._tick, horizon_ms
        )

    def _tick(self, horizon_ms: float) -> None:
        # A method, not a closure that reschedules itself: such a closure
        # references itself, a cycle that would outlive the system's close().
        self._sample()
        simulator = self.system.simulator
        if simulator.now + SAMPLE_INTERVAL_MS <= horizon_ms:
            simulator.schedule_call(SAMPLE_INTERVAL_MS, self._tick, horizon_ms)

    # -- the run -----------------------------------------------------------

    def run(self, duration_ms: float, drain_ms: float = 0.0) -> LoadResult:
        """Inject for *duration_ms*, let the system drain *drain_ms* more.

        Offered load and goodput are both normalized by *duration_ms* (the
        injection window); the drain window only gives in-flight messages a
        chance to land before the books close.
        """

        require_positive(duration_ms, "duration_ms")
        if drain_ms < 0:
            raise ValueError(f"drain_ms must be >= 0, got {drain_ms}")
        system = self.system
        horizon_ms = duration_ms + drain_ms
        schedule = self.arrivals.schedule(duration_ms)
        if self.streaming:
            from ..net.streaming_stats import StreamingNetworkStats

            system.network.stats = StreamingNetworkStats(
                node_count=len(system.nodes),
                delivery_fraction=self.delivery_fraction,
            )
        system.start()
        for injection in schedule:
            self._schedule_injection(injection)
        self._schedule_sampler(horizon_ms)
        system.run(until_ms=horizon_ms)
        return self._summarize(schedule, duration_ms, horizon_ms)

    def _schedule_injection(self, injection: Injection) -> None:
        system = self.system

        def inject() -> None:
            tx = Transaction.create(
                origin=injection.origin, created_at=system.simulator.now
            )
            system.submit(injection.origin, tx)

        system.simulator.schedule_at(injection.time_ms, inject)

    def _summarize(
        self,
        schedule: tuple[Injection, ...],
        duration_ms: float,
        horizon_ms: float,
    ) -> LoadResult:
        system = self.system
        stats = system.stats
        node_count = len(system.nodes)
        duration_s = duration_ms / 1000.0
        if self.streaming:  # run() installed StreamingNetworkStats
            delivered = stats.delivered_items
            summary = stats.latency_summary()
        else:
            delivered = 0
            latencies: list[float] = []
            for item in stats.send_times:
                reached = len(stats.deliveries.get(item, {}))
                if reached >= self.delivery_fraction * node_count:
                    delivered += 1
                    latencies.extend(stats.delivery_latencies(item))
            summary = summarize_latencies(latencies)
        capacity = system.network.capacity
        occupancies = [occupancy for _, occupancy, _ in self.samples]
        backlogs = [backlog for _, _, backlog in self.samples]
        return LoadResult(
            protocol=self.protocol,
            offered_tps=len(schedule) / duration_s,
            injected=len(schedule),
            delivered=delivered,
            goodput_tps=delivered / duration_s,
            mean_ms=None if summary.is_empty else summary.mean,
            p50_ms=None if summary.is_empty else summary.p50,
            p95_ms=None if summary.is_empty else summary.p95,
            drop_rate=stats.drop_rate(),
            capacity_drops=stats.capacity_drops,
            goodput_kb_per_min=stats.goodput_kb_per_minute(duration_ms),
            bandwidth_kb_per_min=stats.bandwidth_kb_per_minute(duration_ms),
            max_queue_bytes=(
                capacity.max_backlog_bytes if capacity is not None else 0.0
            ),
            mempool_peak=int(max(occupancies, default=0)),
            mempool_mean=(
                sum(occupancies) / len(occupancies) if occupancies else 0.0
            ),
            duration_ms=duration_ms,
            horizon_ms=horizon_ms,
        )

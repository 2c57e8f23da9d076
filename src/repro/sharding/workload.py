"""Open-loop load over a sharded deployment, one global schedule in, one
aggregate result out.

:class:`ShardedLoadDriver` wraps the existing single-system
:class:`~repro.load.LoadDriver` without re-implementing any of its mechanics:
the global arrival schedule (origins drawn from the whole
``0..total_nodes-1`` space) is split by :meth:`ShardedSystem.place` into one
per-shard sub-schedule, and each shard then runs an ordinary ``LoadDriver``
over its slice.  Cross-shard submissions re-enter at their routed time and
mirror ingress node, so the hop cost shows up in that transaction's measured
latency exactly like any other queueing delay.

With one shard the split is the identity function — every injection object
passes through untouched, in order, and the per-shard driver receives the
exact schedule the unsharded driver would have built.  That is the load-path
half of the ``k=1`` byte-identity contract
(``tests/integration/test_sharding_identity.py``).

Aggregate accounting: *offered* load is the global schedule over the
injection window; *goodput* is the sum of per-shard goodputs — the quantity
Fig. 9 scales in the shard count; latency summaries are delivery-weighted
across shards (p95 conservatively reported as the worst shard's p95).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..load.arrival import ArrivalProcess, Injection
from ..load.driver import LoadDriver, LoadResult
from .system import ShardedSystem

__all__ = ["ShardedLoadDriver", "ShardedLoadResult"]


class _FixedSchedule:
    """An :class:`~repro.load.ArrivalProcess` stand-in replaying a fixed split.

    ``LoadDriver`` only calls ``schedule(duration_ms)``; handing it the
    pre-split tuple keeps every per-shard run on the untouched driver code
    path.
    """

    __slots__ = ("_schedule",)

    def __init__(self, schedule: tuple[Injection, ...]) -> None:
        self._schedule = schedule

    def schedule(self, duration_ms: float) -> tuple[Injection, ...]:
        return self._schedule


@dataclass(frozen=True, slots=True)
class ShardedLoadResult:
    """Aggregate measurements of one sharded run (per-shard results attached).

    ``aggregate_goodput_tps`` is the Fig. 9 scaling quantity; ``routed`` /
    ``routed_fraction`` expose how much of the offered load crossed shards
    (and therefore paid the router hop).  Latency fields follow the
    :class:`~repro.load.LoadResult` convention of ``None`` when nothing was
    delivered.
    """

    protocol: str
    num_shards: int
    total_nodes: int
    offered_tps: float
    injected: int
    delivered: int
    aggregate_goodput_tps: float
    mean_ms: float | None
    p95_ms: float | None
    routed: int
    routed_fraction: float
    duration_ms: float
    horizon_ms: float
    per_shard: tuple[LoadResult, ...]

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.injected if self.injected else 0.0

    def to_json(self) -> dict[str, Any]:
        return {
            "protocol": self.protocol,
            "num_shards": self.num_shards,
            "total_nodes": self.total_nodes,
            "offered_tps": self.offered_tps,
            "injected": self.injected,
            "delivered": self.delivered,
            "aggregate_goodput_tps": self.aggregate_goodput_tps,
            "mean_ms": self.mean_ms,
            "p95_ms": self.p95_ms,
            "routed": self.routed,
            "routed_fraction": self.routed_fraction,
            "duration_ms": self.duration_ms,
            "horizon_ms": self.horizon_ms,
            "per_shard": [result.to_json() for result in self.per_shard],
        }

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "ShardedLoadResult":
        fields = {
            spec: doc[spec] for spec in cls.__slots__ if spec != "per_shard"
        }
        fields["per_shard"] = tuple(
            LoadResult.from_json(entry) for entry in doc["per_shard"]
        )
        return cls(**fields)


class ShardedLoadDriver:
    """Split one global schedule across shards and run each slice (module doc).

    Every injection is placed by its origin node id (client identity), which
    is what the fig9 grid measures.
    """

    def __init__(
        self,
        system: ShardedSystem,
        arrivals: ArrivalProcess,
        *,
        protocol: str = "",
        delivery_fraction: float = 0.99,
    ) -> None:
        self.system = system
        self.arrivals = arrivals
        self.protocol = protocol or system.protocol
        self.delivery_fraction = delivery_fraction

    def _split(
        self, schedule: tuple[Injection, ...]
    ) -> list[list[Injection]]:
        per_shard: list[list[Injection]] = [
            [] for _ in range(self.system.num_shards)
        ]
        for injection in schedule:
            placed = self.system.place(injection.time_ms, injection.origin)
            if not placed.routed and placed.origin_local == injection.origin:
                # Same shard, same local id: pass the original object through
                # (the k=1 identity path literally replays the input tuple).
                per_shard[placed.shard].append(injection)
            else:
                per_shard[placed.shard].append(
                    Injection(time_ms=placed.time_ms, origin=placed.origin_local)
                )
        return per_shard

    def run(
        self, duration_ms: float, drain_ms: float = 0.0
    ) -> ShardedLoadResult:
        """Inject for *duration_ms* globally, drain *drain_ms*, aggregate."""

        schedule = self.arrivals.schedule(duration_ms)
        per_shard = self._split(schedule)
        results: list[LoadResult] = []
        for shard, slice_ in zip(self.system.shards, per_shard):
            if self.system.obs is not None:
                # Shards run one after another; the shared tracer clock must
                # follow the simulator that is actually advancing.
                self.system.obs.attach(shard.system.simulator)
            driver = LoadDriver(
                shard.system,
                _FixedSchedule(tuple(slice_)),
                protocol=self.protocol,
                delivery_fraction=self.delivery_fraction,
            )
            results.append(driver.run(duration_ms, drain_ms))
        return self._aggregate(schedule, results, duration_ms, drain_ms)

    def _aggregate(
        self,
        schedule: tuple[Injection, ...],
        results: list[LoadResult],
        duration_ms: float,
        drain_ms: float,
    ) -> ShardedLoadResult:
        duration_s = duration_ms / 1000.0
        delivered = sum(result.delivered for result in results)
        weighted = [
            (result.mean_ms, result.delivered)
            for result in results
            if result.mean_ms is not None and result.delivered
        ]
        mean_ms = (
            sum(value * weight for value, weight in weighted)
            / sum(weight for _, weight in weighted)
            if weighted
            else None
        )
        p95s = [
            result.p95_ms for result in results if result.p95_ms is not None
        ]
        return ShardedLoadResult(
            protocol=self.protocol,
            num_shards=self.system.num_shards,
            total_nodes=self.system.total_nodes,
            offered_tps=len(schedule) / duration_s,
            injected=len(schedule),
            delivered=delivered,
            aggregate_goodput_tps=delivered / duration_s,
            mean_ms=mean_ms,
            p95_ms=max(p95s) if p95s else None,
            routed=self.system.router.routed,
            routed_fraction=(
                self.system.router.routed / len(schedule) if schedule else 0.0
            ),
            duration_ms=duration_ms,
            horizon_ms=duration_ms + drain_ms,
            per_shard=tuple(results),
        )

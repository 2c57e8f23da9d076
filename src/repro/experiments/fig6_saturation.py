"""Fig. 6 — saturation curves: offered load vs goodput vs tail latency.

The paper's figures measure protocols well below capacity; this experiment
asks the follow-up question every deployment asks next: *where does each
protocol break, and how does it break?*  An open-loop arrival process offers
transactions at a swept rate while every node's uplink and downlink have
finite rates and a bounded egress queue (:mod:`repro.load.capacity`).  Below
the knee, goodput tracks offered load and latency stays flat; past it,
goodput plateaus, the egress queues overflow, and p95 latency inflates.

Per protocol the sweep reports the **knee** (the first offered rate whose
goodput falls below ``KNEE_GOODPUT_RATIO`` of offered) and the **post-knee
latency inflation** (p95 at the highest rate over p95 at the lowest).  Each
(protocol, rate) point is one content-addressed runner task (``fig6.point``),
so sweeps resume for free and rerun nothing that already finished.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..load.arrival import make_arrivals
from ..load.capacity import CapacityConfig, CapacityModel
from ..load.driver import KNEE_GOODPUT_RATIO, LoadDriver, LoadResult
from ..utils.tables import format_table
from .figure import Figure
from .harness import (
    PROTOCOL_NAMES,
    ExperimentEnvironment,
    build_environment,
    protocol_factories,
)

__all__ = [
    "FIGURE",
    "Fig6Config",
    "Fig6Result",
    "KNEE_GOODPUT_RATIO",
    "format_result",
    "cell_params",
    "run_cell",
    "fold",
]

#: Offered rates (tx/s) swept by default — chosen so the default capacity
#: (32 KB/s uplinks) puts the knee inside the sweep for every protocol:
#: narwhal saturates first (~6 tx/s), lzero last (~38 tx/s).
DEFAULT_RATES = (2.0, 5.0, 10.0, 20.0, 40.0, 80.0)


@dataclass(frozen=True, slots=True)
class Fig6Config:
    num_nodes: int = 40
    f: int = 1
    k: int = 3
    rates_tps: tuple[float, ...] = DEFAULT_RATES
    pattern: str = "poisson"
    zipf_s: float = 0.0
    duration_ms: float = 6_000.0
    drain_ms: float = 2_000.0
    protocols: tuple[str, ...] = PROTOCOL_NAMES
    # Deliberately modest links (dissemination amplifies every submitted
    # byte across the whole membership) so the knee lands inside rates_tps.
    uplink_kb_per_s: float = 32.0
    downlink_kb_per_s: float = 128.0
    queue_bytes: int = 32 * 1024
    delivery_fraction: float = 0.99
    seed: int = 0

    def capacity_config(self) -> CapacityConfig:
        return CapacityConfig(
            uplink_kb_per_s=self.uplink_kb_per_s,
            downlink_kb_per_s=self.downlink_kb_per_s,
            queue_bytes=self.queue_bytes,
        )


@dataclass(frozen=True, slots=True)
class Fig6Result:
    config: Fig6Config
    #: protocol -> one :class:`~repro.load.driver.LoadResult` per swept rate,
    #: in ascending offered-rate order.
    curves: dict[str, list[LoadResult]] = field(default_factory=dict)

    def knee_tps(self, protocol: str) -> float | None:
        """First offered rate whose goodput falls below the knee ratio."""

        for point in self.curves.get(protocol, []):
            if point.goodput_tps < KNEE_GOODPUT_RATIO * point.offered_tps:
                return point.offered_tps
        return None

    def latency_inflation(self, protocol: str) -> float | None:
        """p95 at the highest swept rate over p95 at the lowest."""

        curve = self.curves.get(protocol, [])
        measured = [p for p in curve if p.p95_ms is not None]
        if len(measured) < 2 or measured[0].p95_ms == 0:
            return None
        return measured[-1].p95_ms / measured[0].p95_ms


def _run_point(
    config: Fig6Config, env: ExperimentEnvironment, protocol: str, rate_tps: float
) -> LoadResult:
    """One saturation point: one protocol under one offered rate."""

    with protocol_factories(env)[protocol]() as system:
        system.network.capacity = CapacityModel(config.capacity_config())
        arrivals = make_arrivals(
            config.pattern,
            rate_tps=rate_tps,
            origins=env.physical.nodes(),
            seed=config.seed,
            zipf_s=config.zipf_s,
        )
        driver = LoadDriver(
            system,
            arrivals,
            protocol=protocol,
            delivery_fraction=config.delivery_fraction,
        )
        return driver.run(config.duration_ms, drain_ms=config.drain_ms)


def cell_params(config: Fig6Config) -> list[dict[str, Any]]:
    """The sweep grid: one cell per (protocol, offered rate)."""

    return [
        {
            "protocol": protocol,
            "rate_tps": rate,
            "pattern": config.pattern,
            "zipf_s": config.zipf_s,
            "num_nodes": config.num_nodes,
            "f": config.f,
            "k": config.k,
            "duration_ms": config.duration_ms,
            "drain_ms": config.drain_ms,
            "uplink_kb_per_s": config.uplink_kb_per_s,
            "downlink_kb_per_s": config.downlink_kb_per_s,
            "queue_bytes": config.queue_bytes,
            "delivery_fraction": config.delivery_fraction,
            "seed": config.seed,
        }
        for protocol in config.protocols
        for rate in config.rates_tps
    ]


def _config_from_params(params: Mapping[str, Any]) -> Fig6Config:
    return Fig6Config(
        num_nodes=int(params.get("num_nodes", 40)),
        f=int(params.get("f", 1)),
        k=int(params.get("k", 3)),
        pattern=str(params.get("pattern", "poisson")),
        zipf_s=float(params.get("zipf_s", 0.0)),
        duration_ms=float(params.get("duration_ms", 6_000.0)),
        drain_ms=float(params.get("drain_ms", 2_000.0)),
        uplink_kb_per_s=float(params.get("uplink_kb_per_s", 32.0)),
        downlink_kb_per_s=float(params.get("downlink_kb_per_s", 128.0)),
        queue_bytes=int(params.get("queue_bytes", 32 * 1024)),
        delivery_fraction=float(params.get("delivery_fraction", 0.99)),
        seed=int(params.get("seed", 0)),
    )


def run_cell(params: Mapping[str, Any]) -> dict[str, Any]:
    """Measure one saturation point; the ``fig6.point`` runner task."""

    config = _config_from_params(params)
    env = build_environment(
        num_nodes=config.num_nodes, f=config.f, k=config.k, seed=config.seed
    )
    result = _run_point(
        config, env, str(params["protocol"]), float(params["rate_tps"])
    )
    return result.to_json()


def fold(config: Fig6Config, results: Iterable[Mapping[str, Any]]) -> Fig6Result:
    """Fold the points' results into per-protocol saturation curves."""

    curves: dict[str, list[LoadResult]] = {}
    for result in results:
        point = LoadResult.from_json(result)
        curves.setdefault(point.protocol, []).append(point)
    for curve in curves.values():
        curve.sort(key=lambda point: point.offered_tps)
    ordered = {
        protocol: curves[protocol]
        for protocol in config.protocols
        if protocol in curves
    }
    return Fig6Result(config=config, curves=ordered)


def format_result(result: Fig6Result) -> str:
    def cell(value: float | None) -> float:
        return float("nan") if value is None else value

    tables = []
    for protocol, curve in result.curves.items():
        rows = [
            [
                point.offered_tps,
                point.goodput_tps,
                cell(point.p50_ms),
                cell(point.p95_ms),
                point.drop_rate,
                point.goodput_kb_per_min,
            ]
            for point in curve
        ]
        knee = result.knee_tps(protocol)
        inflation = result.latency_inflation(protocol)
        title = (
            f"Fig. 6 — {protocol} saturation, N={result.config.num_nodes}, "
            f"{result.config.pattern} arrivals, "
            f"uplink {result.config.uplink_kb_per_s:.0f} KB/s"
        )
        table = format_table(
            [
                "offered tx/s",
                "goodput tx/s",
                "p50 ms",
                "p95 ms",
                "drop rate",
                "goodput KB/min",
            ],
            rows,
            title=title,
        )
        knee_line = (
            f"knee: {knee:.1f} tx/s" if knee is not None else "knee: beyond sweep"
        )
        if inflation is not None:
            knee_line += f"; p95 inflation low→high rate: {inflation:.1f}x"
        tables.append(f"{table}\n{knee_line}")
    return "\n\n".join(tables)


FIGURE = Figure(
    name="fig6",
    task="fig6.point",
    config=Fig6Config,
    quick={"num_nodes": 24, "rates_tps": (2.0, 8.0, 24.0), "duration_ms": 4_000.0},
    cells=cell_params,
    run_cell=run_cell,
    fold=fold,
    format=format_result,
)

"""Fig. 8 — sustained population load: fee market, eviction, tail latency.

Fig. 6 finds each protocol's saturation knee with a few seconds of open-loop
arrivals.  Fig. 8 asks what a deployment actually experiences: a
:class:`~repro.population.ClientPopulation` (millions of clients, Zipf
activity, session churn) submitting through a
:class:`~repro.population.FeeMarket` for minutes-to-hours of simulated time,
against bounded mempools (:class:`~repro.mempool.MempoolPolicy`) and
constant-memory streaming telemetry — so the run length is limited by
patience, not RAM.

Per (protocol, offered rate) the sweep reports goodput, the p50/p95/p99 tail
over time, the base-fee trajectory, and eviction/expiry/rejection rates; per
protocol it reports the goodput knee (same ``KNEE_GOODPUT_RATIO`` rule as
Fig. 6).  Alongside the wire protocols, the ``ingest`` pseudo-protocol runs
the simulator-free admission/service pipeline (:func:`repro.population.run_ingest`)
— the workload-layer ceiling no dissemination protocol can beat.

Each point is one content-addressed runner task (``fig8.point``), so sweeps
resume for free: ``python -m repro sweep --figure fig8``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..load.capacity import CapacityConfig, CapacityModel
from ..load.driver import KNEE_GOODPUT_RATIO
from ..mempool.mempool import MempoolPolicy
from ..population.clients import ClientPopulation, PopulationConfig
from ..population.driver import PopulationDriver, PopulationResult
from ..population.fees import FeeMarket, FeeMarketConfig
from ..population.pipeline import run_ingest
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
    "Fig8Config",
    "Fig8Result",
    "KNEE_GOODPUT_RATIO",
    "format_result",
    "cell_params",
    "run_cell",
    "fold",
]

#: Offered rates (tx/s) swept by default.  The same modest 32 KB/s uplinks
#: as Fig. 6, so the wire protocols keep their knees inside the sweep; the
#: ``ingest`` ceiling is set by ``service_tps`` instead.
DEFAULT_RATES = (2.0, 5.0, 10.0, 20.0, 40.0)

#: The wire protocols plus the workload-layer ceiling.
DEFAULT_PROTOCOLS: tuple[str, ...] = PROTOCOL_NAMES + ("ingest",)


@dataclass(frozen=True, slots=True)
class Fig8Config:
    num_nodes: int = 24
    f: int = 1
    k: int = 3
    rates_tps: tuple[float, ...] = DEFAULT_RATES
    protocols: tuple[str, ...] = DEFAULT_PROTOCOLS
    duration_ms: float = 60_000.0
    drain_ms: float = 5_000.0
    # Population shape (who submits): see PopulationConfig.
    num_clients: int = 1_000_000
    session_duration_ms: float = 8_000.0
    session_tx_rate_tps: float = 1.0
    zipf_s: float = 1.1
    # Fee market and admission control.
    initial_base_fee: float = 1.0
    fee_update_interval_ms: float = 500.0
    target_occupancy: int = 500
    mempool_max_size: int = 2_000
    mempool_ttl_ms: float = 60_000.0
    # Wire capacity (same defaults as Fig. 6).
    uplink_kb_per_s: float = 32.0
    downlink_kb_per_s: float = 128.0
    queue_bytes: int = 32 * 1024
    # Telemetry.
    window_ms: float = 10_000.0
    delivery_fraction: float = 0.99
    sketch_capacity: int = 512
    # Service rate of the simulator-free ``ingest`` pseudo-protocol.
    service_tps: float = 25.0
    seed: int = 0

    def capacity_config(self) -> CapacityConfig:
        return CapacityConfig(
            uplink_kb_per_s=self.uplink_kb_per_s,
            downlink_kb_per_s=self.downlink_kb_per_s,
            queue_bytes=self.queue_bytes,
        )

    def population_config(self, rate_tps: float) -> PopulationConfig:
        return PopulationConfig.for_offered_rate(
            rate_tps,
            num_clients=self.num_clients,
            num_nodes=self.num_nodes,
            seed=self.seed,
            session_duration_ms=self.session_duration_ms,
            session_tx_rate_tps=self.session_tx_rate_tps,
            zipf_s=self.zipf_s,
        )

    def fee_market(self) -> FeeMarket:
        return FeeMarket(
            FeeMarketConfig(
                initial_base_fee=self.initial_base_fee,
                update_interval_ms=self.fee_update_interval_ms,
            ),
            seed=self.seed,
        )

    def mempool_policy(self) -> MempoolPolicy:
        return MempoolPolicy(
            max_size=self.mempool_max_size, ttl_ms=self.mempool_ttl_ms
        )


@dataclass(frozen=True, slots=True)
class Fig8Result:
    config: Fig8Config
    #: protocol -> one :class:`~repro.population.PopulationResult` per swept
    #: rate, in ascending offered-rate order.
    curves: dict[str, list[PopulationResult]] = field(default_factory=dict)

    def knee_tps(self, protocol: str) -> float | None:
        """First offered rate whose goodput falls below the knee ratio."""

        for point in self.curves.get(protocol, []):
            if point.goodput_tps < KNEE_GOODPUT_RATIO * point.offered_tps:
                return point.offered_tps
        return None

    def fee_escalation(self, protocol: str) -> float | None:
        """Peak base fee over initial at the highest swept rate."""

        curve = self.curves.get(protocol, [])
        if not curve:
            return None
        final = curve[-1]
        initial = self.config.initial_base_fee
        return final.base_fee_max / initial if initial else None


def _run_point(
    config: Fig8Config,
    env: ExperimentEnvironment | None,
    protocol: str,
    rate_tps: float,
) -> PopulationResult:
    """One sustained-load point: one protocol under one offered rate."""

    population = ClientPopulation(config.population_config(rate_tps))
    market = config.fee_market()
    policy = config.mempool_policy()
    if protocol == "ingest":
        return run_ingest(
            population,
            duration_ms=config.duration_ms,
            drain_ms=config.drain_ms,
            service_tps=config.service_tps,
            policy=policy,
            fee_market=market,
            window_ms=config.window_ms,
            target_occupancy=config.target_occupancy,
            sketch_capacity=config.sketch_capacity,
        )
    if env is None:
        raise ValueError(f"protocol {protocol!r} needs a built environment")
    with protocol_factories(env)[protocol]() as system:
        system.network.capacity = CapacityModel(config.capacity_config())
        driver = PopulationDriver(
            system,
            population,
            protocol=protocol,
            fee_market=market,
            policy=policy,
            delivery_fraction=config.delivery_fraction,
            sketch_capacity=config.sketch_capacity,
            window_ms=config.window_ms,
            target_occupancy=config.target_occupancy,
        )
        return driver.run(config.duration_ms, drain_ms=config.drain_ms)


_CELL_FIELDS: tuple[str, ...] = (
    "num_nodes",
    "f",
    "k",
    "duration_ms",
    "drain_ms",
    "num_clients",
    "session_duration_ms",
    "session_tx_rate_tps",
    "zipf_s",
    "initial_base_fee",
    "fee_update_interval_ms",
    "target_occupancy",
    "mempool_max_size",
    "mempool_ttl_ms",
    "uplink_kb_per_s",
    "downlink_kb_per_s",
    "queue_bytes",
    "window_ms",
    "delivery_fraction",
    "sketch_capacity",
    "service_tps",
    "seed",
)


def cell_params(config: Fig8Config) -> list[dict[str, Any]]:
    """The sweep grid: one cell per (protocol, offered rate)."""

    base = {name: getattr(config, name) for name in _CELL_FIELDS}
    return [
        {"protocol": protocol, "rate_tps": rate, **base}
        for protocol in config.protocols
        for rate in config.rates_tps
    ]


def _config_from_params(params: Mapping[str, Any]) -> Fig8Config:
    defaults = Fig8Config()
    kwargs: dict[str, Any] = {}
    for name in _CELL_FIELDS:
        default = getattr(defaults, name)
        value = params.get(name, default)
        kwargs[name] = type(default)(value)
    return Fig8Config(**kwargs)


def run_cell(params: Mapping[str, Any]) -> dict[str, Any]:
    """Measure one sustained-load point; the ``fig8.point`` runner task."""

    config = _config_from_params(params)
    protocol = str(params["protocol"])
    env = None
    if protocol != "ingest":
        env = build_environment(
            num_nodes=config.num_nodes, f=config.f, k=config.k, seed=config.seed
        )
    result = _run_point(config, env, protocol, float(params["rate_tps"]))
    return result.to_json()


def fold(config: Fig8Config, results: Iterable[Mapping[str, Any]]) -> Fig8Result:
    """Fold the points' results into per-protocol sustained curves."""

    curves: dict[str, list[PopulationResult]] = {}
    for result in results:
        point = PopulationResult.from_json(result)
        curves.setdefault(point.protocol, []).append(point)
    for curve in curves.values():
        curve.sort(key=lambda point: point.offered_tps)
    ordered = {
        protocol: curves[protocol]
        for protocol in config.protocols
        if protocol in curves
    }
    return Fig8Result(config=config, curves=ordered)


def format_result(result: Fig8Result) -> str:
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
                cell(point.p99_ms),
                point.base_fee_max,
                point.evicted + point.expired + point.rejected,
            ]
            for point in curve
        ]
        knee = result.knee_tps(protocol)
        title = (
            f"Fig. 8 — {protocol} sustained load, N={result.config.num_nodes}, "
            f"{result.config.num_clients:,} clients, "
            f"{result.config.duration_ms / 1000:.0f}s"
        )
        table = format_table(
            [
                "offered tx/s",
                "goodput tx/s",
                "p50 ms",
                "p95 ms",
                "p99 ms",
                "base fee max",
                "drops",
            ],
            rows,
            title=title,
        )
        knee_line = (
            f"knee: {knee:.1f} tx/s" if knee is not None else "knee: beyond sweep"
        )
        escalation = result.fee_escalation(protocol)
        if escalation is not None:
            knee_line += f"; base-fee escalation at top rate: {escalation:.2f}x"
        tables.append(f"{table}\n{knee_line}")
    return "\n\n".join(tables)


FIGURE = Figure(
    name="fig8",
    task="fig8.point",
    config=Fig8Config,
    quick={
        "num_nodes": 16,
        "rates_tps": (2.0, 8.0, 24.0),
        "duration_ms": 20_000.0,
        "drain_ms": 3_000.0,
        "num_clients": 100_000,
    },
    cells=cell_params,
    run_cell=run_cell,
    fold=fold,
    format=format_result,
)

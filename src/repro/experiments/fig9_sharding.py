"""Fig. 9 — sharding scaling grid: aggregate goodput and cross-shard fairness.

The extension experiment for :mod:`repro.sharding`.  One fixed pool of
``total_nodes`` nodes with fixed per-node capacity is deployed as 1, 2, 4, …
shards (:class:`~repro.sharding.ShardedSystem`: independent TRS committees,
overlay families and capacity books per shard) and measured on two axes:

* **goodput scaling** — one open-loop arrival schedule at a rate past the
  unsharded knee, split across shards by the seeded
  :class:`~repro.sharding.ShardMap`.  The headline quantity is
  ``aggregate_goodput(k) / aggregate_goodput(1)``: sharding wins twice, by
  running committees in parallel *and* by shrinking each transaction's
  replication domain to one shard;
* **cross-shard fairness** — the PR 7 strategy zoo
  (:func:`~repro.sharding.run_sharded_adversary_trial`) run per shard at
  each adversary fraction, folded into the system-wide γ / inversion-rate
  verdict by :func:`~repro.sharding.cross_shard_fairness` (worst shard's γ;
  pair-weighted inversions).

Each grid cell — ``(num_shards, protocol, strategy, fraction)``, where
strategy ``none`` marks the goodput cells — is one content-addressed runner
task (``fig9.point``), so the sweep resumes for free:
``python -m repro sweep --figure fig9``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..load.arrival import make_arrivals
from ..load.capacity import CapacityConfig
from ..sharding.system import ShardedSystem
from ..sharding.trial import run_sharded_adversary_trial
from ..sharding.workload import ShardedLoadDriver, ShardedLoadResult
from ..utils.tables import format_table
from .figure import Figure
from .harness import build_environment

__all__ = [
    "FIGURE",
    "Fig9Config",
    "Fig9Result",
    "format_result",
    "cell_params",
    "run_cell",
    "fold",
]

#: Marks the goodput (honest open-loop load) cells of the grid.
NO_STRATEGY = "none"

#: Shard counts swept by default; 1 is the unsharded baseline every scaling
#: ratio is normalized against.
DEFAULT_SHARDS = (1, 2, 4)

DEFAULT_STRATEGIES = (NO_STRATEGY, "sandwich", "censor-reorder")

DEFAULT_FRACTIONS = (0.1, 0.2)


@dataclass(frozen=True, slots=True)
class Fig9Config:
    shard_counts: tuple[int, ...] = DEFAULT_SHARDS
    protocols: tuple[str, ...] = ("hermes",)
    strategies: tuple[str, ...] = DEFAULT_STRATEGIES
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS
    #: Fixed node pool re-deployed at every shard count — must divide evenly
    #: by every entry of ``shard_counts``.
    total_nodes: int = 48
    f: int = 1
    #: Overlays per shard.
    k: int = 3
    # Goodput half: offered rate past the unsharded knee (per-node capacity
    # is the same modest 32 KB/s uplink as Fig. 6 at every shard count).
    rate_tps: float = 80.0
    pattern: str = "poisson"
    zipf_s: float = 0.0
    duration_ms: float = 5_000.0
    drain_ms: float = 2_000.0
    map_policy: str = "uniform"
    map_seed: int = 0
    uplink_kb_per_s: float = 32.0
    downlink_kb_per_s: float = 128.0
    queue_bytes: int = 32 * 1024
    delivery_fraction: float = 0.99
    # Fairness half: per-shard strategy-zoo trials (fig7 conventions — pure
    # overlay dissemination, gossip fallback off).
    trials: int = 3
    background_txs: int = 24
    trial_horizon_ms: float = 5_000.0
    seed: int = 0

    def capacity_config(self) -> CapacityConfig:
        return CapacityConfig(
            uplink_kb_per_s=self.uplink_kb_per_s,
            downlink_kb_per_s=self.downlink_kb_per_s,
            queue_bytes=self.queue_bytes,
        )


@dataclass(frozen=True, slots=True)
class Fig9Result:
    config: Fig9Config
    #: (num_shards, protocol) -> the honest open-loop load measurement.
    goodput: dict[tuple[int, str], ShardedLoadResult] = field(
        default_factory=dict
    )
    #: (num_shards, protocol, strategy, fraction) -> aggregated fairness cell.
    fairness: dict[tuple[int, str, str, float], dict[str, Any]] = field(
        default_factory=dict
    )

    def scaling(self, num_shards: int, protocol: str) -> float | None:
        """``aggregate_goodput(num_shards) / aggregate_goodput(1)``."""

        base = self.goodput.get((1, protocol))
        point = self.goodput.get((num_shards, protocol))
        if base is None or point is None or base.aggregate_goodput_tps <= 0:
            return None
        return point.aggregate_goodput_tps / base.aggregate_goodput_tps


def _trial_seed(strategy: str, fraction: float, num_shards: int, trial: int) -> int:
    """Deterministic, collision-free seed per fairness trial (fig7 style)."""

    return (
        1_000_000 * sum(ord(ch) for ch in strategy)
        + 10_000 * int(round(fraction * 100))
        + 100 * num_shards
        + trial
    )


def _run_goodput_cell(
    config: Fig9Config, num_shards: int, protocol: str
) -> ShardedLoadResult:
    with ShardedSystem(
        num_shards,
        config.total_nodes,
        protocol=protocol,
        f=config.f,
        k=config.k,
        seed=config.seed,
        map_policy=config.map_policy,
        map_seed=config.map_seed,
        capacity=config.capacity_config(),
    ) as system:
        arrivals = make_arrivals(
            config.pattern,
            rate_tps=config.rate_tps,
            origins=list(range(config.total_nodes)),
            seed=config.seed,
            zipf_s=config.zipf_s,
        )
        driver = ShardedLoadDriver(
            system,
            arrivals,
            protocol=protocol,
            delivery_fraction=config.delivery_fraction,
        )
        return driver.run(config.duration_ms, config.drain_ms)


def _run_fairness_cell(
    config: Fig9Config,
    num_shards: int,
    protocol: str,
    strategy: str,
    fraction: float,
) -> dict[str, Any]:
    records = []
    for trial in range(config.trials):
        result = run_sharded_adversary_trial(
            num_shards,
            config.total_nodes,
            strategy=strategy,
            malicious_fraction=fraction,
            protocol=protocol,
            f=config.f,
            k=config.k,
            seed=config.seed,
            hermes_overrides={"gossip_fallback_enabled": False},
            trial_seed=_trial_seed(strategy, fraction, num_shards, trial),
            background_txs=config.background_txs,
            horizon_ms=config.trial_horizon_ms,
        )
        records.append(result.as_record())
    trials = len(records)
    return {
        "num_shards": num_shards,
        "protocol": protocol,
        "strategy": strategy,
        "fraction": fraction,
        "trials": trials,
        "gamma_mean": sum(r["gamma"] for r in records) / trials,
        "gamma_min": min(r["gamma"] for r in records),
        "inversion_mean": sum(r["inversion_rate"] for r in records) / trials,
        "attacker_wins": sum(r["attacker_wins"] for r in records),
        "victims_censored": sum(r["victims_censored"] for r in records),
        "records": records,
    }


_CELL_FIELDS: tuple[str, ...] = (
    "total_nodes",
    "f",
    "k",
    "rate_tps",
    "pattern",
    "zipf_s",
    "duration_ms",
    "drain_ms",
    "map_policy",
    "map_seed",
    "uplink_kb_per_s",
    "downlink_kb_per_s",
    "queue_bytes",
    "delivery_fraction",
    "trials",
    "background_txs",
    "trial_horizon_ms",
    "seed",
)


def cell_params(config: Fig9Config) -> list[dict[str, Any]]:
    """The grid: per (shards, protocol) one goodput cell plus the strategy ×
    fraction fairness cells."""

    base = {name: getattr(config, name) for name in _CELL_FIELDS}
    cells: list[dict[str, Any]] = []
    for num_shards in config.shard_counts:
        for protocol in config.protocols:
            cells.append(
                {
                    "num_shards": num_shards,
                    "protocol": protocol,
                    "strategy": NO_STRATEGY,
                    "fraction": 0.0,
                    **base,
                }
            )
            for strategy in config.strategies:
                if strategy == NO_STRATEGY:
                    continue
                for fraction in config.fractions:
                    cells.append(
                        {
                            "num_shards": num_shards,
                            "protocol": protocol,
                            "strategy": strategy,
                            "fraction": fraction,
                            **base,
                        }
                    )
    return cells


def _config_from_params(params: Mapping[str, Any]) -> Fig9Config:
    defaults = Fig9Config()
    kwargs: dict[str, Any] = {}
    for name in _CELL_FIELDS:
        default = getattr(defaults, name)
        value = params.get(name, default)
        kwargs[name] = type(default)(value)
    return Fig9Config(**kwargs)


def run_cell(params: Mapping[str, Any]) -> dict[str, Any]:
    """Measure one grid cell; the ``fig9.point`` runner task."""

    config = _config_from_params(params)
    num_shards = int(params["num_shards"])
    protocol = str(params["protocol"])
    strategy = str(params.get("strategy", NO_STRATEGY))
    # Warm the memoized per-shard environment the deployment builds on.
    build_environment(
        num_nodes=config.total_nodes // num_shards,
        f=config.f,
        k=config.k,
        seed=config.seed,
    )
    if strategy == NO_STRATEGY:
        result = _run_goodput_cell(config, num_shards, protocol)
        return {
            "kind": "goodput",
            "num_shards": num_shards,
            "protocol": protocol,
            "result": result.to_json(),
        }
    cell = _run_fairness_cell(
        config, num_shards, protocol, strategy, float(params["fraction"])
    )
    return {"kind": "fairness", **cell}


def fold(config: Fig9Config, results: Iterable[Mapping[str, Any]]) -> Fig9Result:
    """Fold the cells' results into the scaling grid."""

    goodput: dict[tuple[int, str], ShardedLoadResult] = {}
    fairness: dict[tuple[int, str, str, float], dict[str, Any]] = {}
    for doc in results:
        if doc.get("kind") == "goodput":
            goodput[(int(doc["num_shards"]), str(doc["protocol"]))] = (
                ShardedLoadResult.from_json(doc["result"])
            )
        elif doc.get("kind") == "fairness":
            key = (
                int(doc["num_shards"]),
                str(doc["protocol"]),
                str(doc["strategy"]),
                float(doc["fraction"]),
            )
            fairness[key] = dict(doc)
    return Fig9Result(config=config, goodput=goodput, fairness=fairness)


def format_result(result: Fig9Result) -> str:
    config = result.config
    tables = []
    for protocol in config.protocols:
        rows = []
        for num_shards in config.shard_counts:
            point = result.goodput.get((num_shards, protocol))
            if point is None:
                continue
            scaling = result.scaling(num_shards, protocol)
            rows.append(
                [
                    num_shards,
                    point.offered_tps,
                    point.aggregate_goodput_tps,
                    float("nan") if scaling is None else scaling,
                    float("nan") if point.p95_ms is None else point.p95_ms,
                    point.routed_fraction,
                ]
            )
        if rows:
            tables.append(
                format_table(
                    [
                        "shards",
                        "offered tx/s",
                        "goodput tx/s",
                        "vs k=1",
                        "p95 ms",
                        "routed",
                    ],
                    rows,
                    title=(
                        f"Fig. 9 — {protocol} aggregate goodput scaling, "
                        f"N={config.total_nodes} total, "
                        f"{config.uplink_kb_per_s:.0f} KB/s uplinks"
                    ),
                )
            )
        rows = []
        for num_shards in config.shard_counts:
            for strategy in config.strategies:
                if strategy == NO_STRATEGY:
                    continue
                for fraction in config.fractions:
                    cell = result.fairness.get(
                        (num_shards, protocol, strategy, fraction)
                    )
                    if cell is None:
                        continue
                    rows.append(
                        [
                            num_shards,
                            strategy,
                            fraction,
                            cell["gamma_mean"],
                            cell["inversion_mean"],
                            cell["attacker_wins"],
                            cell["victims_censored"],
                        ]
                    )
        if rows:
            tables.append(
                format_table(
                    [
                        "shards",
                        "strategy",
                        "fraction",
                        "gamma",
                        "inversions",
                        "wins",
                        "censored",
                    ],
                    rows,
                    title=(
                        f"Fig. 9 — {protocol} cross-shard fairness under the "
                        f"strategy zoo ({config.trials} trials/cell)"
                    ),
                )
            )
    return "\n\n".join(tables)


FIGURE = Figure(
    name="fig9",
    task="fig9.point",
    config=Fig9Config,
    quick={
        "shard_counts": (1, 2),
        "total_nodes": 32,
        "duration_ms": 3_000.0,
        "trials": 2,
    },
    cells=cell_params,
    run_cell=run_cell,
    fold=fold,
    format=format_result,
)

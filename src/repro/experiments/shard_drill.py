"""The cross-shard partition drill — one committee islanded, the rest must not care.

The resilience half of :mod:`repro.sharding`: per protocol, one cell runs
:func:`~repro.sharding.chaos.run_cross_shard_partition`, which islands one
shard's TRS committee under the ``cross-shard-partition`` builtin scenario and
snapshots every shard's delivery liveness at its deadlines.  The table's
verdict line is the containment invariant: every untouched shard stayed
live::

    python -m repro sweep --figure drill --set num_shards=3 --set shard_size=16
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from ..sharding.chaos import run_cross_shard_partition
from .figure import Figure

__all__ = ["FIGURE", "DrillConfig", "cell_params", "run_cell", "fold", "format_result"]


@dataclass(frozen=True, slots=True)
class DrillConfig:
    num_shards: int = 3
    #: Nodes per shard.
    shard_size: int = 16
    protocols: tuple[str, ...] = ("hermes",)
    #: The shard whose committee is islanded.
    partitioned_shard: int = 0
    f: int = 1
    k: int = 4
    seed: int = 0


def cell_params(config: DrillConfig) -> list[dict[str, Any]]:
    """One cell per protocol."""

    return [
        {
            "num_shards": config.num_shards,
            "shard_size": config.shard_size,
            "protocol": protocol,
            "partitioned_shard": config.partitioned_shard,
            "f": config.f,
            "k": config.k,
            "seed": config.seed,
        }
        for protocol in config.protocols
    ]


def run_cell(params: Mapping[str, Any]) -> dict[str, Any]:
    """One drill; the ``drill.protocol`` runner task."""

    report = run_cross_shard_partition(
        int(params["num_shards"]),
        int(params["shard_size"]),
        protocol=str(params["protocol"]),
        partitioned_shard=int(params["partitioned_shard"]),
        f=int(params["f"]),
        k=int(params["k"]),
        seed=int(params["seed"]),
    )
    return report.to_json()


def fold(
    config: DrillConfig, results: Iterable[Mapping[str, Any]]
) -> tuple[DrillConfig, list[Mapping[str, Any]]]:
    """The config and the cells' report documents, in protocol order."""

    return config, list(results)


def format_result(result: tuple[DrillConfig, list[Mapping[str, Any]]]) -> str:
    config, reports = result
    blocks = []
    for report in reports:
        lines = [
            f"{report['scenario']}: shard {report['partitioned_shard']} committee "
            f"islanded, {report['num_shards']} shards x "
            f"{config.shard_size} nodes ({report['protocol']})",
            "  shard  partitioned  delivered  min_coverage  live",
        ]
        for entry in report["per_shard"]:
            lines.append(
                f"  {entry['shard']:5d}  {str(entry['partitioned']):>11}  "
                f"{entry['delivered_by_deadline']:4d}/{entry['transactions']:<4d}  "
                f"{entry['min_coverage']:12.2f}  {str(entry['live']):>4}"
            )
        verdict = "PASS" if report["healthy_shards_live"] else "FAIL"
        lines.append(f"  containment invariant (healthy shards live): {verdict}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


FIGURE = Figure(
    name="drill",
    task="drill.protocol",
    config=DrillConfig,
    quick={"num_shards": 2, "shard_size": 12, "k": 3},
    cells=cell_params,
    run_cell=run_cell,
    fold=fold,
    format=format_result,
)

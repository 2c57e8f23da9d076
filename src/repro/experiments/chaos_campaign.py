"""Chaos campaigns — one scenario against each protocol, invariants checked online.

The extension experiment for :mod:`repro.chaos`: a scenario's timeline of
behaviour flips, partitions, latency/loss windows, churn and forgeries is
compiled onto one deployment per protocol, and the online
:class:`~repro.chaos.InvariantSuite` judges sequence uniqueness,
accountability, delivery liveness and overlay connectivity.  Each protocol is
one content-addressed runner cell (``chaos.run``), so campaigns resume and
parallelize like any figure::

    python -m repro sweep --figure chaos --set scenario=frontrun-burst

A failed invariant is a result, not an error: the baselines are expected to
break under heavy adversaries (``docs/chaos.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from ..chaos import ChaosReport, get_scenario, run_chaos
from .figure import Figure

__all__ = ["FIGURE", "ChaosConfig", "cell_params", "run_cell", "fold", "format_result"]


@dataclass(frozen=True, slots=True)
class ChaosConfig:
    #: A bundled scenario name or a path to a scenario JSON file.
    scenario: str = "escalation"
    protocols: tuple[str, ...] = ("hermes", "lzero")
    num_nodes: int = 48
    f: int = 1
    k: int = 4
    seed: int = 0


def cell_params(config: ChaosConfig) -> list[dict[str, Any]]:
    """One cell per protocol; an unknown scenario fails here, before any runs."""

    get_scenario(config.scenario)
    return [
        {
            "scenario": config.scenario,
            "protocol": protocol,
            "num_nodes": config.num_nodes,
            "f": config.f,
            "k": config.k,
            "seed": config.seed,
        }
        for protocol in config.protocols
    ]


def run_cell(params: Mapping[str, Any]) -> dict[str, Any]:
    """One chaos campaign: a scenario against one protocol (see docs/chaos.md).

    Parameters: ``scenario`` ('escalation' — a bundled name or a path to a
    scenario JSON file), ``protocol`` ('hermes'), ``num_nodes`` (48), ``f``
    (1), ``k`` (4), ``seed`` (0).  Returns the full
    :class:`~repro.chaos.report.ChaosReport` as JSON — deterministic for a
    given parameter set, so finished sweeps replay entirely from the store.
    """

    scenario = get_scenario(str(params.get("scenario", "escalation")))
    report = run_chaos(
        scenario,
        protocol=str(params.get("protocol", "hermes")),
        num_nodes=int(params.get("num_nodes", 48)),
        f=int(params.get("f", 1)),
        k=int(params.get("k", 4)),
        seed=int(params.get("seed", 0)),
    )
    return report.to_json()


def fold(config: ChaosConfig, results: Iterable[Mapping[str, Any]]) -> list[ChaosReport]:
    """The cells' reports, in protocol order."""

    return [ChaosReport.from_json(doc) for doc in results]


def format_result(reports: list[ChaosReport]) -> str:
    return "\n\n".join(
        f"{report.format()}\n  report hash: {report.content_hash()}"
        for report in reports
    )


FIGURE = Figure(
    name="chaos",
    task="chaos.run",
    config=ChaosConfig,
    quick={"num_nodes": 24, "k": 3},
    cells=cell_params,
    run_cell=run_cell,
    fold=fold,
    format=format_result,
)

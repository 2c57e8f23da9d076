"""Fig. 5b — delivery probability vs fraction of Byzantine nodes.

A fraction of nodes silently drops everything it should relay; robustness is
the probability an honest node still receives a disseminated message within
the horizon.  HERMES runs its full protocol including the §VII-A gossip
fallback (it is part of the design, activated after delay T).

Paper values (10% → 33%): HERMES 99.9% → 95%, L∅ 97.5% → 80%,
Narwhal 95% → 79%, Mercury 89% → 55%.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..adversary.zoo import run_censorship_trial
from ..utils.rng import derive_rng
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
    "Fig5bConfig",
    "Fig5bResult",
    "format_result",
    "PAPER_VALUES",
    "cell_params",
    "run_cell",
    "fold",
]

# The §VII-A gossip fallback is part of the protocol under test here.
_HERMES_OVERRIDES = {
    "gossip_fallback_enabled": True,
    "gossip_fallback_delay_ms": 500.0,
    "gossip_period_ms": 250.0,
}

PAPER_VALUES = {
    "hermes": {0.10: 0.999, 0.33: 0.95},
    "lzero": {0.10: 0.975, 0.33: 0.80},
    "narwhal": {0.10: 0.95, 0.33: 0.79},
    "mercury": {0.10: 0.89, 0.33: 0.55},
}


@dataclass(frozen=True, slots=True)
class Fig5bConfig:
    num_nodes: int = 150
    f: int = 1
    k: int = 10
    fractions: tuple[float, ...] = (0.10, 0.20, 0.33)
    trials: int = 10
    horizon_ms: float = 2_000.0
    seed: int = 0


@dataclass(frozen=True, slots=True)
class Fig5bResult:
    config: Fig5bConfig
    # protocol -> fraction -> mean honest coverage in [0, 1]
    coverage: dict[str, dict[float, float]]
    # protocol -> fraction -> total ViolationLog entries across trials (0 for
    # protocols without an accountability layer).
    violations: dict[str, dict[float, int]] = field(default_factory=dict)

    def ordering_at(self, fraction: float) -> list[str]:
        """Protocols from most to least robust."""

        return sorted(
            self.coverage, key=lambda p: self.coverage[p][fraction], reverse=True
        )


def _trial_senders(config: Fig5bConfig, env: ExperimentEnvironment) -> list[int]:
    """The deterministic sender of every trial index."""

    rng = derive_rng(config.seed, "fig5b-senders")
    nodes = env.physical.nodes()
    return [rng.choice(nodes) for _ in range(config.trials)]


def _trial_seed(fraction: float, trial: int) -> int:
    return 2000 * int(fraction * 100) + trial


def cell_params(config: Fig5bConfig) -> list[dict[str, Any]]:
    """The repetition grid: one cell per (protocol, fraction, trial)."""

    return [
        {
            "protocol": name,
            "num_nodes": config.num_nodes,
            "f": config.f,
            "k": config.k,
            "fraction": fraction,
            "trial": trial,
            "trials": config.trials,
            "horizon_ms": config.horizon_ms,
            "seed": config.seed,
        }
        for name in PROTOCOL_NAMES
        for fraction in config.fractions
        for trial in range(config.trials)
    ]


def run_cell(params: Mapping[str, Any]) -> dict[str, Any]:
    """Run one censorship trial; the ``fig5b.trial`` runner task."""

    config = Fig5bConfig(
        num_nodes=int(params["num_nodes"]),
        f=int(params.get("f", 1)),
        k=int(params.get("k", 10)),
        trials=int(params["trials"]),
        horizon_ms=float(params.get("horizon_ms", 2_000.0)),
        seed=int(params.get("seed", 0)),
    )
    env = build_environment(
        num_nodes=config.num_nodes, f=config.f, k=config.k, seed=config.seed
    )
    factories = protocol_factories(env, hermes_overrides=dict(_HERMES_OVERRIDES))
    name = str(params["protocol"])
    fraction = float(params["fraction"])
    trial = int(params["trial"])
    nodes = env.physical.nodes()
    sender = _trial_senders(config, env)[trial]
    factory = factories[name]
    result = run_censorship_trial(
        lambda plan: factory(plan),
        nodes,
        fraction,
        sender,
        horizon_ms=config.horizon_ms,
        seed=_trial_seed(fraction, trial),
    )
    return {
        "protocol": name,
        "fraction": fraction,
        "trial": trial,
        "coverage": result.coverage,
        "violations": (
            result.violation_summary["total"]
            if result.violation_summary is not None
            else 0
        ),
    }


def fold(config: Fig5bConfig, results: Iterable[Mapping[str, Any]]) -> Fig5bResult:
    """Fold the trials' results into mean coverage per cell."""

    samples: dict[str, dict[float, list[float]]] = {}
    evidence: dict[str, dict[float, int]] = {}
    for result in results:
        by_fraction = samples.setdefault(result["protocol"], {})
        by_fraction.setdefault(result["fraction"], []).append(result["coverage"])
        # Records written before the violation column existed fold as zero.
        counts = evidence.setdefault(result["protocol"], {})
        counts[result["fraction"]] = counts.get(result["fraction"], 0) + result.get(
            "violations", 0
        )
    coverage = {
        name: {
            fraction: statistics.mean(values)
            for fraction, values in by_fraction.items()
        }
        for name, by_fraction in samples.items()
    }
    return Fig5bResult(config=config, coverage=coverage, violations=evidence)


def format_result(result: Fig5bResult) -> str:
    fractions = result.config.fractions
    headers = ["protocol"] + [f"{f:.0%} byzantine" for f in fractions] + [
        "paper (10%→33%)",
        "evidence",
    ]
    rows = []
    for name, by_fraction in result.coverage.items():
        paper = PAPER_VALUES.get(name, {})
        evidence = sum(result.violations.get(name, {}).values())
        rows.append(
            [name]
            + [f"{by_fraction[f]:.1%}" for f in fractions]
            + [f"{paper.get(0.10, 0):.1%}→{paper.get(0.33, 0):.1%}"]
            + [str(evidence) if evidence else "-"]
        )
    return format_table(
        headers,
        rows,
        title=(
            f"Fig. 5b — delivery probability, N={result.config.num_nodes}, "
            f"{result.config.trials} trials/point"
        ),
    )


FIGURE = Figure(
    name="fig5b",
    task="fig5b.trial",
    config=Fig5bConfig,
    quick={"num_nodes": 60, "trials": 4},
    cells=cell_params,
    run_cell=run_cell,
    fold=fold,
    format=format_result,
)

"""Fig. 5a — front-running success rate vs fraction of malicious nodes.

For each protocol and each malicious fraction, repeated trials pick a random
(victim sender, honest proposer) pair, let the first malicious observer race
an adversarial transaction against the victim's (with per-protocol injection
and censorship levers — see :mod:`repro.attacks.frontrun`), and count the
fraction of trials where the adversarial transaction precedes the victim's in
the proposer's block.

Paper values (10% → 33% malicious): HERMES 2% → 5.9%, L∅ 5% → 19%,
Narwhal 10% → 51%, Mercury 25% → 70%.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..attacks.frontrun import run_front_running_trial
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
    "Fig5aConfig",
    "Fig5aResult",
    "format_result",
    "PAPER_VALUES",
    "cell_params",
    "run_cell",
    "fold",
]

# protocol -> {fraction: paper success rate}
PAPER_VALUES = {
    "hermes": {0.10: 0.02, 0.33: 0.059},
    "lzero": {0.10: 0.05, 0.33: 0.19},
    "narwhal": {0.10: 0.10, 0.33: 0.51},
    "mercury": {0.10: 0.25, 0.33: 0.70},
}


@dataclass(frozen=True, slots=True)
class Fig5aConfig:
    num_nodes: int = 150
    f: int = 1
    k: int = 10
    fractions: tuple[float, ...] = (0.10, 0.20, 0.33)
    trials: int = 20
    horizon_ms: float = 4_000.0
    seed: int = 0


@dataclass(frozen=True, slots=True)
class Fig5aResult:
    config: Fig5aConfig
    # protocol -> fraction -> success rate in [0, 1]
    success_rates: dict[str, dict[float, float]]
    # protocol -> fraction -> total ViolationLog entries across trials (0 for
    # protocols without an accountability layer) — the evidence HERMES's
    # monitors produced while resisting the attack.
    violations: dict[str, dict[float, int]] = field(default_factory=dict)
    # protocol -> fraction -> count of trials where the victim transaction
    # never reached the proposer's block at all (the verdict's
    # ``victim_censored`` flag) — previously folded invisibly into the
    # "attack failed" bucket when no adversarial transaction landed either.
    censored: dict[str, dict[float, int]] = field(default_factory=dict)

    def rate(self, protocol: str, fraction: float) -> float:
        return self.success_rates[protocol][fraction]

    def ordering_at(self, fraction: float) -> list[str]:
        """Protocols from most to least front-running resistant."""

        return sorted(self.success_rates, key=lambda p: self.success_rates[p][fraction])


def _trial_pairs(
    config: Fig5aConfig, env: ExperimentEnvironment
) -> list[tuple[int, int]]:
    """The deterministic (victim, proposer) pair of every trial index."""

    rng = derive_rng(config.seed, "fig5a-pairs")
    nodes = env.physical.nodes()
    return [tuple(rng.sample(nodes, 2)) for _ in range(config.trials)]


def _trial_seed(fraction: float, trial: int) -> int:
    return 1000 * int(fraction * 100) + trial


def cell_params(config: Fig5aConfig) -> list[dict[str, Any]]:
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
    """Run one front-running trial; the ``fig5a.trial`` runner task.

    ``trials`` travels with every cell so the full (victim, proposer) pair
    list — drawn once per figure from the config seed — can be rebuilt and
    indexed by ``trial``.
    """

    config = Fig5aConfig(
        num_nodes=int(params["num_nodes"]),
        f=int(params.get("f", 1)),
        k=int(params.get("k", 10)),
        trials=int(params["trials"]),
        horizon_ms=float(params.get("horizon_ms", 4_000.0)),
        seed=int(params.get("seed", 0)),
    )
    env = build_environment(
        num_nodes=config.num_nodes, f=config.f, k=config.k, seed=config.seed
    )
    factories = protocol_factories(
        env, hermes_overrides={"gossip_fallback_enabled": False}
    )
    name = str(params["protocol"])
    fraction = float(params["fraction"])
    trial = int(params["trial"])
    nodes = env.physical.nodes()
    victim, proposer = _trial_pairs(config, env)[trial]
    result = run_front_running_trial(
        factories[name],
        nodes,
        fraction,
        victim,
        proposer,
        horizon_ms=config.horizon_ms,
        seed=_trial_seed(fraction, trial),
    )
    return {
        "protocol": name,
        "fraction": fraction,
        "trial": trial,
        "attacker_won": int(result.verdict.attacker_won),
        "victim_censored": int(result.verdict.victim_censored),
        "violations": (
            result.violation_summary["total"]
            if result.violation_summary is not None
            else 0
        ),
    }


def fold(config: Fig5aConfig, results: Iterable[Mapping[str, Any]]) -> Fig5aResult:
    """Fold the trials' results into per-(protocol, fraction) rates."""

    wins: dict[str, dict[float, int]] = {}
    evidence: dict[str, dict[float, int]] = {}
    suppressed: dict[str, dict[float, int]] = {}
    for result in results:
        by_fraction = wins.setdefault(result["protocol"], {})
        by_fraction[result["fraction"]] = (
            by_fraction.get(result["fraction"], 0) + result["attacker_won"]
        )
        # Records written before the violation/censorship columns existed
        # fold as zero.
        counts = evidence.setdefault(result["protocol"], {})
        counts[result["fraction"]] = counts.get(result["fraction"], 0) + result.get(
            "violations", 0
        )
        hidden = suppressed.setdefault(result["protocol"], {})
        hidden[result["fraction"]] = hidden.get(result["fraction"], 0) + result.get(
            "victim_censored", 0
        )
    rates = {
        name: {fraction: count / config.trials for fraction, count in by_fraction.items()}
        for name, by_fraction in wins.items()
    }
    return Fig5aResult(
        config=config, success_rates=rates, violations=evidence, censored=suppressed
    )


def format_result(result: Fig5aResult) -> str:
    fractions = result.config.fractions
    headers = ["protocol"] + [f"{f:.0%} malicious" for f in fractions] + [
        "paper (10%→33%)",
        "censored",
        "evidence",
    ]
    rows = []
    for name, by_fraction in result.success_rates.items():
        paper = PAPER_VALUES.get(name, {})
        evidence = sum(result.violations.get(name, {}).values())
        hidden = sum(result.censored.get(name, {}).values())
        rows.append(
            [name]
            + [f"{by_fraction[f]:.0%}" for f in fractions]
            + [f"{paper.get(0.10, 0):.0%}→{paper.get(0.33, 0):.0%}"]
            + [str(hidden) if hidden else "-"]
            + [str(evidence) if evidence else "-"]
        )
    return format_table(
        headers,
        rows,
        title=(
            f"Fig. 5a — front-running success rate, N={result.config.num_nodes}, "
            f"{result.config.trials} trials/point"
        ),
    )


FIGURE = Figure(
    name="fig5a",
    task="fig5a.trial",
    config=Fig5aConfig,
    quick={"num_nodes": 60, "trials": 6},
    cells=cell_params,
    run_cell=run_cell,
    fold=fold,
    format=format_result,
)

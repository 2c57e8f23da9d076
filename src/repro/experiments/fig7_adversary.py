"""Fig. 7 — the strategy zoo vs every protocol: success, value, fairness.

The front-running figure (5a) asks one binary question about one hard-coded
adversary.  This figure sweeps the full grid

    strategy × protocol × malicious fraction × trial

with the strategies of :mod:`repro.adversary.strategies` (``sandwich``,
``priority-race``, ``censor-reorder`` by default) against HERMES, the three
paper baselines, and the F3B commit-then-reveal defense, scoring every cell
three ways:

* **attack-success rate** — the paper's §VIII-F criterion, via
  :func:`~repro.mempool.ordering.judge_front_running` (including the
  ``victim_censored`` column);
* **extracted value** — gross and net profit under the trial's
  :class:`~repro.adversary.economics.ValueModel` (net can go negative:
  fees paid for legs that didn't pay off);
* **order-fairness** — γ-receive-order-fairness and the pairwise inversion
  rate over honest nodes' receive orders.

Expected shape (the acceptance check in
``tests/integration/test_fig7_acceptance.py`` pins the orderings at small
scale): HERMES's success rate and extracted value sit strictly below Narwhal
and Mercury — dissemination fairness is what it buys — while F3B crushes
*reactive* strategies outright (content reveals only after positions lock)
at a latency price fig3-style experiments would show.  Mercury is the soft
target: direct landmark injection plus deniable censorship.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from ..adversary.economics import ValueModel
from ..adversary.zoo import run_adversary_trial
from ..utils.rng import derive_rng
from ..utils.tables import format_table
from .figure import Figure
from .harness import ExperimentEnvironment, build_environment, protocol_factories

__all__ = [
    "FIGURE",
    "Fig7Config",
    "Fig7Cell",
    "Fig7Result",
    "PROTOCOLS",
    "STRATEGIES",
    "format_result",
    "cell_params",
    "run_cell",
    "fold",
]

#: The figure's protocol axis: the fig5a four plus the commit-then-reveal
#: defense (which exists in the harness but stays out of PROTOCOL_NAMES so
#: the committed fig3/5/6 outputs are untouched).
PROTOCOLS = ("hermes", "lzero", "narwhal", "mercury", "f3b")
#: The default strategy axis (extraction strategies; ``blackout`` and
#: ``flood`` have their own figures — 5b and the overload experiment).
STRATEGIES = ("sandwich", "priority-race", "censor-reorder")


@dataclass(frozen=True, slots=True)
class Fig7Config:
    num_nodes: int = 200
    f: int = 1
    k: int = 10
    protocols: tuple[str, ...] = PROTOCOLS
    strategies: tuple[str, ...] = STRATEGIES
    fractions: tuple[float, ...] = (0.10, 0.20, 0.33)
    trials: int = 10
    victim_value: float = 100.0
    victim_fee: float = 1.0
    fee_premium: float = 1.0
    background_txs: int = 10
    #: The proposer seals its block this long after the victim arrives;
    #: negative means no cutoff.
    proposal_delay_ms: float = 250.0
    horizon_ms: float = 4_000.0
    seed: int = 0

    def value_model(self) -> ValueModel:
        return ValueModel(
            victim_value=self.victim_value, fee_premium=self.fee_premium
        )


@dataclass(frozen=True, slots=True)
class Fig7Cell:
    """One (protocol, strategy, fraction) point, aggregated over trials."""

    success_rate: float
    censored_rate: float
    mean_gross: float
    mean_net: float
    mean_gamma: float
    mean_inversion: float
    mean_coverage: float
    violations: int
    trials: int


@dataclass(frozen=True, slots=True)
class Fig7Result:
    config: Fig7Config
    #: (protocol, strategy, fraction) -> aggregated cell.
    cells: dict[tuple[str, str, float], Fig7Cell]

    def cell(self, protocol: str, strategy: str, fraction: float) -> Fig7Cell:
        return self.cells[(protocol, strategy, fraction)]

    def protocol_success_rate(self, protocol: str) -> float:
        """Mean success rate across every strategy and fraction."""

        rates = [
            cell.success_rate
            for (name, _, _), cell in self.cells.items()
            if name == protocol
        ]
        return sum(rates) / len(rates) if rates else 0.0

    def protocol_extracted_value(self, protocol: str) -> float:
        """Mean gross extracted value across every strategy and fraction."""

        values = [
            cell.mean_gross
            for (name, _, _), cell in self.cells.items()
            if name == protocol
        ]
        return sum(values) / len(values) if values else 0.0

    def resistance_ordering(self) -> list[str]:
        """Protocols from most to least attack-resistant (by success rate,
        extracted value as the tie-break)."""

        return sorted(
            self.config.protocols,
            key=lambda name: (
                self.protocol_success_rate(name),
                self.protocol_extracted_value(name),
            ),
        )


def _trial_pairs(config: Fig7Config, env: ExperimentEnvironment) -> list[tuple[int, int]]:
    """The deterministic (victim, proposer) pair of every trial index."""

    rng = derive_rng(config.seed, "fig7-pairs")
    nodes = env.physical.nodes()
    return [tuple(rng.sample(nodes, 2)) for _ in range(config.trials)]


def _trial_seed(strategy: str, fraction: float, trial: int) -> int:
    """A stable per-cell seed; strategies must not share fault plans."""

    strategy_salt = sum(ord(ch) for ch in strategy)
    return 1_000_000 * strategy_salt + 1_000 * int(fraction * 100) + trial


def _environment(config: Fig7Config) -> ExperimentEnvironment:
    return build_environment(
        num_nodes=config.num_nodes, f=config.f, k=config.k, seed=config.seed
    )


def cell_params(config: Fig7Config) -> list[dict[str, Any]]:
    """The repetition grid: one cell per (protocol, strategy, fraction, trial)."""

    return [
        {
            "protocol": protocol,
            "strategy": strategy,
            "num_nodes": config.num_nodes,
            "f": config.f,
            "k": config.k,
            "fraction": fraction,
            "trial": trial,
            "trials": config.trials,
            "victim_value": config.victim_value,
            "victim_fee": config.victim_fee,
            "fee_premium": config.fee_premium,
            "background_txs": config.background_txs,
            "proposal_delay_ms": config.proposal_delay_ms,
            "horizon_ms": config.horizon_ms,
            "seed": config.seed,
        }
        for protocol in config.protocols
        for strategy in config.strategies
        for fraction in config.fractions
        for trial in range(config.trials)
    ]


def run_cell(params: Mapping[str, Any]) -> dict[str, Any]:
    """Run one zoo trial; the ``fig7.point`` runner task.

    ``trials`` travels with every cell so the (victim, proposer) pair list —
    drawn once per figure from the config seed — can be rebuilt and indexed
    by ``trial``.
    """

    config = Fig7Config(
        num_nodes=int(params["num_nodes"]),
        f=int(params.get("f", 1)),
        k=int(params.get("k", 10)),
        trials=int(params["trials"]),
        victim_value=float(params.get("victim_value", 100.0)),
        victim_fee=float(params.get("victim_fee", 1.0)),
        fee_premium=float(params.get("fee_premium", 1.0)),
        background_txs=int(params.get("background_txs", 10)),
        proposal_delay_ms=float(params.get("proposal_delay_ms", 250.0)),
        horizon_ms=float(params.get("horizon_ms", 4_000.0)),
        seed=int(params.get("seed", 0)),
    )
    env = _environment(config)
    factories = protocol_factories(
        env, hermes_overrides={"gossip_fallback_enabled": False}
    )
    protocol = str(params["protocol"])
    strategy = str(params["strategy"])
    fraction = float(params["fraction"])
    trial = int(params["trial"])
    victim, proposer = _trial_pairs(config, env)[trial]
    result = run_adversary_trial(
        factories[protocol],
        env.physical.nodes(),
        strategy,
        fraction,
        victim,
        proposer,
        value_model=config.value_model(),
        victim_fee=config.victim_fee,
        background_txs=config.background_txs,
        proposal_delay_ms=(
            None if config.proposal_delay_ms < 0 else config.proposal_delay_ms
        ),
        horizon_ms=config.horizon_ms,
        seed=_trial_seed(strategy, fraction, trial),
    )
    return {
        "protocol": protocol,
        "strategy": strategy,
        "fraction": fraction,
        "trial": trial,
        "attacker_won": int(result.verdict.attacker_won),
        "victim_censored": int(result.verdict.victim_censored),
        "gross": result.outcome.gross,
        "net": result.outcome.net,
        "gamma": result.fairness.gamma,
        "inversion_rate": result.fairness.inversion_rate,
        "coverage": result.victim_coverage,
        "violations": (
            result.violation_summary["total"]
            if result.violation_summary is not None
            else 0
        ),
    }


def fold(config: Fig7Config, results: Iterable[Mapping[str, Any]]) -> Fig7Result:
    """Fold the trials' results into per-(protocol, strategy, fraction) cells."""

    sums: dict[tuple[str, str, float], dict[str, float]] = {}
    for result in results:
        key = (result["protocol"], result["strategy"], result["fraction"])
        cell = sums.setdefault(
            key,
            {
                "won": 0.0,
                "censored": 0.0,
                "gross": 0.0,
                "net": 0.0,
                "gamma": 0.0,
                "inversion": 0.0,
                "coverage": 0.0,
                "violations": 0.0,
                "count": 0.0,
            },
        )
        cell["won"] += result["attacker_won"]
        cell["censored"] += result.get("victim_censored", 0)
        cell["gross"] += result["gross"]
        cell["net"] += result["net"]
        cell["gamma"] += result["gamma"]
        cell["inversion"] += result["inversion_rate"]
        cell["coverage"] += result["coverage"]
        cell["violations"] += result.get("violations", 0)
        cell["count"] += 1
    cells = {
        key: Fig7Cell(
            success_rate=values["won"] / values["count"],
            censored_rate=values["censored"] / values["count"],
            mean_gross=values["gross"] / values["count"],
            mean_net=values["net"] / values["count"],
            mean_gamma=values["gamma"] / values["count"],
            mean_inversion=values["inversion"] / values["count"],
            mean_coverage=values["coverage"] / values["count"],
            violations=int(values["violations"]),
            trials=int(values["count"]),
        )
        for key, values in sums.items()
    }
    return Fig7Result(config=config, cells=cells)


def format_result(result: Fig7Result) -> str:
    """One row per (strategy, protocol): success by fraction, value, fairness."""

    config = result.config
    fractions = config.fractions
    headers = (
        ["strategy", "protocol"]
        + [f"{fraction:.0%} mal" for fraction in fractions]
        + ["censored", "net value", "γ", "inversions", "evidence"]
    )
    top = max(fractions)
    rows = []
    for strategy in config.strategies:
        for protocol in config.protocols:
            cells = {
                fraction: result.cells.get((protocol, strategy, fraction))
                for fraction in fractions
            }
            if all(cell is None for cell in cells.values()):
                continue
            peak = cells.get(top)
            evidence = sum(
                cell.violations for cell in cells.values() if cell is not None
            )
            rows.append(
                [strategy, protocol]
                + [
                    f"{cell.success_rate:.0%}" if cell is not None else "-"
                    for cell in cells.values()
                ]
                + [
                    f"{peak.censored_rate:.0%}" if peak is not None else "-",
                    f"{peak.mean_net:+.1f}" if peak is not None else "-",
                    f"{peak.mean_gamma:.2f}" if peak is not None else "-",
                    f"{peak.mean_inversion:.3f}" if peak is not None else "-",
                    str(evidence) if evidence else "-",
                ]
            )
    return format_table(
        headers,
        rows,
        title=(
            f"Fig. 7 — strategy zoo, N={config.num_nodes}, "
            f"{config.trials} trials/point (censored/value/fairness at "
            f"{top:.0%} malicious)"
        ),
    )


FIGURE = Figure(
    name="fig7",
    task="fig7.point",
    config=Fig7Config,
    quick={"num_nodes": 60, "fractions": (0.20, 0.33), "trials": 4},
    cells=cell_params,
    run_cell=run_cell,
    fold=fold,
    format=format_result,
)

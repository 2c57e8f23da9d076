"""The adversary strategy zoo: agents, economics, fairness, trial runner.

This package turns the repo's fixed attack drivers into a pluggable
subsystem:

* :mod:`agent` — the :class:`StrategyAgent` base class (content / send /
  receive taps, coalition wiring) and the strategy registry;
* :mod:`strategies` — the built-in zoo: ``sandwich``, ``priority-race``,
  ``censor-reorder``, ``blackout``, ``flood``;
* :mod:`injection` — per-protocol action levers (how fast each protocol
  lets an adversary inject; where censorship is deniable);
* :mod:`economics` — extracted-value settlement: gross, fees, net;
* :mod:`fairness` — γ-receive-order-fairness and pairwise inversion rate
  over per-node receive orders;
* :mod:`zoo` — :func:`run_adversary_trial` scoring one strategy against one
  protocol, plus the migrated legacy censorship/overload trials.

On the command line the zoo runs as the Fig. 7 grid,
``python -m repro sweep --figure fig7`` (:mod:`repro.experiments.fig7_adversary`).

See ``docs/adversary.md`` for a worked example and
``docs/threat_model.md`` for how the zoo maps onto the paper's §VIII
adversary and the F3B / order-fairness literature.
"""

from .agent import (
    AgentContext,
    StrategyAgent,
    get_strategy,
    register_strategy,
    strategy_names,
)
from .economics import AttackLedger, AttackOutcome, AttackRecord, ValueModel
from .fairness import (
    FairnessReport,
    fairness_report,
    gamma_fairness,
    majority_order,
    pairwise_inversion_rate,
    receive_orders_from_mempools,
    receive_orders_from_trace,
)
from .injection import adversarial_strategy_for, censorship_is_deniable
from .strategies import (
    BlackoutStrategy,
    CensorReorderStrategy,
    FlooderNode,
    FloodStrategy,
    PriorityRaceStrategy,
    SandwichStrategy,
)
from .zoo import (
    AdversaryTrialResult,
    CensorshipResult,
    OverloadResult,
    run_adversary_trial,
    run_censorship_trial,
    run_overload_trial,
)

__all__ = [
    "AdversaryTrialResult",
    "AgentContext",
    "AttackLedger",
    "AttackOutcome",
    "AttackRecord",
    "BlackoutStrategy",
    "CensorReorderStrategy",
    "CensorshipResult",
    "FairnessReport",
    "FlooderNode",
    "FloodStrategy",
    "OverloadResult",
    "PriorityRaceStrategy",
    "SandwichStrategy",
    "StrategyAgent",
    "ValueModel",
    "adversarial_strategy_for",
    "censorship_is_deniable",
    "fairness_report",
    "gamma_fairness",
    "get_strategy",
    "majority_order",
    "pairwise_inversion_rate",
    "receive_orders_from_mempools",
    "receive_orders_from_trace",
    "register_strategy",
    "run_adversary_trial",
    "run_censorship_trial",
    "run_overload_trial",
    "strategy_names",
]

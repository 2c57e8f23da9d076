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

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "agent": (
            "AgentContext",
            "StrategyAgent",
            "get_strategy",
            "register_strategy",
            "strategy_names",
        ),
        "economics": ("AttackLedger", "AttackOutcome", "AttackRecord", "ValueModel"),
        "fairness": (
            "FairnessReport",
            "fairness_report",
            "gamma_fairness",
            "majority_order",
            "pairwise_inversion_rate",
            "receive_orders_from_mempools",
            "receive_orders_from_trace",
        ),
        "injection": ("adversarial_strategy_for", "censorship_is_deniable"),
        "strategies": (
            "BlackoutStrategy",
            "CensorReorderStrategy",
            "FlooderNode",
            "FloodStrategy",
            "PriorityRaceStrategy",
            "SandwichStrategy",
        ),
        "zoo": (
            "AdversaryTrialResult",
            "CensorshipResult",
            "OverloadResult",
            "run_adversary_trial",
            "run_censorship_trial",
            "run_overload_trial",
        ),
    },
)

"""repro.chaos — scenario-driven fault injection with online invariant checks.

The subsystem has four layers (see ``docs/chaos.md``):

* :mod:`repro.chaos.scenario` — declarative, JSON-round-trippable
  :class:`ChaosScenario` timelines (behavior flips, partitions, latency and
  loss windows, churn bursts, forgery injections) plus bundled campaigns;
* :mod:`repro.chaos.disruption` — the :class:`LinkDisruptor` the network
  consults per transmission while a window is active;
* :mod:`repro.chaos.invariants` — the online :class:`InvariantSuite`
  (sequence uniqueness, accountability, delivery liveness, overlay
  connectivity) with per-protocol duty adapters;
* :mod:`repro.chaos.engine` — :func:`run_chaos`, compiling a scenario onto a
  live system and producing a deterministic :class:`ChaosReport`.

Campaigns run from the shell as a figure, ``python -m repro sweep --figure
chaos`` (:mod:`repro.experiments.chaos_campaign`), one ``chaos.run`` runner
cell per protocol.
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "disruption": ("LinkDisruptor", "LinkVerdict"),
        "engine": ("run_chaos",),
        "invariants": ("InvariantSuite", "adapter_for"),
        "report": ("ChaosReport",),
        "scenario": (
            "BehaviorFlip",
            "ChaosEvent",
            "ChaosScenario",
            "ChaosWorkload",
            "ChurnBurst",
            "ForgeryInjection",
            "LatencySpike",
            "LossWindow",
            "RegionalPartition",
            "Restore",
            "builtin_scenarios",
            "get_scenario",
        ),
    },
)

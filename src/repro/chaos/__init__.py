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

from .disruption import LinkDisruptor, LinkVerdict
from .engine import run_chaos
from .invariants import InvariantSuite, adapter_for
from .report import ChaosReport
from .scenario import (
    BehaviorFlip,
    ChaosEvent,
    ChaosScenario,
    ChaosWorkload,
    ChurnBurst,
    ForgeryInjection,
    LatencySpike,
    LossWindow,
    RegionalPartition,
    Restore,
    builtin_scenarios,
    get_scenario,
)

__all__ = [
    "BehaviorFlip",
    "ChaosEvent",
    "ChaosReport",
    "ChaosScenario",
    "ChaosWorkload",
    "ChurnBurst",
    "ForgeryInjection",
    "InvariantSuite",
    "LatencySpike",
    "LinkDisruptor",
    "LinkVerdict",
    "LossWindow",
    "RegionalPartition",
    "Restore",
    "adapter_for",
    "builtin_scenarios",
    "get_scenario",
    "run_chaos",
]

"""``python -m repro`` — CLI entry point.

``python -m repro [report options]`` runs the full paper-reproduction
report (see :mod:`repro.experiments.report`); ``python -m repro sweep ...``
runs ad-hoc parameter sweeps through :mod:`repro.runner` (see
``python -m repro sweep --help`` and ``docs/runner.md``); ``python -m repro
chaos ...`` runs fault-injection campaigns with online invariant checking
(see ``python -m repro chaos --help`` and ``docs/chaos.md``); ``python -m
repro load ...`` sweeps offered load under finite link capacity (see
``python -m repro load --help`` and ``docs/load.md``); ``python -m repro
adversary ...`` runs attack strategies from the zoo against one protocol
(see ``python -m repro adversary --help`` and ``docs/adversary.md``); ``python -m
repro population ...`` sweeps sustained client-population load with a fee
market and bounded mempools (see ``python -m repro population --help`` and
``docs/population.md``); ``python -m repro shard ...`` runs sharded
multi-proposer deployments and the cross-shard partition drill (see
``python -m repro shard --help`` and ``docs/sharding.md``);
``python -m repro analyze / report / bench-gate`` run the trace analytics,
run-report and
regression-gate front ends (see :mod:`repro.obs.analysis` and
``docs/observability.md``); ``python -m repro analyze-sweep`` attributes a
sweep's wall time from a ``repro.sweeptrace/1`` timeline and ``python -m
repro bench history`` folds bench records into cross-run trajectories (see
``docs/observability.md``, "Measuring a sweep").
"""

import importlib
import sys

#: Sub-command words -> ``"module:function"`` (relative to ``repro``); the
#: function takes the argv after the words and returns the exit code.
#: Anything else runs the report.
COMMANDS = {
    "sweep": "runner.cli:main",
    "chaos": "chaos.cli:main",
    "load": "load.cli:main",
    "adversary": "adversary.cli:main",
    "population": "population.cli:main",
    "shard": "sharding.cli:main",
    "analyze": "obs.analysis.cli:analyze_main",
    "report": "obs.analysis.cli:report_main",
    "bench-gate": "obs.analysis.cli:bench_gate_main",
    "analyze-sweep": "obs.analysis.cli:analyze_sweep_main",
    "bench history": "obs.analysis.cli:bench_history_main",
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    for name, target in COMMANDS.items():
        words = name.split()
        if argv[: len(words)] == words:
            module, _, function = target.partition(":")
            command = getattr(importlib.import_module(f"repro.{module}"), function)
            return command(argv[len(words) :])
    from .experiments.report import main as report_main

    report_main(argv)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

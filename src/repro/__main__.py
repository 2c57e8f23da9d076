"""``python -m repro`` — CLI entry point.

``python -m repro [ARGS]`` runs the full paper-reproduction report: it is
``python -m repro sweep --figure all [ARGS]``, Table I and Figs. 2–5b in
order.  The sub-commands in :data:`COMMANDS`, each of which answers
``--help``:

* ``sweep`` — every figure (``--figure NAME``, its config fields set with
  ``--set field=value``; ``all`` for the report) and ad-hoc task grids
  (``--task NAME``) through :mod:`repro.runner` (``docs/runner.md``).  The
  load, adversary-zoo, population and sharding sweeps are ``--figure fig6``,
  ``fig7``, ``fig8`` and ``fig9``; chaos campaigns (``docs/chaos.md``) and the
  cross-shard partition drill (``docs/sharding.md``) are ``--figure chaos``
  and ``--figure drill``;
* ``analyze`` / ``report`` / ``bench-gate`` — trace analytics, run reports and
  the regression gate (:mod:`repro.obs.analysis`, ``docs/observability.md``);
* ``analyze-sweep`` / ``bench history`` — a sweep's wall time attributed from
  its ``repro.sweeptrace/1`` timeline, and bench records folded into
  cross-run trajectories (``docs/observability.md``, "Measuring a sweep").
"""

import importlib
import sys

#: Sub-command words -> ``"module:function"`` (relative to ``repro``); the
#: function takes the argv after the words and returns the exit code.
#: Anything else runs the report, ``sweep --figure all``.
COMMANDS = {
    "sweep": "runner.cli:main",
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
    return main(["sweep", "--figure", "all", *argv])


if __name__ == "__main__":
    raise SystemExit(main())

"""``python -m repro sweep`` — run ad-hoc parameter sweeps from the shell.

Two modes:

* ``--task NAME`` with repeated ``--set key=v1,v2,...`` flags builds a
  cartesian grid over the given axes and submits it to
  :func:`repro.runner.run_sweep`::

      python -m repro sweep --task dissemination \\
          --set protocol=hermes,lzero --set seed=0,1,2 \\
          --jobs 4 --results-dir results/adhoc

* ``--figure NAME`` submits that figure's grid and prints its table
  (``--list-figures`` enumerates them with one-line descriptions).  Here
  ``--set field=value`` sets one field of the figure's config dataclass
  (after ``--quick``); a tuple field takes the whole comma list::

      python -m repro sweep --figure fig5a --jobs 4 --results-dir results/f5a
      python -m repro sweep --figure fig6 --set protocols=hermes,lzero \\
          --set rates_tps=5,40 --set duration_ms=3000 --set seed=1

  ``--figure all`` runs the paper's evaluation, Table I and Figs. 2–5b
  (:data:`~repro.runner.tasks.REPORT`), one figure after the other, each
  stored under ``DIR/<name>`` with ``--results-dir DIR``; every ``--set``
  field must exist in all of them.  A bare ``python -m repro [ARGS]`` is
  ``python -m repro sweep --figure all [ARGS]``.

With ``--results-dir`` every completed cell lands as one JSON record in a
content-addressed store, and re-invoking the same sweep resumes: finished
cells are loaded instead of re-executed (disable with ``--no-resume``).

``--timeline PATH`` additionally records a ``repro.sweeptrace/1``
worker-lifecycle timeline (wall-clock phases of every run and worker) of one
sweep for ``python -m repro analyze-sweep``, and ``--progress`` renders a
live console line (cells done, runs/s, per-worker utilization, ETA) while
the sweep runs.  ``--trace OUT.JSONL`` (with ``--figure fig3a`` or ``all``)
runs the Fig. 3a cells in this process, instrumented with :mod:`repro.obs`:
the JSONL trace lands at OUT.JSONL and the metrics + profile manifest at
``OUT.manifest.json`` (``docs/observability.md``).
See ``docs/runner.md`` for the concepts and ``docs/observability.md``
("Measuring a sweep") for the telemetry layer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from typing import Any

from ..errors import ConfigurationError, ReproError
from .tasks import FIGURES, REPORT, get_figure

__all__ = ["main", "parse_axis"]

def parse_axis(text: str) -> tuple[str, list[Any]]:
    """``"key=v1,v2"`` → ``("key", [v1, v2])`` with JSON-typed values.

    Each value is decoded as JSON when possible (``3`` → int, ``0.5`` →
    float, ``true`` → bool) and kept as a bare string otherwise, so
    ``--set protocol=hermes,lzero --set seed=0,1`` does what it reads as.
    """

    key, sep, rest = text.partition("=")
    key = key.strip()
    if not sep or not key or not rest:
        raise ConfigurationError(
            f"bad --set {text!r}: expected key=value[,value...]"
        )
    values: list[Any] = []
    for raw in rest.split(","):
        raw = raw.strip()
        try:
            values.append(json.loads(raw))
        except json.JSONDecodeError:
            values.append(raw)
    return key, values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro sweep", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    what = parser.add_mutually_exclusive_group()
    what.add_argument("--task", help="registered task name (see --list-tasks)")
    what.add_argument(
        "--figure", choices=(*FIGURES, "all"),
        help="submit a figure's grid instead of an ad-hoc task "
        "(all: every paper figure in order)",
    )
    what.add_argument(
        "--list-tasks", action="store_true", help="print registered tasks and exit"
    )
    what.add_argument(
        "--list-figures", action="store_true",
        help="print the available --figure grids and exit",
    )
    parser.add_argument(
        "--set", dest="axes", metavar="KEY=V1[,V2...]", action="append", default=[],
        help="task mode: one grid axis, repeat for a cartesian product; "
        "figure mode: one config field (a tuple field takes the whole list)",
    )
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (default 1 = serial)")
    parser.add_argument(
        "--results-dir", metavar="DIR",
        help="content-addressed result store; enables resume across invocations",
    )
    parser.add_argument(
        "--no-resume", dest="resume", action="store_false",
        help="re-execute cells even when the store already has their records",
    )
    parser.add_argument("--timeout", type=float, metavar="SECONDS", help="per-run timeout")
    parser.add_argument(
        "--retries", type=int, default=2, help="requeue attempts after a worker crash (default 2)"
    )
    parser.add_argument(
        "--timeline", metavar="PATH",
        help="write a repro.sweeptrace/1 worker-lifecycle timeline (JSONL); "
        "feed it to `python -m repro analyze-sweep`",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="render a live console line (cells done, runs/s, per-worker "
        "utilization, ETA) from the telemetry stream",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller, faster figure configuration (figure mode)",
    )
    parser.add_argument(
        "--trace", metavar="OUT.JSONL",
        help="run the Fig. 3a cells in this process, instrumented; write a JSONL "
        "trace here and the metrics/profile manifest next to it (.manifest.json)",
    )
    return parser


def _build_telemetry(args: argparse.Namespace):
    """The optional SweepTelemetry collector behind --timeline/--progress."""

    if not args.timeline and not args.progress:
        return None
    from .telemetry import ProgressConsole, SweepTelemetry

    listener = ProgressConsole() if args.progress else None
    return SweepTelemetry(args.timeline, listener=listener)


def _grid(axes: list[str]) -> dict[str, list[Any]]:
    grid: dict[str, list[Any]] = {}
    for axis in axes:
        key, values = parse_axis(axis)
        if key in grid:
            raise ConfigurationError(f"duplicate --set axis {key!r}")
        grid[key] = values
    return grid


def _submit(args: argparse.Namespace, run):
    """``run(**options)`` with the sweep options and telemetry of *args*."""

    telemetry = _build_telemetry(args)
    try:
        return run(
            jobs=args.jobs,
            resume=args.resume,
            timeout_s=args.timeout,
            retries=args.retries,
            telemetry=telemetry,
        )
    finally:
        if telemetry is not None:
            telemetry.close()


def _run_figures(args: argparse.Namespace) -> None:
    """Run ``--figure`` (one, or every :data:`REPORT` figure) and print the
    summary line and table of each."""

    names = REPORT if args.figure == "all" else (args.figure,)
    overrides = _grid(args.axes)
    configs = {
        name: get_figure(name).make_config(quick=args.quick, **overrides)
        for name in names
    }
    obs = None
    if args.trace:
        from ..obs import Observability

        obs = Observability.enabled(profile=True)
    for name in names:
        figure = get_figure(name)
        if obs is not None and name == "fig3a":
            from ..experiments.fig3a_latency import run

            result = run(configs[name], obs=obs)
        else:
            store = args.results_dir
            if store is not None and len(names) > 1:
                store = os.path.join(store, name)
            result, report = _submit(
                args, partial(figure.run, configs[name], results_dir=store)
            )
            print(report.summary_line())
        print(figure.format(result))
        if len(names) > 1:
            print()
    if obs is not None:
        records = obs.write_trace(args.trace)
        manifest_path = args.trace.removesuffix(".jsonl") + ".manifest.json"
        obs.write_manifest(manifest_path, meta={
            "experiment": "fig3a", "quick": args.quick, "seed": configs["fig3a"].seed,
        })
        print(f"trace: {records} records -> {args.trace}")
        print(f"manifest: -> {manifest_path}")


def _run_task(args: argparse.Namespace) -> None:
    """Submit the ``--task`` grid and print what it produced."""

    from . import ResultStore, SweepSpec, latency_summaries, run_sweep

    sweep = SweepSpec(task=args.task, grid=_grid(args.axes))
    store = ResultStore(args.results_dir) if args.results_dir else None
    report = _submit(args, partial(run_sweep, sweep, store=store))
    print(report.summary_line())
    for record in report.records:
        if not record.ok:
            print(f"  FAILED {record['spec']['params']}: {record.get('error')}")
    summaries = latency_summaries(report.records)
    for protocol in sorted(summaries, key=str):
        s = summaries[protocol]
        if protocol is None or s.count == 0:
            continue
        print(
            f"  {protocol}: mean {s.mean:.2f} ms, "
            f"p5 {s.p5:.2f} ms, p95 {s.p95:.2f} ms (n={s.count})"
        )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.list_tasks:
            from . import task_names

            for name in task_names():
                print(name)
            return 0
        if args.list_figures:
            width = max(len(name) for name in FIGURES)
            for name in FIGURES:
                print(f"{name:<{width}}  {FIGURES[name].description}")
            print(f"{'all':<{width}}  the paper's evaluation in order: "
                  "Table I, Figs. 2, 3a, 3b, 4, 5a, 5b")
            return 0
        if not args.figure and not args.task:
            parser.error(
                "one of --task, --figure, --list-tasks or --list-figures "
                "is required"
            )
        if args.trace and args.figure not in ("fig3a", "all"):
            raise ConfigurationError("--trace instruments Fig. 3a: use --figure fig3a or all")
        if args.timeline and args.figure == "all":
            raise ConfigurationError("--timeline records one sweep: name one figure, not all")
        if args.figure:
            _run_figures(args)
        else:
            _run_task(args)
        if args.timeline:
            print(f"timeline: {args.timeline} (analyze with `python -m repro analyze-sweep`)")
        sys.stdout.flush()  # a reader gone early (`| head -1`) surfaces here
        return 0
    except ReproError as exc:
        parser.exit(2, f"error: {exc}\n")
        return 2  # pragma: no cover - parser.exit raises
    except BrokenPipeError:
        # The store already holds every record.  The Python docs' recipe
        # (signal module, "Note on SIGPIPE"): point stdout at devnull so the
        # flush at exit cannot raise again, and exit 1 without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

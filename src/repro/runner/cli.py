"""``python -m repro sweep`` — run ad-hoc parameter sweeps from the shell.

Two modes:

* ``--task NAME`` with repeated ``--set key=v1,v2,...`` flags builds a
  cartesian grid over the given axes and submits it to
  :func:`repro.runner.run_sweep`::

      python -m repro sweep --task dissemination \\
          --set protocol=hermes,lzero --set seed=0,1,2 \\
          --jobs 4 --results-dir results/adhoc

* ``--figure fig3a|fig3b|fig5a|fig5b|fig6|fig7|fig8|fig9`` submits the
  corresponding figure script's repetition grid and prints the figure table
  (``--list-figures`` enumerates them with one-line descriptions)::

      python -m repro sweep --figure fig5a --jobs 4 --results-dir results/f5a

With ``--results-dir`` every completed cell lands as one JSON record in a
content-addressed store, and re-invoking the same sweep resumes: finished
cells are loaded instead of re-executed (disable with ``--no-resume``).

``--timeline PATH`` additionally records a ``repro.sweeptrace/1``
worker-lifecycle timeline (wall-clock phases of every run and worker) for
``python -m repro analyze-sweep``, and ``--progress`` renders a live console
line (cells done, runs/s, per-worker utilization, ETA) while the sweep runs.
See ``docs/runner.md`` for the concepts and ``docs/observability.md``
("Measuring a sweep") for the telemetry layer.
"""

from __future__ import annotations

import argparse
import json
from typing import Any

from ..errors import ConfigurationError, ReproError
from .tasks import FIGURES, get_figure

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
        "--figure", choices=tuple(FIGURES),
        help="submit a figure script's repetition grid instead of an ad-hoc task",
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
        help="one grid axis; repeat for a cartesian product (task mode only)",
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
    parser.add_argument("--seed", type=int, default=0, help="base seed (figure mode)")
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller, faster figure configuration (figure mode)",
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


def _run(args: argparse.Namespace) -> None:
    """Submit the ``--figure`` or ``--task`` grid and print what it produced."""

    from . import ResultStore, SweepSpec, latency_summaries, run_sweep

    figure = get_figure(args.figure) if args.figure else None
    sweep = None if figure else SweepSpec(task=args.task, grid=_grid(args.axes))
    telemetry = _build_telemetry(args)
    options = dict(
        jobs=args.jobs,
        resume=args.resume,
        timeout_s=args.timeout,
        retries=args.retries,
        telemetry=telemetry,
    )
    try:
        if figure is not None:
            config = figure.make_config(quick=args.quick, seed=args.seed)
            result, report = figure.run(config, results_dir=args.results_dir, **options)
        else:
            store = ResultStore(args.results_dir) if args.results_dir else None
            report = run_sweep(sweep, store=store, **options)
    finally:
        if telemetry is not None:
            telemetry.close()
    print(report.summary_line())
    if figure is not None:
        print(figure.format(result))
    if args.timeline:
        print(f"timeline: {args.timeline} (analyze with `python -m repro analyze-sweep`)")
    if figure is not None:
        return
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
            return 0
        if not args.figure and not args.task:
            parser.error(
                "one of --task, --figure, --list-tasks or --list-figures "
                "is required"
            )
        _run(args)
        return 0
    except ReproError as exc:
        parser.exit(2, f"error: {exc}\n")
        return 2  # pragma: no cover - parser.exit raises


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""Command-line front ends for trace analytics and the bench gate.

* ``python -m repro analyze <trace.jsonl>`` — reconstruct dissemination
  trees, attribute critical paths, print (or ``--json``-dump) the result;
  ``--strict`` exits non-zero on any orphan delivery or integrity problem.
* ``python -m repro report`` — compose a markdown (or ``--html``) run report
  from any combination of ``--trace``, ``--chaos``, ``--manifest`` (whose
  profile section becomes the hottest-callbacks table) and bench records.
* ``python -m repro bench-gate <BENCH_*.json ...>`` — judge records against
  the committed baselines in ``benchmarks/baselines/``; exits 1 on
  regression (the CI gate), ``--update`` refreshes baseline values in place.
* ``python -m repro analyze-sweep <timeline.jsonl>`` — overhead-attribution
  report from a ``repro.sweeptrace/1`` worker-lifecycle timeline (see
  ``python -m repro sweep --timeline``).
* ``python -m repro bench history [BENCH_*.json ...]`` — fold fresh records
  and the append-only ``benchmarks/history/`` ledger into per-metric
  trajectories with direction-aware anomaly flags; ``--check`` exits 1 on a
  flag, ``--append`` commits the records to the ledger.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from ...errors import TraceReadError
from .baseline import load_baseline, load_bench_record, update_baseline, write_baseline
from .compare import ComparisonResult, compare
from .critical_path import COMPONENTS, critical_paths
from .report import render_html, render_report
from .trace import read_trace, build_trees

__all__ = [
    "analyze_main",
    "report_main",
    "bench_gate_main",
    "analyze_sweep_main",
    "bench_history_main",
]


def _print(text: str) -> None:
    print(text)


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------


def analyze_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description="Reconstruct dissemination trees and attribute critical "
        "paths from a JSONL trace.",
    )
    parser.add_argument("trace", help="path to a repro.trace/1 JSONL file")
    parser.add_argument(
        "--protocol", help="only analyze transactions of this protocol"
    )
    parser.add_argument(
        "--tx", type=int, help="only analyze this transaction id"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on orphan deliveries or trace integrity problems",
    )
    args = parser.parse_args(argv)

    try:
        trace = read_trace(args.trace)
    except (TraceReadError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    problems = trace.validate()
    trees = build_trees(trace)
    if args.protocol is not None:
        trees = [t for t in trees if t.protocol == args.protocol]
    if args.tx is not None:
        trees = [t for t in trees if t.tx_id == args.tx]
    paths = critical_paths(trees, trace)
    orphans = sum(len(t.orphans) for t in trees)

    if args.json:
        doc: dict[str, Any] = {
            "trace": {
                "events": len(trace.events),
                "spans": len(trace.spans),
                "lossy": trace.header.lossy,
                "problems": problems,
            },
            "trees": [
                {
                    "protocol": t.protocol,
                    "tx_id": t.tx_id,
                    "origin": t.origin,
                    "overlay_id": t.overlay_id,
                    "submit_ms": t.submit_ms,
                    "dispatch_ms": t.dispatch_ms,
                    "nodes": t.node_count,
                    "max_depth": t.max_depth(),
                    "orphans": len(t.orphans),
                    "edges": {
                        str(parent): children
                        for parent, children in sorted(t.children.items())
                    },
                }
                for t in trees
            ],
            "critical_paths": [
                {
                    "protocol": p.protocol,
                    "tx_id": p.tx_id,
                    "path": p.path,
                    "e2e_ms": p.e2e_ms,
                    "trs_wait_ms": p.trs_wait_ms,
                    "matched_fraction": p.matched_fraction,
                    "components_ms": p.component_sums(),
                }
                for p in paths
            ],
        }
        _print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _print(
            f"{args.trace}: {len(trace.events)} events, {len(trace.spans)} spans"
            + (" (lossy)" if trace.header.lossy else "")
        )
        for problem in problems:
            _print(f"  integrity: {problem}")
        _print(
            f"{len(trees)} tree(s), {len(paths)} critical path(s), "
            f"{orphans} orphan delivery(ies)"
        )
        for p in paths:
            sums = p.component_sums()
            parts = "  ".join(
                f"{name}={sums[name]:.3f}" for name in COMPONENTS if sums[name]
            )
            _print(
                f"  [{p.protocol or '?'}] tx {p.tx_id}: "
                f"{' -> '.join(map(str, p.path))}  "
                f"e2e={p.e2e_ms:.3f}ms  ({parts})"
            )
    if args.strict and (orphans or problems):
        return 1
    return 0


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------


def report_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro report",
        description="Render a self-contained markdown/HTML run report.",
    )
    parser.add_argument("--trace", help="JSONL trace to analyze")
    parser.add_argument(
        "--chaos", help="ChaosReport JSON file, or a chaos.run store record"
    )
    parser.add_argument(
        "--manifest",
        help="repro.manifest/1 JSON file; its profile section (hottest "
        "callbacks, queue depth) and meta become report sections",
    )
    parser.add_argument(
        "--bench",
        nargs="*",
        default=[],
        metavar="RECORD",
        help="repro.bench/1 record(s) to compare against --baselines",
    )
    parser.add_argument(
        "--baselines",
        default="benchmarks/baselines",
        help="directory of committed baselines (default: benchmarks/baselines)",
    )
    parser.add_argument("--title", default="Run report")
    parser.add_argument("-o", "--output", help="write to file instead of stdout")
    parser.add_argument("--html", action="store_true", help="emit HTML")
    args = parser.parse_args(argv)

    trace = trees = paths = chaos = profile = None
    manifest: dict[str, Any] = {}
    bench_results: list[ComparisonResult] = []
    try:
        if args.trace:
            trace = read_trace(args.trace)
            trees = build_trees(trace)
            paths = critical_paths(trees, trace)
        if args.chaos:
            chaos = json.loads(Path(args.chaos).read_text(encoding="utf-8"))
            if "spec" in chaos:  # a chaos.run record from a results store
                chaos = chaos["result"]
        if args.manifest:
            doc = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
            profile = doc.get("profile")
            meta = doc.get("meta")
            if isinstance(meta, dict):
                manifest.update(meta)
        for record_path in args.bench:
            record = load_bench_record(record_path)
            manifest.update(record.get("manifest", {}))
            baseline_path = Path(args.baselines) / f"{record['name']}.json"
            if baseline_path.exists():
                bench_results.append(compare(record, load_baseline(baseline_path)))
    except (TraceReadError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    markdown = render_report(
        title=args.title,
        manifest=manifest or None,
        trace=trace,
        trees=trees,
        paths=paths,
        chaos=chaos,
        bench=bench_results if bench_results else None,
        profile=profile,
    )
    text = render_html(markdown, title=args.title) if args.html else markdown
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        _print(f"wrote {args.output}")
    else:
        _print(text.rstrip())
    return 0


# ----------------------------------------------------------------------
# bench-gate
# ----------------------------------------------------------------------


def bench_gate_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench-gate",
        description="Compare bench records against committed baselines; "
        "exit 1 on regression.",
    )
    parser.add_argument(
        "records", nargs="+", metavar="RECORD", help="repro.bench/1 JSON file(s)"
    )
    parser.add_argument(
        "--baselines",
        default="benchmarks/baselines",
        help="directory of committed baselines (default: benchmarks/baselines)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="refresh baseline values from the records (tolerances and "
        "directions are kept) instead of gating",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 (the CI override)",
    )
    args = parser.parse_args(argv)

    baselines_dir = Path(args.baselines)
    failed = False
    for record_path in args.records:
        try:
            record = load_bench_record(record_path)
        except TraceReadError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"error: {record_path}: {exc}", file=sys.stderr)
            return 2
        baseline_path = baselines_dir / f"{record['name']}.json"
        if not baseline_path.exists():
            _print(f"{record['name']}: no baseline at {baseline_path} — skipped")
            continue
        try:
            baseline = load_baseline(baseline_path)
        except TraceReadError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.update:
            write_baseline(baseline_path, update_baseline(baseline, record))
            _print(f"{record['name']}: refreshed {baseline_path}")
            continue
        result = compare(record, baseline)
        _print(result.summary())
        for c in result.regressions:
            current = "missing" if c.current is None else f"{c.current:g}"
            _print(
                f"  REGRESSION {c.metric}: current={current} "
                f"baseline={c.baseline:g} tol={c.tolerance:.0%} "
                f"[{c.direction}] — {c.note}"
            )
        failed = failed or not result.ok
    if failed and not args.warn_only:
        return 1
    if failed:
        _print("regressions present, but --warn-only given; exiting 0")
    return 0


# ----------------------------------------------------------------------
# analyze-sweep
# ----------------------------------------------------------------------


def analyze_sweep_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro analyze-sweep",
        description="Attribute a sweep's wall time to worker-lifecycle "
        "phases from a repro.sweeptrace/1 timeline.",
    )
    parser.add_argument(
        "timeline", help="JSONL timeline from `python -m repro sweep --timeline`"
    )
    parser.add_argument("--title", default="Sweep overhead attribution")
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    parser.add_argument("-o", "--output", help="write to file instead of stdout")
    args = parser.parse_args(argv)

    from ...runner.telemetry import read_timeline
    from .sweep_report import analysis_to_json, analyze_timeline, render_sweep_report

    try:
        timeline = read_timeline(args.timeline)
    except (TraceReadError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    analysis = analyze_timeline(timeline)
    if args.json:
        text = json.dumps(analysis_to_json(analysis), indent=2, sort_keys=True)
    else:
        text = render_sweep_report(analysis, title=args.title)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        _print(f"wrote {args.output}")
    else:
        _print(text.rstrip())
    return 0


# ----------------------------------------------------------------------
# bench history
# ----------------------------------------------------------------------


def bench_history_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench history",
        description="Fold bench records and the append-only ledger into "
        "per-metric trajectories with direction-aware anomaly flags.",
    )
    parser.add_argument(
        "records",
        nargs="*",
        metavar="RECORD",
        help="fresh repro.bench/1 record(s) to fold in as the latest runs",
    )
    parser.add_argument(
        "--ledger",
        default="benchmarks/history",
        help="append-only ledger directory (default: benchmarks/history)",
    )
    parser.add_argument(
        "--baselines",
        default="benchmarks/baselines",
        help="directory of committed baselines (default: benchmarks/baselines)",
    )
    parser.add_argument(
        "--append",
        action="store_true",
        help="append the given records to the ledger after reporting",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 on any direction-aware anomaly (the CI hook)",
    )
    parser.add_argument("--title", default="Bench history")
    parser.add_argument("-o", "--output", help="write to file instead of stdout")
    args = parser.parse_args(argv)

    from .history import (
        append_history,
        build_history_report,
        load_history,
        render_history_report,
    )

    try:
        history = load_history(args.ledger)
        fresh = [load_bench_record(path) for path in args.records]
    except (TraceReadError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for record in fresh:
        history.setdefault(record["name"], []).append(record)

    report = build_history_report(history, baselines_dir=args.baselines)
    text = render_history_report(report, title=args.title)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        _print(f"wrote {args.output}")
    else:
        _print(text.rstrip())

    if args.append:
        for record in fresh:
            path = append_history(args.ledger, record)
            _print(f"appended {record['name']} -> {path}")

    if args.check and not report.ok:
        flagged = ", ".join(f"{t.bench}.{t.metric}" for t in report.anomalies)
        print(f"anomalies: {flagged}", file=sys.stderr)
        return 1
    return 0

"""Trace analytics and run reports (``repro.obs.analysis``).

Post-hoc analysis over the simulator's observability output:

* :mod:`~repro.obs.analysis.trace` — versioned JSONL trace reading and
  per-transaction dissemination-tree reconstruction;
* :mod:`~repro.obs.analysis.critical_path` — hop-by-hop latency attribution
  along each transaction's slowest root-to-leaf path;
* :mod:`~repro.obs.analysis.baseline` / :mod:`~repro.obs.analysis.compare` —
  canonical bench-record schema, committed baselines, cross-run regression
  verdicts;
* :mod:`~repro.obs.analysis.report` — self-contained markdown/HTML run
  reports;
* :mod:`~repro.obs.analysis.sweep_report` — overhead attribution for
  ``repro.sweeptrace/1`` sweep timelines (phase totals, per-worker Gantt,
  Amdahl achievable-speedup bound);
* :mod:`~repro.obs.analysis.history` — append-only bench ledger and
  cross-run per-metric trajectories with direction-aware anomaly flags;
* :mod:`~repro.obs.analysis.cli` — ``python -m repro analyze | report |
  bench-gate | analyze-sweep | bench history``.
"""

from ... import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "baseline": (
            "BASELINE_SCHEMA",
            "BENCH_SCHEMA",
            "Baseline",
            "BaselineMetric",
            "bench_record",
            "load_baseline",
            "load_bench_record",
            "update_baseline",
            "write_baseline",
            "write_bench_record",
        ),
        "compare": ("ComparisonResult", "MetricComparison", "compare", "compare_many"),
        "critical_path": (
            "COMPONENTS",
            "CriticalPath",
            "Hop",
            "ProtocolBreakdown",
            "aggregate",
            "critical_path",
            "critical_paths",
        ),
        "history": (
            "HistoryReport",
            "Trajectory",
            "append_history",
            "build_history_report",
            "load_history",
            "render_history_report",
            "sparkline",
            "trajectories",
        ),
        "report": ("render_html", "render_report"),
        "sweep_report": ("SweepAnalysis", "analyze_timeline", "render_sweep_report"),
        "trace": (
            "Delivery",
            "DisseminationTree",
            "ReadEvent",
            "ReadSpan",
            "StreamedLatencies",
            "Trace",
            "TraceHeader",
            "build_trees",
            "read_trace",
            "stream_latencies",
        ),
    },
)

"""Parallel sweep engine with a content-addressed result cache.

Every experiment in this repository is a grid of independent, fully seeded
simulations.  ``repro.runner`` turns that structure into throughput:

* :class:`~repro.runner.spec.RunSpec` / :class:`~repro.runner.spec.SweepSpec`
  declare a cartesian parameter grid and give every cell a stable content
  hash of its parameters;
* :func:`~repro.runner.executor.run_sweep` executes cells serially or over
  worker processes it owns (forked where the platform can fork), with
  per-run timeouts and per-run crash retry;
* :class:`~repro.runner.store.ResultStore` persists one deterministic JSON
  record per cell, keyed by spec hash, which makes every sweep resumable by
  construction — re-invoking a finished sweep executes nothing;
* :mod:`~repro.runner.aggregate` folds stored records back into the
  :class:`~repro.net.stats.LatencySummary`-shaped outputs the figure scripts
  consume;
* :mod:`~repro.runner.telemetry` decomposes every run into wall-clock
  lifecycle phases (``repro.sweeptrace/1`` JSONL timelines, the live
  ``--progress`` console); ``python -m repro analyze-sweep`` turns a timeline
  into an overhead-attribution report.

Typical use::

    from repro.runner import ResultStore, SweepSpec, run_sweep, latency_summaries

    sweep = SweepSpec(
        task="dissemination",
        base={"num_nodes": 200, "transactions": 5, "seed": 0},
        grid={"protocol": ["hermes", "lzero", "narwhal", "mercury"]},
    )
    report = run_sweep(sweep, store=ResultStore("results/"), jobs=4)
    print(report.summary_line())
    print(latency_summaries(report.records))

The command line equivalent is ``python -m repro sweep``; see
``docs/runner.md`` for the concept guide (spec hashing, the record schema,
resume semantics and a worked example).
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "aggregate": (
            "group_records",
            "latency_summaries",
            "mean_by_group",
            "merged_latencies",
        ),
        "executor": ("SweepReport", "run_sweep"),
        "spec": ("RunSpec", "SweepSpec", "canonical_json", "spec_hash"),
        "store": ("RECORD_SCHEMA", "MemoryStore", "ResultStore", "RunRecord"),
        "tasks": ("get_task", "register_task", "task_names"),
        "telemetry": (
            "PHASES",
            "SWEEPTRACE_SCHEMA",
            "ProgressConsole",
            "SweepTelemetry",
            "SweepTimeline",
            "read_timeline",
        ),
    },
)

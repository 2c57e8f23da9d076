"""Structured observability for the simulation stack.

Three concerns, one facade:

* :class:`~repro.obs.tracer.Tracer` — hierarchical, simulation-clock-aware
  spans plus a bounded structured-event ring buffer, exported as JSON Lines;
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  histograms that protocol layers register against (messages by type, overlay
  hops, RBC round durations, TRS latencies, mempool depth);
* :class:`~repro.obs.profiler.SimulatorProfiler` — wall-clock attribution of
  ``Simulator.run`` per callback, plus event-queue depth sampling.

The :class:`Observability` facade bundles all three.  Every component in the
stack takes ``obs=None`` by default and skips all instrumentation when it is
absent, so un-observed runs pay nothing and reproduce seed results
byte-for-byte.  Trace and metrics content is derived from the simulation
clock only, so even the *observed* artifacts are deterministic for a fixed
seed; the profiler (wall-clock) output is segregated into the manifest's
``profile`` section.

Typical use::

    from repro.obs import Observability

    obs = Observability.enabled(profile=True)
    system = HermesSystem(physical, config, obs=obs, seed=7)
    system.start(); system.submit(origin, tx); system.run(until_ms=5000)
    obs.write_trace("run.jsonl")
    obs.write_manifest("run.manifest.json", meta={"experiment": "adhoc"})

See ``docs/observability.md`` for the full concept guide and JSONL schema.
"""

from .. import lazy_exports

# Run manifests (platform, subprocess, pathlib) load on first use like every
# other name here: only --trace runs and manifest writers need them.
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "facade": ("Observability",),
        "tracer": ("Tracer", "NullTracer", "Span", "TraceEvent", "NULL_SPAN"),
        "metrics": ("MetricsRegistry", "Counter", "Gauge", "Histogram"),
        "profiler": (
            "SimulatorProfiler",
            "SimulatorProfile",
            "CallbackStats",
            "QueueSample",
            "callback_key",
        ),
        "manifest": ("MANIFEST_SCHEMA", "build_manifest", "run_manifest", "write_manifest"),
    },
)

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

from __future__ import annotations

from typing import Any

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profiler import (
    CallbackStats,
    QueueSample,
    SimulatorProfile,
    SimulatorProfiler,
    callback_key,
)
from .tracer import NULL_SPAN, NullTracer, Span, TraceEvent, Tracer

__all__ = [
    "Observability",
    "Tracer",
    "NullTracer",
    "Span",
    "TraceEvent",
    "NULL_SPAN",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "SimulatorProfiler",
    "SimulatorProfile",
    "CallbackStats",
    "QueueSample",
    "callback_key",
    "MANIFEST_SCHEMA",
    "build_manifest",
    "run_manifest",
    "write_manifest",
]

# Run manifests (platform, subprocess, pathlib) load on first use: only
# --trace runs and manifest writers need them.
_MANIFEST_NAMES = ("MANIFEST_SCHEMA", "build_manifest", "run_manifest", "write_manifest")


def __getattr__(name: str):
    if name in _MANIFEST_NAMES:
        from . import manifest

        return getattr(manifest, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MANIFEST_NAMES))


class Observability:
    """Bundle of tracer + metrics registry + optional profiler.

    Construct with :meth:`enabled` and pass as the ``obs`` keyword accepted by
    :class:`~repro.net.node.Network`, :class:`~repro.core.HermesSystem`, the
    baseline systems and :func:`~repro.experiments.harness.protocol_factories`.
    The owning system calls :meth:`attach` to bind the simulation clock and
    install the profiler; user code normally never needs to.
    """

    __slots__ = ("tracer", "metrics", "profiler")

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        profiler: SimulatorProfiler | None = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.profiler = profiler

    @classmethod
    def enabled(
        cls,
        max_trace_events: int = 65_536,
        profile: bool = False,
        queue_sample_interval: int = 256,
    ) -> "Observability":
        """A fully armed observability bundle (profiling opt-in)."""

        return cls(
            tracer=Tracer(max_events=max_trace_events),
            metrics=MetricsRegistry(),
            profiler=(
                SimulatorProfiler(queue_sample_interval=queue_sample_interval)
                if profile
                else None
            ),
        )

    # -- wiring -----------------------------------------------------------

    def bind_clock(self, clock: object) -> None:
        """Bind the tracer to a simulator (or any callable/``now`` object)."""

        self.tracer.bind_clock(clock)

    def attach(self, simulator: Any) -> None:
        """Bind the clock and, if profiling is on, install the profiler."""

        self.bind_clock(simulator)
        if self.profiler is not None and hasattr(simulator, "set_profiler"):
            simulator.set_profiler(self.profiler)

    # -- convenience passthroughs -----------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        return self.tracer.span(name, **attrs)

    def event(self, name: str, **attrs: Any) -> TraceEvent | None:
        return self.tracer.event(name, **attrs)

    # -- export -----------------------------------------------------------

    def write_trace(self, path: str) -> int:
        """Export the JSONL trace; returns the record count."""

        return self.tracer.export_jsonl(path)

    def manifest(self, meta: dict[str, Any] | None = None) -> dict[str, Any]:
        from .manifest import build_manifest

        return build_manifest(self, meta=meta)

    def write_manifest(
        self, path: str, meta: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        from .manifest import write_manifest

        return write_manifest(path, self, meta=meta)

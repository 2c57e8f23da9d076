"""The :class:`Observability` facade: tracer + metrics registry + profiler.

Re-exported as ``repro.obs.Observability``; see the package docstring.
"""

from __future__ import annotations

from typing import Any

from .metrics import MetricsRegistry
from .profiler import SimulatorProfiler
from .tracer import Span, TraceEvent, Tracer

__all__ = ["Observability"]


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

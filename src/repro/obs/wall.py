"""Wall-clock spans and phase timers for the runner's telemetry.

The tracer (:mod:`repro.obs.tracer`) measures *simulated* time; the profiler
(:mod:`repro.obs.profiler`) attributes wall time to simulator callbacks.  This
module is the third leg: lightweight wall-clock instruments for code that
lives *outside* the simulation — the sweep executor, its worker processes,
and anything else whose cost is real seconds rather than simulated
milliseconds.

Two pieces:

* :class:`WallClock` — a monotonic clock with a fixed origin, reporting
  offsets in seconds.  On Linux ``time.monotonic`` is ``CLOCK_MONOTONIC``,
  which is system-wide, so offsets taken against the *same origin value* are
  comparable across processes on one machine — the property the sweep
  timeline uses to relate parent-side submit times to worker-side start
  times.
* :class:`PhaseTimer` — accumulates named phase durations via the
  ``with timer.phase("store_write"):`` context manager; re-entering a name
  adds to its total.

Everything here only *reads* clocks.  None of it touches simulation state,
RNG streams or id counters, so instrumented runs produce byte-identical
results to uninstrumented ones (pinned by
``tests/integration/test_sweep_telemetry.py``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = ["WallClock", "PhaseTimer"]


class WallClock:
    """Monotonic wall clock reporting offsets from a fixed origin.

    ``WallClock()`` anchors the origin at construction; ``WallClock(origin=x)``
    adopts an existing origin (a raw ``time.monotonic()`` value), which is how
    worker processes join the parent's timebase: the parent sends its origin
    over the spawn boundary and every process reports offsets against it.
    """

    __slots__ = ("_clock", "origin")

    def __init__(
        self,
        origin: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._clock = clock
        self.origin = clock() if origin is None else origin

    def now(self) -> float:
        """Seconds since the origin (clamped at 0 against cross-process skew)."""

        return max(0.0, self._clock() - self.origin)

    def raw(self) -> float:
        """The underlying clock value (for handing the origin to a child)."""

        return self._clock()


class PhaseTimer:
    """Accumulates wall time into named phases.

    >>> ticks = iter([0.0, 1.0, 1.0, 1.25]).__next__
    >>> timer = PhaseTimer(clock=ticks)
    >>> with timer.phase("execute"):
    ...     pass
    >>> with timer.phase("store_write"):
    ...     pass
    >>> timer.durations == {"execute": 1.0, "store_write": 0.25}
    True
    """

    __slots__ = ("_clock", "durations")

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.durations: dict[str, float] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        started = self._clock()
        try:
            yield
        finally:
            elapsed = max(0.0, self._clock() - started)
            self.durations[name] = self.durations.get(name, 0.0) + elapsed

    def add(self, name: str, seconds: float) -> None:
        """Fold an externally measured duration into a phase."""

        self.durations[name] = self.durations.get(name, 0.0) + max(0.0, seconds)

    def total(self) -> float:
        return sum(self.durations.values())

"""The discrete-event scheduler at the heart of every experiment.

Design notes
------------
* Events are flyweight ``(time, sequence, fn, args)`` tuples — no per-event
  objects, no closures required.  The monotonically increasing sequence
  number breaks time ties deterministically, so two runs with the same seed
  replay identically — a hard requirement for reproducible experiments and
  for debugging Byzantine scenarios.  Hot callers use
  :meth:`Simulator.schedule_call` to pass the callable and its arguments
  separately, avoiding a lambda allocation per event.
* The event list is one plain list kept in heap order by C-speed ``heapq``;
  events run in ``(time, sequence)`` order, FIFO among equal timestamps.
  There is deliberately no second backend.  A bucketed O(1) event list
  (R. Brown, CACM 1988) that took over past 50,000 pending events was
  measured and deleted: at N = 10,000 (the only run that ever got there) it
  was slower for every protocol — Mercury's loop 35.5 s on it vs 9.9 s on
  the heap — and no gated workload peaks above ~35,000 pending events
  (``docs/performance.md``, "Event list").
* Callbacks are plain callables; protocol nodes capture whatever state they
  need via closures, bound methods or ``schedule_call`` arguments.  The
  simulator itself knows nothing about networking.
* The run loop is split into a no-profiler fast path and an instrumented
  path, so observability costs exactly nothing when not requested (see
  ``docs/observability.md``).
"""

from __future__ import annotations

import gc
import heapq
import itertools
from typing import TYPE_CHECKING, Callable

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> net.stats)
    from ..obs.profiler import SimulatorProfile, SimulatorProfiler

__all__ = ["Simulator"]


class Simulator:
    """A single-threaded discrete-event simulator with millisecond time."""

    def __init__(self) -> None:
        # Current simulation time in milliseconds.  A plain attribute, not a
        # property: protocol code reads it several times per event, and the
        # descriptor call was measurable at paper scale.  Treat as read-only.
        self.now: float = 0.0
        # The event list: a heap of (time, sequence, fn, args) tuples.  The
        # run loops hold a reference to it, so it is only ever emptied in
        # place, never replaced.
        self._queue: list[tuple] = []
        self._sequence = itertools.count()
        self._running = False
        self.events_processed = 0
        self._profiler: "SimulatorProfiler | None" = None

    # -- profiling hooks (see repro.obs.profiler) ----------------------

    def set_profiler(self, profiler: "SimulatorProfiler | None") -> None:
        """Install (or remove, with ``None``) a wall-clock profiler.

        The profiler only observes — it cannot reorder or delay events — so
        a seeded run replays identically with profiling on or off.
        """

        if self._running:
            raise SimulationError("cannot change the profiler mid-run")
        self._profiler = profiler

    @property
    def profiler(self) -> "SimulatorProfiler | None":
        return self._profiler

    def profile(self) -> "SimulatorProfile | None":
        """Snapshot of the attached profiler, or None when not profiling."""

        return self._profiler.snapshot() if self._profiler is not None else None

    def schedule(self, delay_ms: float, callback: Callable[[], None]) -> None:
        """Run *callback* ``delay_ms`` milliseconds from now.

        Negative delays are rejected: the past is immutable in a DES.
        """

        self.schedule_call(delay_ms, callback)

    def schedule_call(self, delay_ms: float, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` ``delay_ms`` milliseconds from now.

        The flyweight form of :meth:`schedule`: hot paths pass the callable
        and its arguments separately instead of allocating a closure per
        event.
        """

        if delay_ms < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay_ms})")
        heapq.heappush(
            self._queue, (self.now + delay_ms, next(self._sequence), fn, args)
        )

    def schedule_at(self, time_ms: float, callback: Callable[[], None]) -> None:
        """Run *callback* at absolute simulation time *time_ms*."""

        self.schedule_call(time_ms - self.now, callback)

    def run(self, until_ms: float | None = None) -> float:
        """Process events until the queue empties or *until_ms* passes.

        With *until_ms* the clock ends exactly there, pending or not; an
        *until_ms* earlier than ``now`` is rejected for the same reason a
        negative delay is.  Returns the final simulation time.
        """

        if self._running:
            raise SimulationError("simulator is not re-entrant")
        if until_ms is not None and until_ms < self.now:
            raise SimulationError(
                f"cannot run until the past (until_ms={until_ms}, now={self.now})"
            )
        self._running = True
        # The loop allocates one tuple per event and frees it within the same
        # iteration; generation-0 collections triggered by that churn cost
        # ~13% of the run and never find garbage (protocol state is acyclic).
        # Pause the cyclic collector for the duration — refcounting still
        # reclaims everything the loop allocates.
        reenable_gc = gc.isenabled()
        if reenable_gc:
            gc.disable()
        try:
            limit = float("inf") if until_ms is None else until_ms
            if self._profiler is None:
                self._run_fast(limit)
            else:
                self._run_profiled(limit)
            if until_ms is not None:
                self.now = until_ms
        finally:
            self._running = False
            if reenable_gc:
                gc.enable()
        return self.now

    def _run_fast(self, limit: float) -> None:
        """The no-profiler hot loop: peek, pop, dispatch — nothing else.

        Direct list indexing and C ``heappop``, no method dispatch; the
        infinity sentinel for an open-ended run replaces a per-event ``None``
        check.  Events are counted in a local and booked once, when the loop
        ends or a callback raises.
        """

        queue = self._queue
        pop = heapq.heappop
        count = 0
        try:
            while queue:
                head = queue[0]
                time = head[0]
                if time > limit:
                    return
                pop(queue)
                self.now = time
                head[2](*head[3])
                count += 1
        finally:
            self.events_processed += count

    def _run_profiled(self, limit: float) -> None:
        """The instrumented loop — identical event order, plus attribution."""

        queue = self._queue
        profiler = self._profiler
        while queue:
            head = queue[0]
            time = head[0]
            if time > limit:
                return
            heapq.heappop(queue)
            self.now = time
            fn = head[2]
            start = profiler.clock()
            fn(*head[3])
            profiler.record(fn, profiler.clock() - start)
            self.events_processed += 1
            profiler.after_event(self.now, len(queue), self.events_processed)

    def pending_events(self) -> int:
        """Number of not-yet-processed events."""

        return len(self._queue)

    def clear(self) -> None:
        """Drop all pending events (used between experiment repetitions)."""

        self._queue.clear()

    def reset(self) -> None:
        """Return the simulator to its just-constructed state.

        Drops pending events AND rewinds the clock, the event counter and the
        tie-breaking sequence, so the next repetition starts at ``t = 0`` with
        deterministic ordering — unlike :meth:`clear`, which keeps the clock
        where the previous run left it.  An attached profiler stays attached
        but its accumulated state is wiped, so back-to-back repetitions (e.g.
        chaos campaigns) never leak wall-time attribution or queue samples
        from one repetition into the next.  Rejected mid-run: callbacks must
        not reset the machine that is executing them.
        """

        if self._running:
            raise SimulationError("cannot reset a running simulator")
        self._queue.clear()
        self.now = 0.0
        self._sequence = itertools.count()
        self.events_processed = 0
        if self._profiler is not None:
            self._profiler.clear()

"""Worker-lifecycle telemetry for the sweep executor (``repro.sweeptrace/1``).

A single wall-clock total cannot say where a sweep's time goes.  This module
decomposes every run of a sweep into named wall-clock phases and streams
them, one JSON object per line, into a *timeline* file next to the
:class:`~repro.runner.store.ResultStore`:

``enqueue_wait``
    the parent hands the run to an idle worker → that worker picks it up
    (a run is only handed off when a worker is free, so this is pipe
    latency, not time spent queueing behind other runs);
``spawn`` / ``env_build``
    per-*worker* one-time costs, measured by every worker as it starts: the
    time since the parent started the process (``spawn``: a fork, or under
    the ``spawn`` start method an interpreter start-up + module imports) and
    the warm-up import of the experiment harness (``env_build``; a forked
    worker inherits the parent's, so it reads ~0);
``deserialize``
    decoding the ``(task, params)`` spec document in the worker;
``execute``
    the task function itself (per-cell environment construction included);
``serialize``
    the worker pickling the record for the trip back;
``store_write``
    the parent persisting the record into the result store.

Timestamps are seconds on one shared monotonic timebase: the parent anchors a
:class:`~repro.obs.wall.WallClock` at sweep start and ships the raw origin to
every worker, which works because ``CLOCK_MONOTONIC`` is system-wide on
Linux (the only place the workers run in this repository).  The file is
line-buffered: each record is on disk as soon as it is emitted, so a sweep
killed mid-way leaves a timeline of everything up to the kill, and a forked
worker never inherits an unwritten line.

The timeline is **observation only**.  The executor times every run the same
way whether or not anyone collects the result (``telemetry=None`` selects
:class:`_NullTelemetry`, which drops the records), and the stored records
never contain wall-clock data — serial sweeps with telemetry enabled are
byte-identical to untelemetered ones (pinned by a golden-hash test).

Schema (one JSON object per line)::

    {"schema": "repro.sweeptrace/1", "v": 1, "kind": "header",
     "jobs": n, "cells": n, "resumed": n}
    {"kind": "worker", "worker": pid, "t_spawned": s, "t_ready": s,
     "phases": {"spawn": s, "env_build": s}}
    {"kind": "run", "spec_hash": ..., "task": ..., "status": "ok"|"error"|
     "crash", "tags": [...], "worker": pid, "attempt": n,
     "t_submit": s, "t_start": s, "t_end": s, "t_stored": s,
     "phases": {"enqueue_wait": s, "deserialize": s, "execute": s,
                "serialize": s, "store_write": s}}
    {"kind": "resumed", "spec_hash": ...}
    {"kind": "summary", "wall_s": s, "executed": n, "skipped": n,
     "failed": n, "cells": n, "jobs": n}

Failure paths are first-class timeline citizens: a run killed by the
per-run SIGALRM timeout lands tagged ``["timeout"]``, and a worker crash
lands as a ``status="crash"`` record tagged ``["crash", "retry"]`` (requeued)
or an ``error`` record tagged ``["crash", "failed"]`` (retry budget
exhausted) — either way naming the pid of the worker that died and the one
run it held.

Read a timeline back with :func:`read_timeline`; turn it into an
overhead-attribution report with ``python -m repro analyze-sweep`` (see
:mod:`repro.obs.analysis.sweep_report`); watch it live with
``python -m repro sweep --progress``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Callable, Mapping

from ..errors import TraceReadError
from ..obs.wall import WallClock

__all__ = [
    "SWEEPTRACE_SCHEMA",
    "RUN_PHASES",
    "WORKER_PHASES",
    "PHASES",
    "SweepTelemetry",
    "SweepTimeline",
    "ProgressConsole",
    "read_timeline",
    "run_tags",
]

SWEEPTRACE_SCHEMA = "repro.sweeptrace/1"

#: Per-run phases, in lifecycle order.
RUN_PHASES = ("enqueue_wait", "deserialize", "execute", "serialize", "store_write")
#: Per-worker one-time phases.
WORKER_PHASES = ("spawn", "env_build")
#: Every named phase the attribution report accounts against.
PHASES = ("enqueue_wait",) + WORKER_PHASES + RUN_PHASES[1:]

#: The timeout marker `_execute_record` embeds in a timed-out run's error.
_TIMEOUT_MARKER = "run exceeded timeout"


def run_tags(record: Mapping[str, Any]) -> list[str]:
    """Timeline tags derived from a finished run record.

    The store schema is frozen (``repro.runner/1`` has only ``ok``/``error``
    statuses), so failure *classes* are recovered from the record rather than
    added to it: a SIGALRM timeout is recognizable by the deterministic error
    message ``_execute_record`` writes.
    """

    if record.get("status") == "ok":
        return []
    error = str(record.get("error") or "")
    if error.startswith(_TIMEOUT_MARKER):
        return ["timeout"]
    if error.startswith("worker crashed"):
        return ["crash", "failed"]
    return ["error"]


class SweepTelemetry:
    """Collects one sweep's worker-lifecycle records; optionally writes JSONL.

    The executor drives the ``sweep_started`` / ``run_*`` / ``worker_seen`` /
    ``sweep_finished`` hooks; every emitted record also reaches *listener*
    (the live progress console plugs in there).  Pass ``path=None`` to keep
    records in memory only (:attr:`records`).
    """

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        listener: Callable[[dict[str, Any]], None] | None = None,
        clock: WallClock | None = None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.listener = listener
        self.clock = clock if clock is not None else WallClock()
        self.records: list[dict[str, Any]] = []
        self.jobs = 1
        self._handle: IO[str] | None = None
        self._workers_seen: set[int] = set()

    # -- record plumbing -------------------------------------------------

    def _emit(self, record: dict[str, Any]) -> None:
        self.records.append(record)
        if self._handle is not None:
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        if self.listener is not None:
            self.listener(record)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- executor hooks --------------------------------------------------

    def sweep_started(self, *, jobs: int, cells: int, resumed: int) -> None:
        self.jobs = jobs
        if self.path is not None and self._handle is None:
            self._handle = open(self.path, "w", encoding="utf-8", buffering=1)
        self._emit(
            {
                "schema": SWEEPTRACE_SCHEMA,
                "v": 1,
                "kind": "header",
                "jobs": jobs,
                "cells": cells,
                "resumed": resumed,
            }
        )

    def run_resumed(self, spec_hash: str) -> None:
        self._emit({"kind": "resumed", "spec_hash": spec_hash})

    def worker_seen(self, info: Mapping[str, Any] | None) -> None:
        """Emit one ``worker`` record per distinct worker process."""

        if not info:
            return
        pid = int(info.get("pid", 0))
        if pid in self._workers_seen:
            return
        self._workers_seen.add(pid)
        self._emit(
            {
                "kind": "worker",
                "worker": pid,
                "t_spawned": float(info.get("t_spawned", 0.0)),
                "t_ready": float(info.get("t_ready", 0.0)),
                "phases": {
                    "spawn": float(info.get("spawn", 0.0)),
                    "env_build": float(info.get("env_build", 0.0)),
                },
            }
        )

    def run_finished(
        self,
        record: Mapping[str, Any],
        timing: Mapping[str, Any],
        *,
        store_write_s: float,
        attempt: int = 1,
    ) -> None:
        """One completed (ok or error) run, with its measured phases.

        A run recorded without marks (a crash that exhausted its retries
        produced none) is a zero-length span at the moment it is stored.
        """

        now = self.clock.now()
        phases = dict(timing.get("phases", {}))
        phases.setdefault("enqueue_wait", 0.0)
        phases.setdefault("deserialize", 0.0)
        phases.setdefault("execute", 0.0)
        phases.setdefault("serialize", 0.0)
        phases["store_write"] = store_write_s
        spec = record.get("spec", {})
        self._emit(
            {
                "kind": "run",
                "spec_hash": record.get("spec_hash"),
                "task": spec.get("task") if isinstance(spec, Mapping) else None,
                "status": record.get("status"),
                "tags": run_tags(record),
                "worker": int(timing.get("worker", 0)),
                "attempt": attempt,
                "t_submit": float(timing.get("t_submit", now)),
                "t_start": float(timing.get("t_start", now)),
                "t_end": float(timing.get("t_end", now)),
                "t_stored": now,
                "phases": {name: float(phases[name]) for name in sorted(phases)},
            }
        )

    def run_crashed(self, spec: Any, *, attempt: int, worker: int) -> None:
        """*worker* died holding *spec*, which goes back on the queue.

        The run itself produced no timing.  (The crash that exhausts the
        retry budget is not reported here: it becomes a stored error record
        and reaches the timeline through :meth:`run_finished`.)
        """

        now = self.clock.now()
        self._emit(
            {
                "kind": "run",
                "spec_hash": spec.spec_hash,
                "task": spec.task,
                "status": "crash",
                "tags": ["crash", "retry"],
                "worker": worker,
                "attempt": attempt,
                "t_submit": now,
                "t_start": now,
                "t_end": now,
                "t_stored": now,
                "phases": {},
            }
        )

    def sweep_finished(
        self, *, wall_s: float, executed: int, skipped: int, failed: int, cells: int
    ) -> None:
        self._emit(
            {
                "kind": "summary",
                "wall_s": wall_s,
                "executed": executed,
                "skipped": skipped,
                "failed": failed,
                "cells": cells,
                "jobs": self.jobs,
            }
        )
        self.close()


class _NullTelemetry(SweepTelemetry):
    """What ``run_sweep(telemetry=None)`` runs with: every hook, no record.

    The executor always times and always reports; without a collector the
    reports land here, so it has one path instead of an observed and an
    unobserved twin.
    """

    def _emit(self, record: dict[str, Any]) -> None:
        pass


# ----------------------------------------------------------------------
# Reading timelines back
# ----------------------------------------------------------------------


@dataclass
class SweepTimeline:
    """A parsed ``repro.sweeptrace/1`` timeline."""

    header: dict[str, Any]
    runs: list[dict[str, Any]] = field(default_factory=list)
    workers: list[dict[str, Any]] = field(default_factory=list)
    resumed: list[str] = field(default_factory=list)
    summary: dict[str, Any] | None = None

    @property
    def jobs(self) -> int:
        return int(self.header.get("jobs", 1))

    @property
    def cells(self) -> int:
        return int(self.header.get("cells", 0))

    def completed_runs(self) -> list[dict[str, Any]]:
        """Runs that executed to a stored record (crash records excluded)."""

        return [r for r in self.runs if r.get("status") != "crash"]

    def wall_seconds(self) -> float:
        """The sweep's wall clock: the summary's figure, else the last stamp."""

        if self.summary is not None:
            return float(self.summary.get("wall_s", 0.0))
        return max((float(r.get("t_stored", 0.0)) for r in self.runs), default=0.0)


def read_timeline(path: str | Path) -> SweepTimeline:
    """Parse a timeline file, validating the schema header.

    Raises :class:`~repro.errors.TraceReadError` on a missing/foreign header,
    an unsupported version, or a malformed line — a truncated *tail* (the
    sweep was killed mid-write) only costs the truncated line itself.
    """

    path = Path(path)
    timeline: SweepTimeline | None = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                if timeline is not None:
                    break  # torn tail of an interrupted sweep: keep the prefix
                raise TraceReadError(f"{path}:{lineno}: not JSON: {exc}") from exc
            if timeline is None:
                if doc.get("schema") != SWEEPTRACE_SCHEMA:
                    raise TraceReadError(
                        f"{path}: not a {SWEEPTRACE_SCHEMA} timeline "
                        f"(schema={doc.get('schema')!r})"
                    )
                if doc.get("v") != 1:
                    raise TraceReadError(
                        f"{path}: unsupported timeline version {doc.get('v')!r}"
                    )
                timeline = SweepTimeline(header=doc)
                continue
            kind = doc.get("kind")
            if kind == "run":
                timeline.runs.append(doc)
            elif kind == "worker":
                timeline.workers.append(doc)
            elif kind == "resumed":
                timeline.resumed.append(str(doc.get("spec_hash")))
            elif kind == "summary":
                timeline.summary = doc
    if timeline is None:
        raise TraceReadError(f"{path}: empty timeline (no header line)")
    return timeline


# ----------------------------------------------------------------------
# Live progress console
# ----------------------------------------------------------------------


class ProgressConsole:
    """Renders a one-line live view of a sweep from its telemetry stream.

    Plug an instance in as the :class:`SweepTelemetry` *listener*; each
    emitted record refreshes a ``\\r``-rewritten status line showing
    cells-done/total, aggregate runs/s, per-worker utilization (busy phase
    time over time-since-ready) and an ETA extrapolated from the finish rate.
    The summary record replaces the live line with a final one.
    """

    def __init__(
        self,
        stream: IO[str] | None = None,
        *,
        clock: WallClock | None = None,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.clock = clock if clock is not None else WallClock()
        self.total = 0
        self.done = 0
        self.failed = 0
        self.executed = 0
        self._busy: dict[int, float] = {}
        self._ready_at: dict[int, float] = {}
        self._width = 0

    # -- listener entry point -------------------------------------------

    def __call__(self, record: Mapping[str, Any]) -> None:
        kind = record.get("kind")
        if kind == "header":
            self.total = int(record.get("cells", 0))
            self.done = int(record.get("resumed", 0))
        elif kind == "resumed":
            pass  # already counted via the header's resumed field
        elif kind == "worker":
            self._ready_at[int(record.get("worker", 0))] = float(
                record.get("t_ready", 0.0)
            )
        elif kind == "run":
            if record.get("status") == "crash" and "retry" in record.get("tags", ()):
                return  # the run is still pending; don't count it done
            self.done += 1
            self.executed += 1
            if record.get("status") != "ok":
                self.failed += 1
            worker = int(record.get("worker", 0))
            phases = record.get("phases", {})
            busy = sum(
                float(phases.get(name, 0.0))
                for name in ("deserialize", "execute", "serialize")
            )
            self._busy[worker] = self._busy.get(worker, 0.0) + busy
        elif kind == "summary":
            self._finish(record)
            return
        self._render()

    # -- rendering -------------------------------------------------------

    def _rate(self, now: float) -> float:
        return self.executed / now if now > 0 else 0.0

    def _eta_s(self, now: float) -> float | None:
        rate = self._rate(now)
        remaining = self.total - self.done
        if rate <= 0 or remaining <= 0:
            return None
        return remaining / rate

    def _utilization(self, now: float) -> list[tuple[int, float]]:
        out = []
        for worker in sorted(self._busy):
            ready = self._ready_at.get(worker, 0.0)
            window = max(now - ready, 1e-9)
            out.append((worker, min(1.0, self._busy[worker] / window)))
        return out

    def _render(self) -> None:
        now = self.clock.now()
        line = self._compose(now)
        pad = max(0, self._width - len(line))
        self._width = len(line)
        self.stream.write("\r" + line + " " * pad)
        self.stream.flush()

    def _compose(self, now: float) -> str:
        pct = (self.done / self.total * 100.0) if self.total else 0.0
        parts = [
            f"sweep {self.done}/{self.total} cells ({pct:.0f}%)",
            f"{self._rate(now):.2f} runs/s",
        ]
        eta = self._eta_s(now)
        if eta is not None:
            parts.append(f"eta {eta:.0f}s")
        if self.failed:
            parts.append(f"{self.failed} failed")
        util = self._utilization(now)
        if util:
            parts.append(
                "workers "
                + " ".join(
                    f"w{index} {frac * 100.0:.0f}%"
                    for index, (_, frac) in enumerate(util, start=1)
                )
            )
        return "  ".join(parts)

    def _finish(self, summary: Mapping[str, Any]) -> None:
        line = (
            f"sweep done: {summary.get('executed', 0)} executed, "
            f"{summary.get('skipped', 0)} resumed, "
            f"{summary.get('failed', 0)} failed "
            f"in {float(summary.get('wall_s', 0.0)):.1f}s "
            f"(jobs={summary.get('jobs', 1)})"
        )
        pad = max(0, self._width - len(line))
        self.stream.write("\r" + line + " " * pad + "\n")
        self.stream.flush()

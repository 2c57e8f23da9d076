"""The sweep executor: serial or owned-worker execution of run specs.

Execution model
---------------
Every run is an independent, fully seeded simulation cell, so the executor
can schedule them in any order on any number of workers without changing a
single result.  ``jobs=1`` runs everything in-process (the debugging
fallback — breakpoints and print statements behave normally); ``jobs>1``
starts that many ``spawn`` worker processes, each on its own pipe.  The
parent hands a worker one run at a time and remembers which run each worker
holds; a worker that returns a record gets its next run *before* the parent
writes that record to the store, so the disk write overlaps the next cell.
Workers receive only ``(task name, params)`` pairs and look the task up in
:mod:`repro.runner.tasks` after a fresh import, so nothing unpicklable ever
travels to a worker.  Each worker lives until the queue is empty and keeps the
:func:`~repro.experiments.harness.build_environment` memo cache it
accumulates, so the expensive overlay construction is paid once per distinct
environment per worker, not once per run.

Fault handling
--------------
* A task that *raises* fails deterministically: the error is recorded once
  and never retried (re-running a deterministic function cannot help).
* A run that exceeds ``timeout_s`` is interrupted (SIGALRM, in the worker
  that owns it) and recorded as an error.
* A result that cannot be pickled for the trip back is recorded as an error
  by the worker that computed it.
* A *worker crash* (segfault, OOM kill, ``os._exit``) reads as EOF on that
  worker's pipe: the one run it held is charged an attempt and requeued, at
  most ``retries`` times before it is recorded as failed, and only the dead
  worker is replaced — the others keep their runs and their warm caches.  A
  worker that dies before accepting any run (a broken install, say) aborts
  the sweep with :class:`~repro.errors.SweepExecutionError`.
* Workers are daemons and are stopped in a ``finally``, so a store that
  raises or a Ctrl-C in the parent leaves no orphan processes.

Resume
------
With a persistent :class:`~repro.runner.store.ResultStore` and
``resume=True`` (the default), runs whose records already exist are never
re-executed — an interrupted sweep continues where it stopped, and a
completed sweep re-invoked with the same specs executes nothing.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from ..errors import ConfigurationError, SweepExecutionError
from ..obs.wall import WallClock
from .spec import RunSpec, SweepSpec
from .store import MemoryStore, ResultStore, RunRecord
from .tasks import get_task
from .telemetry import SweepTelemetry, _NullTelemetry

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

__all__ = ["SweepReport", "run_sweep"]

ProgressFn = Callable[[RunRecord, int, int], None]


@dataclass
class SweepReport:
    """Outcome of one :func:`run_sweep` invocation.

    ``records`` holds one record per requested (deduplicated) spec, in
    request order — freshly executed and resumed-from-store alike — so
    aggregation code never needs to know how a sweep was scheduled.
    """

    executed: int = 0
    skipped: int = 0
    failed: int = 0
    wall_seconds: float = 0.0
    records: list[RunRecord] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.records)

    def results(self) -> list[Any]:
        """The task return values of every successful run, in request order."""

        return [record.result for record in self.records if record.ok]

    def summary_line(self) -> str:
        return (
            f"{self.total} runs: {self.executed} executed, "
            f"{self.skipped} resumed, {self.failed} failed "
            f"({self.wall_seconds:.1f}s)"
        )


# ----------------------------------------------------------------------
# Single-run execution (shared by the serial path and the workers)
# ----------------------------------------------------------------------


class _RunTimeout(SweepExecutionError):
    """Internal: a run exceeded its per-run wall-clock budget."""


def _alarm_supported() -> bool:
    # SIGALRM only exists on POSIX and only fires in a process's main
    # thread; workers execute tasks on their main thread, so this holds
    # everywhere except exotic embedding scenarios.
    return hasattr(signal, "SIGALRM") and (
        threading.current_thread() is threading.main_thread()
    )


def _reset_global_counters() -> None:
    """Start every run from pristine global id-counter state.

    Transaction ids feed the TRS digest (and thus the overlay draw), so a
    cell's measurements would otherwise depend on what else happened to run
    in the same process first.  Resetting before each run makes every record
    a pure function of its spec — the invariant behind the serial-vs-parallel
    byte-identity guarantee.
    """

    from ..mempool.transaction import reset_tx_ids
    from ..net.events import reset_message_ids

    reset_tx_ids()
    reset_message_ids()


def _execute_record(spec: RunSpec, timeout_s: float | None) -> RunRecord:
    """Run one spec to completion and wrap the outcome in a record.

    Task exceptions are captured as ``status="error"`` records rather than
    raised: a failing cell must not abort the sweep around it.
    """

    task = get_task(spec.task)
    _reset_global_counters()
    use_alarm = timeout_s is not None and timeout_s > 0 and _alarm_supported()
    previous_handler = None
    if use_alarm:

        def _on_alarm(signum, frame):
            raise _RunTimeout(f"run exceeded timeout of {timeout_s:g}s")

        previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        result = task(dict(spec.params))
    except _RunTimeout as exc:
        return RunRecord.build(spec, status="error", error=str(exc))
    except Exception as exc:  # noqa: BLE001 - captured into the record
        return RunRecord.build(
            spec, status="error", error=f"{type(exc).__name__}: {exc}"
        )
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous_handler)
    return RunRecord.build(spec, result=result)


def _execute_timed(
    spec: RunSpec,
    timeout_s: float | None,
    clock: WallClock,
    *,
    worker: int = 0,
    t_submit: float | None = None,
    t_start: float | None = None,
) -> tuple[RunRecord, dict[str, Any]]:
    """Run *spec* and time it: the one execute path, serial and worker alike.

    Timing wraps :func:`_execute_record` and never enters it, so what gets
    stored cannot depend on who is watching.  A worker passes the parent's
    hand-off time and its own pick-up time (taken before it decoded the spec
    document); a serial run has neither queue nor document, so both default
    to "now" and ``enqueue_wait`` / ``deserialize`` are genuinely zero.
    """

    t_decoded = clock.now()
    t_start = t_decoded if t_start is None else t_start
    t_submit = t_start if t_submit is None else t_submit
    record = _execute_record(spec, timeout_s)
    t_end = clock.now()
    return record, {
        "worker": worker,
        "t_submit": t_submit,
        "t_start": t_start,
        "t_end": t_end,
        "phases": {
            "enqueue_wait": max(0.0, t_start - t_submit),  # marks of two processes
            "deserialize": t_decoded - t_start,
            "execute": t_end - t_decoded,
        },
    }


def _worker_main(
    conn: Connection, origin: float, t_spawn: float, timeout_s: float | None
) -> None:
    """An owned worker: report ready, then serve runs until the pipe closes.

    The first message is the worker's lifecycle record: ``spawn`` is
    everything between the parent starting the process and this function
    running (interpreter start-up, ``repro`` module imports); ``env_build``
    is the warm-up import of the experiment harness, the module whose
    construction caches all simulation tasks share.  Each later message
    answers a ``(spec document, hand-off time)`` with ``(pickled record,
    timing)`` — pickled here, not by ``send``, so that ``serialize`` is
    measured and an unpicklable result becomes an error record.
    """

    clock = WallClock(origin=origin)  # the parent's timebase
    t_spawned = clock.now()
    from ..experiments import harness  # noqa: F401 - warm-up import only
    t_ready = clock.now()
    pid = os.getpid()
    conn.send(
        {
            "pid": pid,
            "t_spawned": t_spawned,
            "t_ready": t_ready,
            "spawn": max(0.0, t_spawned - t_spawn),  # marks of two processes
            "env_build": t_ready - t_spawned,
        }
    )
    while True:
        try:
            spec_doc, t_submit = conn.recv()
        except EOFError:  # the parent has no more runs for this worker
            return
        t_start = clock.now()
        spec = RunSpec.from_json(spec_doc)
        record, timing = _execute_timed(
            spec, timeout_s, clock, worker=pid, t_submit=t_submit, t_start=t_start
        )
        try:
            payload = pickle.dumps(record)
        except Exception as exc:  # noqa: BLE001 - captured into the record
            error = f"{type(exc).__name__}: {exc}"
            payload = pickle.dumps(RunRecord.build(spec, status="error", error=error))
        t_pickled = clock.now()
        timing["phases"]["serialize"] = t_pickled - timing["t_end"]
        timing["t_end"] = t_pickled
        conn.send((payload, timing))


# ----------------------------------------------------------------------
# The sweep driver
# ----------------------------------------------------------------------


def _normalize_specs(specs: SweepSpec | Iterable[RunSpec]) -> list[RunSpec]:
    expanded = specs.expand() if isinstance(specs, SweepSpec) else list(specs)
    if not expanded:
        raise ConfigurationError("run_sweep needs at least one RunSpec")
    unique: dict[str, RunSpec] = {}
    for spec in expanded:
        if not isinstance(spec, RunSpec):
            raise ConfigurationError(f"expected RunSpec, got {type(spec).__name__}")
        unique.setdefault(spec.spec_hash, spec)
    return list(unique.values())


def run_sweep(
    specs: SweepSpec | Iterable[RunSpec],
    *,
    store: ResultStore | MemoryStore | None = None,
    jobs: int = 1,
    resume: bool = True,
    timeout_s: float | None = None,
    retries: int = 2,
    progress: ProgressFn | None = None,
    telemetry: SweepTelemetry | None = None,
) -> SweepReport:
    """Execute every spec, skipping completed ones, and report all records.

    Parameters
    ----------
    specs: a :class:`SweepSpec` (expanded in grid order) or any iterable of
        :class:`RunSpec`; duplicate cells are executed once.
    store: where records live.  ``None`` means a throwaway in-memory store
        (nothing to resume from later).
    jobs: worker processes; ``1`` (default) executes serially in-process.
    resume: skip cells whose records already exist in *store*.
    timeout_s: per-run wall-clock budget, enforced inside the executing
        process; a timed-out run is recorded as an error.
    retries: how many times a run may be requeued after a *worker crash*
        before being recorded as failed (deterministic task errors are never
        retried).
    progress: optional callback ``(record, done, total)`` invoked as each
        run finishes (including resumed ones, with their stored records).
    telemetry: optional :class:`~repro.runner.telemetry.SweepTelemetry`
        collector; when given, every run (and every worker) emits a
        wall-clock lifecycle record into the ``repro.sweeptrace/1`` timeline.
        Telemetry is observation-only: stored records are byte-identical with
        it on or off.
    """

    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    ordered = _normalize_specs(specs)
    if store is None:
        store = MemoryStore()

    started = time.perf_counter()
    report = SweepReport()
    by_hash: dict[str, RunRecord] = {}
    pending: list[RunSpec] = []
    if resume:
        for spec in ordered:
            record = store.load(spec)
            if record is not None and record.ok:
                by_hash[spec.spec_hash] = record
            else:
                pending.append(spec)
        report.skipped = len(ordered) - len(pending)
    else:
        pending = list(ordered)

    done_count = len(ordered) - len(pending)
    total = len(ordered)
    if telemetry is None:
        telemetry = _NullTelemetry()
    telemetry.sweep_started(jobs=jobs, cells=total, resumed=report.skipped)
    for spec in ordered:
        if spec.spec_hash in by_hash:
            telemetry.run_resumed(spec.spec_hash)
            if progress is not None:
                progress(by_hash[spec.spec_hash], done_count, total)

    def finish(record: RunRecord, timing: Mapping[str, Any], attempt: int = 1) -> None:
        nonlocal done_count
        by_hash[record["spec_hash"]] = record
        write_started = telemetry.clock.now()
        store.save(record)
        telemetry.run_finished(
            record,
            timing,
            store_write_s=telemetry.clock.now() - write_started,
            attempt=attempt,
        )
        report.executed += 1
        if not record.ok:
            report.failed += 1
        done_count += 1
        if progress is not None:
            progress(record, done_count, total)

    if jobs == 1:
        for spec in pending:
            finish(*_execute_timed(spec, timeout_s, telemetry.clock))
    elif pending:
        _run_pooled(pending, jobs, timeout_s, retries, finish, telemetry)

    report.records = [by_hash[spec.spec_hash] for spec in ordered]
    report.wall_seconds = time.perf_counter() - started
    telemetry.sweep_finished(
        wall_s=report.wall_seconds,
        executed=report.executed,
        skipped=report.skipped,
        failed=report.failed,
        cells=total,
    )
    return report


@dataclass
class _Worker:
    """One owned worker process, as the parent sees it."""

    process: Any
    spec: RunSpec | None = None  # the run it holds; None until it reports ready


def _run_pooled(
    pending: Iterable[RunSpec],
    jobs: int,
    timeout_s: float | None,
    retries: int,
    finish: Callable[..., None],
    telemetry: SweepTelemetry,
) -> None:
    """Fan *pending* out over owned spawn workers, one run per worker at a time.

    ``workers`` maps the parent's end of each live worker's pipe to the run
    that worker holds, which is all the state fault attribution needs: EOF on
    a pipe blames exactly that run.  The queue only grows by a requeued crash,
    and a replacement is spawned right then, so a non-empty queue always has a
    worker coming for it and the loop ends when the last worker is retired.
    """

    from multiprocessing import connection, get_context  # serial sweeps never load it

    context = get_context("spawn")
    queue = deque(pending)
    attempts: dict[str, int] = {}
    workers: dict[Connection, _Worker] = {}
    started = []  # every process of this sweep, reaped at the end: an exit takes ~20 ms

    def spawn() -> None:
        ours, theirs = context.Pipe()
        args = (theirs, telemetry.clock.origin, telemetry.clock.now(), timeout_s)
        process = context.Process(target=_worker_main, args=args, daemon=True)
        process.start()
        theirs.close()  # the worker holds the only copy: its death is our EOF
        workers[ours] = _Worker(process)
        started.append(process)

    def hand_off(conn: Connection) -> None:
        """Give the worker behind *conn* its next run, or retire it."""

        if not queue:
            conn.close()  # EOF ends the worker's receive loop
            del workers[conn]
            return
        spec = workers[conn].spec = queue.popleft()
        try:
            conn.send((spec.to_json(), telemetry.clock.now()))
        except OSError:
            pass  # it died idle: the next wait() reads EOF and requeues the run

    def bury(conn: Connection) -> None:
        """The worker behind *conn* died: charge the run it held, replace it."""

        worker = workers.pop(conn)
        conn.close()
        spec, pid = worker.spec, worker.process.pid
        if spec is None:
            raise SweepExecutionError(f"sweep worker {pid} died before accepting a run")
        count = attempts[spec.spec_hash] = attempts.get(spec.spec_hash, 0) + 1
        if count > retries:
            error = f"worker crashed and retry budget exhausted after {count} attempts"
            record = RunRecord.build(spec, status="error", error=error, attempts=count)
            finish(record, {"worker": pid}, count)
        else:
            telemetry.run_crashed(spec, attempt=count, worker=pid)
            queue.append(spec)
        if queue:
            spawn()

    try:
        for _ in range(min(jobs, len(queue))):
            spawn()
        while workers:
            for conn in connection.wait(list(workers)):
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    bury(conn)
                    continue
                spec = workers[conn].spec
                # Hand-off comes first: the worker starts its next run while
                # the parent is still writing the record it just returned.
                hand_off(conn)
                if spec is None:
                    telemetry.worker_seen(message)
                else:
                    payload, timing = message
                    attempt = attempts.get(spec.spec_hash, 0) + 1
                    finish(pickle.loads(payload), timing, attempt)
    finally:
        for worker in workers.values():  # only non-empty when unwinding an error
            worker.process.kill()
        for process in started:
            process.join()

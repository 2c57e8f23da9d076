"""Integration: the sweep runner's parallel execution and resume guarantees.

The acceptance bar for the runner subsystem:

* a seeded sweep produces **byte-identical** per-run records under
  ``jobs=1`` and ``jobs=4`` — scheduling must not leak into results;
* re-invoking a completed sweep with ``resume=True`` executes **zero** new
  runs while reproducing the same aggregate report;
* a store damaged the way real sweeps damage it — a truncated record, a stray
  temp file from a killed writer, a misfiled copy, a worker SIGKILLed mid-run
  — resumes by executing exactly the missing cells and ends byte-identical
  to an undisturbed run;
* a crashing worker is retried up to the budget and then recorded as a
  failure instead of hanging or aborting the sweep — and the crash is charged
  to the one run that worker held: healthy neighbours are never blamed, never
  re-run, and keep their worker.

Spawn pools are slow to start, so the grids here are tiny (N=30, a few
transactions); the properties under test are scheduling properties, not
statistics, and do not need large runs.
"""

import multiprocessing
import os
import signal

import pytest

from repro.errors import SweepExecutionError
from repro.runner import (
    MemoryStore,
    ResultStore,
    RunSpec,
    SweepSpec,
    SweepTelemetry,
    latency_summaries,
    run_sweep,
)

# One small but non-trivial grid: two protocols x two seeds, with faults on
# one axis so the FaultPlan path is exercised through the workers too.
SWEEP = SweepSpec(
    task="dissemination",
    base={"num_nodes": 30, "f": 1, "k": 2, "transactions": 2, "horizon_ms": 4_000.0},
    grid={
        "protocol": ["hermes", "lzero"],
        "seed": [0, 1],
        "fault_fraction": [0.0, 0.2],
    },
)


def _store_bytes(store: ResultStore) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(store.root.glob("*.json"))}


def _timeline(telemetry: SweepTelemetry, kind: str) -> list[dict]:
    return [record for record in telemetry.records if record.get("kind") == kind]


class TestSerialParallelIdentity:
    def test_jobs1_and_jobs4_write_identical_records(self, tmp_path):
        serial_store = ResultStore(tmp_path / "serial")
        parallel_store = ResultStore(tmp_path / "parallel")

        serial = run_sweep(SWEEP, store=serial_store, jobs=1)
        parallel = run_sweep(SWEEP, store=parallel_store, jobs=4)

        assert serial.failed == 0 and parallel.failed == 0
        assert serial.executed == parallel.executed == len(SWEEP) == 8

        serial_bytes = _store_bytes(serial_store)
        parallel_bytes = _store_bytes(parallel_store)
        assert set(serial_bytes) == set(parallel_bytes)
        assert serial_bytes == parallel_bytes  # byte-for-byte identical

        # Records come back in request order on both paths.
        order = [r["spec_hash"] for r in serial.records]
        assert order == [r["spec_hash"] for r in parallel.records]

    def test_resume_executes_nothing_and_reproduces_aggregates(self, tmp_path):
        store = ResultStore(tmp_path / "resumable")
        first = run_sweep(SWEEP, store=store, jobs=4)
        assert first.executed == len(SWEEP) and first.failed == 0
        before = _store_bytes(store)
        first_summaries = latency_summaries(first.records)

        again = run_sweep(SWEEP, store=store, jobs=4)
        assert again.executed == 0
        assert again.skipped == len(SWEEP)
        assert _store_bytes(store) == before  # nothing rewritten
        assert latency_summaries(again.records) == first_summaries

    def test_interrupted_sweep_continues_where_it_stopped(self, tmp_path):
        store = ResultStore(tmp_path / "partial")
        cells = SWEEP.expand()
        # Simulate an interruption: only the first half completed.
        head = run_sweep(cells[: len(cells) // 2], store=store, jobs=1)
        assert head.executed == len(cells) // 2

        finished = run_sweep(SWEEP, store=store, jobs=4)
        assert finished.skipped == len(cells) // 2
        assert finished.executed == len(cells) - len(cells) // 2
        assert finished.failed == 0
        assert len(store) == len(cells)


class TestWorkerCrashes:
    def test_crash_exhausts_retries_and_is_recorded(self, tmp_path):
        store = ResultStore(tmp_path / "crashes")
        spec = RunSpec(task="selftest.crash", params={"code": 17})
        report = run_sweep([spec], store=store, jobs=2, retries=1)
        assert report.failed == 1
        record = report.records[0]
        assert not record.ok
        assert "worker crashed" in record["error"]
        assert record["attempts"] == 2  # initial try + one retry

    def test_healthy_runs_survive_a_crashing_neighbour(self, tmp_path):
        store = ResultStore(tmp_path / "mixed")
        specs = [
            RunSpec(task="selftest.echo", params={"x": i}) for i in range(4)
        ] + [RunSpec(task="selftest.crash", params={"code": 17})]
        report = run_sweep(specs, store=store, jobs=2, retries=1)
        assert report.failed == 1
        ok = [r for r in report.records if r.ok]
        assert sorted(r.result["x"] for r in ok) == [0, 1, 2, 3]

    @pytest.mark.parametrize("jobs", [2, 3, 4])
    def test_crashes_are_charged_to_the_run_that_crashed(self, jobs):
        # Ten crashing cells between twenty healthy ones, one retry each:
        # twenty worker deaths per sweep, sixty over the three pool sizes.
        # Whatever the interleaving, a death costs exactly one run one attempt.
        specs = []
        for i in range(10):
            specs.append(RunSpec(task="selftest.echo", params={"x": 2 * i}))
            specs.append(RunSpec(task="selftest.crash", params={"code": 17, "i": i}))
            specs.append(RunSpec(task="selftest.echo", params={"x": 2 * i + 1}))
        telemetry = SweepTelemetry()
        report = run_sweep(specs, jobs=jobs, retries=1, telemetry=telemetry)

        assert report.failed == 10
        for record in report.records:
            if record["spec"]["task"] == "selftest.echo":
                assert record.ok and record["attempts"] == 1
            else:
                assert "worker crashed" in record["error"]
                assert record["attempts"] == 2
        runs = _timeline(telemetry, "run")
        healthy = [r for r in runs if r["task"] == "selftest.echo"]
        assert len(healthy) == 20  # each executed once ...
        assert all(r["status"] == "ok" and r["attempt"] == 1 for r in healthy)
        crashes = [r for r in runs if "crash" in r["tags"]]
        assert len(crashes) == 20
        assert all(r["worker"] > 0 for r in crashes)  # ... and names its worker

    def test_only_the_dead_worker_is_replaced(self):
        # Sleeping cells keep three workers in step; one of them draws the
        # crash.  The other two must carry on under the same pid.
        naps = [
            RunSpec(task="selftest.sleep", params={"seconds": 0.05, "i": i})
            for i in range(36)
        ]
        specs = naps[:18] + [RunSpec(task="selftest.crash")] + naps[18:]
        telemetry = SweepTelemetry()
        report = run_sweep(specs, jobs=3, retries=0, telemetry=telemetry)
        assert report.failed == 1

        runs = _timeline(telemetry, "run")
        (crash_at,) = [i for i, r in enumerate(runs) if "crash" in r["tags"]]
        before = {r["worker"] for r in runs[:crash_at]}
        after = {r["worker"] for r in runs[crash_at + 1:]}
        assert before - {runs[crash_at]["worker"]} <= after
        assert runs[crash_at]["worker"] not in after
        workers = _timeline(telemetry, "worker")
        assert len(workers) <= 3 + 1  # jobs + crashes

    def test_timeout_on_a_respawned_worker_is_a_timeout_not_a_crash(self):
        # Both first workers die on a crash cell (no retry), so both sleeps
        # run — and overrun — on replacements.
        crashes = [RunSpec(task="selftest.crash", params={"i": i}) for i in range(2)]
        sleeps = [
            RunSpec(task="selftest.sleep", params={"seconds": 30.0, "i": i})
            for i in range(2)
        ]
        telemetry = SweepTelemetry()
        report = run_sweep(
            crashes + sleeps, jobs=2, retries=0, timeout_s=0.5, telemetry=telemetry
        )
        assert report.failed == 4
        records = {r["spec_hash"]: r for r in report.records}
        runs = {r["spec_hash"]: r for r in _timeline(telemetry, "run")}
        dead = {runs[spec.spec_hash]["worker"] for spec in crashes}
        for spec in sleeps:
            run = runs[spec.spec_hash]
            assert run["tags"] == ["timeout"]
            assert run["worker"] not in dead
            assert "timeout" in records[spec.spec_hash]["error"]

    def test_healthy_records_next_to_a_crash_match_serial_bytes(self, tmp_path):
        cells = SWEEP.expand()[:4]
        serial_store = ResultStore(tmp_path / "serial")
        run_sweep(cells, store=serial_store, jobs=1)

        mixed_store = ResultStore(tmp_path / "mixed")
        crash = RunSpec(task="selftest.crash")
        report = run_sweep(
            cells[:2] + [crash] + cells[2:], store=mixed_store, jobs=2, retries=1
        )
        assert report.failed == 1
        mixed = _store_bytes(mixed_store)
        del mixed[mixed_store.path_for(crash).name]
        assert mixed == _store_bytes(serial_store)

    def test_unpicklable_result_is_an_error_record_and_the_worker_survives(self):
        specs = [RunSpec(task="selftest.unpicklable")] + [
            RunSpec(task="selftest.echo", params={"x": i}) for i in range(4)
        ]
        telemetry = SweepTelemetry()
        report = run_sweep(specs, jobs=2, retries=0, telemetry=telemetry)
        assert report.failed == 1
        bad = report.records[0]
        assert not bad.ok and bad["attempts"] == 1
        assert "pickle" in bad["error"].lower()
        runs = _timeline(telemetry, "run")
        assert not any("crash" in r["tags"] for r in runs)
        (bad_run,) = [r for r in runs if r["task"] == "selftest.unpicklable"]
        assert bad_run["tags"] == ["error"]
        workers = _timeline(telemetry, "worker")
        assert len(workers) <= 2  # nobody had to be replaced

    def test_worker_that_cannot_start_aborts_the_sweep(self, monkeypatch):
        # A worker that dies before reporting ready holds no run to charge;
        # replacing it forever would hang the sweep on a broken install.
        # `os._exit(conn, origin, ...)` is a TypeError in the child: exit code 1.
        monkeypatch.setattr("repro.runner.executor._worker_main", os._exit)
        specs = [RunSpec(task="selftest.echo", params={"x": i}) for i in range(4)]
        with pytest.raises(SweepExecutionError, match="before accepting a run"):
            run_sweep(specs, jobs=2)
        assert multiprocessing.active_children() == []

    def test_a_raising_store_leaves_no_orphan_workers(self):
        class FullDisk(MemoryStore):
            def save(self, record):
                raise OSError("no space left on device")

        naps = [
            RunSpec(task="selftest.sleep", params={"seconds": 0.2, "i": i})
            for i in range(6)
        ]
        with pytest.raises(OSError, match="no space left"):
            run_sweep(naps, store=FullDisk(), jobs=2)  # dies with a nap in flight
        assert multiprocessing.active_children() == []


class TestResumeAfterDamage:
    """The chaos idiom pointed at our own store: break it, resume, compare."""

    NAPS = [
        RunSpec(task="selftest.sleep", params={"seconds": 0.05, "i": i})
        for i in range(8)
    ]

    @pytest.fixture
    def undisturbed(self, tmp_path):
        store = ResultStore(tmp_path / "undisturbed")
        assert run_sweep(self.NAPS, store=store, jobs=1).failed == 0
        return _store_bytes(store)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_torn_stray_and_misfiled_files_cost_exactly_their_cells(
        self, tmp_path, undisturbed, jobs
    ):
        store = ResultStore(tmp_path / "damaged")
        run_sweep(self.NAPS, store=store, jobs=jobs)
        torn, stray, misfiled, donor = (store.path_for(s) for s in self.NAPS[:4])
        torn.write_bytes(torn.read_bytes()[:40])  # a writer without the rename
        stray.rename(store.root / f".{stray.stem[:12]}.killed.tmp")  # died before it
        misfiled.write_bytes(donor.read_bytes())  # cp over the wrong name

        again = run_sweep(self.NAPS, store=store, jobs=jobs)
        assert (again.executed, again.skipped, again.failed) == (3, 5, 0)
        assert _store_bytes(store) == undisturbed
        assert run_sweep(self.NAPS, store=store, jobs=jobs).executed == 0

    def test_worker_sigkilled_mid_run_costs_exactly_its_cell(
        self, tmp_path, undisturbed
    ):
        store = ResultStore(tmp_path / "killed")
        killed = []

        def kill_after_first_run(record):
            # A worker is handed its next run before the record it returned is
            # stored and reported, so by now this one is inside another nap.
            if record.get("kind") == "run" and not killed:
                killed.append(record["worker"])
                os.kill(record["worker"], signal.SIGKILL)

        first = run_sweep(
            self.NAPS,
            store=store,
            jobs=2,
            retries=0,
            telemetry=SweepTelemetry(listener=kill_after_first_run),
        )
        assert killed and first.failed == 1
        (lost,) = [r for r in first.records if not r.ok]
        assert "worker crashed" in lost["error"]

        again = run_sweep(self.NAPS, store=store, jobs=2)
        assert (again.executed, again.skipped, again.failed) == (1, 7, 0)
        assert again.records[first.records.index(lost)].ok
        assert _store_bytes(store) == undisturbed

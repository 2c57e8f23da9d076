"""Drills: SIGKILL the parent of a pooled sweep, or make its results
directory refuse writes, then resume it.

The sweep CLI runs in its own session with two workers and a timeline.  Once
the first record lands, only the parent is killed: nothing runs its
``finally``, so the workers must notice on their own.  A worker learns it is
alone from its pipe — EOF while it waits for a run, a broken pipe when it
returns one — which only happens if no other process still holds the
parent's end of that pipe.  A forked worker that kept the pipe ends it
inherited would wait forever.  Then:

* every worker the timeline names, and every other process of the session,
  is gone within 5 s;
* a ``*.tmp`` file — what a parent killed inside ``store.save`` leaves, before
  the rename — is never read as a record;
* a resume executes exactly the cells without a record, and the store ends
  byte-identical to an undisturbed sweep.

A store that refuses a write mid-sweep must fail the sweep with the error,
leave no ``*.tmp`` file, reap every worker, and resume the same way.
"""

import errno
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runner import ResultStore, RunSpec, SweepTelemetry, run_sweep

SRC = Path(__file__).resolve().parents[2] / "src"
NAPS = [RunSpec(task="selftest.sleep", params={"i": i, "seconds": 0.25}) for i in range(8)]
ARGV = [
    "-m", "repro", "sweep", "--task", "selftest.sleep",
    "--set", "i=" + ",".join(str(spec.params["i"]) for spec in NAPS),
    "--set", "seconds=0.25", "--jobs", "2",
]

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGKILL") or not hasattr(os, "setsid"), reason="POSIX only"
)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def _stat(pid: int) -> list[str] | None:
    """The fields of /proc/<pid>/stat after the command name, or None."""

    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
            return handle.read().rpartition(")")[2].split()
    except OSError:
        return None


def _alive(pid: int) -> bool:
    """Still running: an exited process waiting to be reaped counts as gone."""

    if os.path.isdir("/proc"):
        fields = _stat(pid)
        return fields is not None and fields[0] != "Z"
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _session(sid: int) -> set[int]:
    """Live processes of session *sid* (empty where /proc is missing)."""

    if not os.path.isdir("/proc"):
        return set()
    members = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat(int(entry))
            if fields is not None and fields[0] != "Z" and int(fields[3]) == sid:
                members.add(int(entry))
    return members


def _timeline(path: Path, kind: str) -> list[dict]:
    text = path.read_text(encoding="utf-8") if path.exists() else ""
    lines = text.split("\n")[:-1]  # a line cut short by the kill has no newline
    return [record for record in map(json.loads, lines) if record.get("kind") == kind]


def _store_bytes(store: ResultStore) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(store.root.glob("*.json"))}


def test_sigkilled_parent_leaves_no_workers_and_resumes_exactly(tmp_path):
    undisturbed = ResultStore(tmp_path / "undisturbed")
    assert run_sweep(NAPS, store=undisturbed, jobs=1).failed == 0

    results, timeline = tmp_path / "records", tmp_path / "timeline.jsonl"
    argv = [sys.executable, *ARGV, "--results-dir", str(results), "--timeline", str(timeline)]
    parent = subprocess.Popen(
        argv, env=_env(), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60.0
        while not (results.is_dir() and any(results.glob("*.json"))):
            assert parent.poll() is None, "the sweep ended before its first record"
            assert time.monotonic() < deadline, "no record within 60 s"
            time.sleep(0.01)
        os.kill(parent.pid, signal.SIGKILL)
    finally:
        if parent.poll() is None:
            os.kill(parent.pid, signal.SIGKILL)
        parent.wait()

    workers = {record["worker"] for record in _timeline(timeline, "worker")}
    assert len(workers) == 2
    deadline = time.monotonic() + 5.0
    while ({pid for pid in workers if _alive(pid)} | _session(parent.pid)) and (
        time.monotonic() < deadline
    ):
        time.sleep(0.05)
    left = {pid for pid in workers if _alive(pid)} | _session(parent.pid)
    for pid in left:  # do not leave them running if the assertion fails
        os.kill(pid, signal.SIGKILL)
    assert not left, f"processes of the killed sweep still running after 5 s: {left}"

    # What a parent killed inside store.save leaves: a temp file, complete or
    # torn, under the name of a cell whose record never landed.
    store = ResultStore(results)
    landed = {spec.spec_hash for spec in NAPS if store.path_for(spec).exists()}
    missing = [spec for spec in NAPS if spec.spec_hash not in landed]
    assert 0 < len(landed) < len(NAPS)
    donor = undisturbed.path_for(missing[0]).read_bytes()
    (results / f".{missing[0].spec_hash[:12]}.killed.tmp").write_bytes(donor)
    (results / f".{missing[-1].spec_hash[:12]}.torn.tmp").write_bytes(donor[:40])
    assert len(store) == len(landed)
    assert {record["spec_hash"] for record in store.records()} == landed

    resumed = subprocess.run(
        [sys.executable, *ARGV, "--results-dir", str(results)],
        env=_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    summary = resumed.stdout.splitlines()[0]
    assert summary.startswith(
        f"{len(NAPS)} runs: {len(missing)} executed, {len(landed)} resumed, 0 failed"
    ), summary
    assert _store_bytes(store) == _store_bytes(undisturbed)


def _reaped(pid: int) -> bool:
    """Whether our child *pid* has exited and been waited for."""

    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False  # still running, or a zombie until this very call


def test_a_store_that_refuses_writes_fails_the_sweep_and_resumes_exactly(
    tmp_path, monkeypatch
):
    # The results directory turns read-only after three records.  Tests run
    # as root, where chmod denies nothing, so the store's rename refuses.
    undisturbed = ResultStore(tmp_path / "undisturbed")
    assert run_sweep(NAPS, store=undisturbed, jobs=1).failed == 0
    store = ResultStore(tmp_path / "records")
    real_replace, renamed = os.replace, []

    def replace(src, dst):
        if Path(dst).parent == store.root:
            if len(renamed) == 3:
                raise PermissionError(errno.EACCES, "Permission denied", str(dst))
            renamed.append(dst)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    telemetry = SweepTelemetry()
    with pytest.raises(PermissionError):
        run_sweep(NAPS, store=store, jobs=2, telemetry=telemetry)
    monkeypatch.undo()

    assert [path.name for path in store.root.iterdir() if path.suffix == ".tmp"] == []
    workers = {record["worker"] for record in telemetry.records if record.get("kind") == "worker"}
    assert len(workers) == 2
    assert [pid for pid in workers if not _reaped(pid)] == []
    assert len(store) == 3

    resumed = run_sweep(NAPS, store=store, jobs=2)
    assert (resumed.executed, resumed.skipped, resumed.failed) == (len(NAPS) - 3, 3, 0)
    assert _store_bytes(store) == _store_bytes(undisturbed)

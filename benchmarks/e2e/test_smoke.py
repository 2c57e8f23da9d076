"""Smoke test of the benchmark itself: ``pytest benchmarks/e2e``.

Not part of the tier-1 ``testpaths``.  Pushes every workload at ``--scale
smoke`` (N <= 60) through both modes of the ``BENCHMARK.json`` contract and
checks that what comes out is exactly what ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from tracing import check_nesting, self_times  # noqa: E402
from workloads import SCALES, WORKLOADS as TABLE  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
GATED = [workload["name"] for workload in SPEC["workloads"]]
WORKLOADS = list(TABLE)  # the gated four and the two only suite mode runs
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def contract_run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_names_are_well_formed_and_unique():
    names = GATED + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert len(SPEC["per_layer"]) <= 128
    assert "setup_s" in {metric["name"] for metric in SPEC["end_to_end"]}


def test_workload_table_matches_spec():
    assert [name for name in WORKLOADS if name in GATED] == GATED
    assert all(TABLE[w["name"]] == w["why"] for w in SPEC["workloads"])
    for scale in SCALES.values():
        assert set(scale) == set(WORKLOADS)
    assert all(p["nodes"] <= 60 for p in SCALES["smoke"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    result = contract_run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    result = contract_run(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    declared = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert result["metrics"]["sim.digest_ok"]["value"] == 1.0

    lines = (HERE / "results" / f"trace-{workload}.jsonl").read_text().splitlines()
    spans = [json.loads(line) for line in lines]
    assert spans and all(
        set(span) == {"name", "start", "end", "parent", "run_id"} for span in spans
    )
    assert len({span["run_id"] for span in spans}) == 1
    assert check_nesting(spans) == []
    assert all(seconds >= -1e-3 for seconds in self_times(spans).values())


def test_compare_reports_worse_and_ok(tmp_path):
    def result_set(wall: float) -> dict:
        row = {"median": wall, "q1": wall * 0.99, "q3": wall * 1.01, "n": 5, "unit": "s"}
        return {"seed": 0, "scale": "smoke",
                "workloads": {name: {"metrics": {m["name"]: row for m in SPEC["end_to_end"]},
                                     "sim": {}} for name in WORKLOADS}}

    a, b, c = (tmp_path / f"{name}.json" for name in "abc")
    a.write_text(json.dumps(result_set(1.0)))
    b.write_text(json.dumps(result_set(1.01)))
    c.write_text(json.dumps(result_set(2.0)))

    def compare(x: Path, y: Path) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, str(HERE / "run.py"), "--compare", str(x), str(y)],
                              capture_output=True, text=True, timeout=60)

    same = compare(a, b)
    assert same.returncode == 0 and "worse" not in same.stdout and "unresolved" not in same.stdout
    slower = compare(a, c)
    assert slower.returncode == 1 and "worse" in slower.stdout

"""The repo benchmark: six workloads, measured from outside the program.

``BENCHMARK.json`` lists the four of them that its driver gates (all it has
time for); the other two run in suite mode and by name like the rest.

Three ways in, one measuring path underneath (``measure`` runs a workload once
in a fresh child process, ``trace`` does the traced run):

``run.py --workload W --seed N --seconds S --trace 0|1``
    The ``BENCHMARK.json`` contract.  Repeats W in fresh children for about S
    seconds, verifies every simulated output, and prints as its last line one
    JSON object: the end-to-end metrics (``--trace 0``, the best of the
    repeats: see ``steady_value``) or the per-layer metrics (``--trace 1``,
    from one traced run).

``run.py [--runs 5] [--traced] [--out FILE]``
    Every workload, runs interleaved round-robin; prints median, quartiles and
    run count of every metric, writes the result set and one ``repro.bench/1``
    record per workload under ``results/``, exits 1 if any check failed.

``run.py --compare A.json B.json``
    Two result sets side by side against the bounds in ``BENCHMARK.json``.

``run.py --update-expected`` rewrites the pinned seed-0 digests.

All times are host seconds.  Names starting ``sim.`` are simulated and must
repeat exactly.  See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"
EXPECTED = HERE / "expected.json"
sys.path.insert(0, str(HERE))

from tracing import Tracer, check_nesting, self_times, write_spans
from workloads import SCALES, SWEEPS, WORKLOADS, sweep_argv, sweep_cells

CHILD_TIMEOUT_S = 150.0
SETUP_SPANS = (
    "repro.import", "experiments.harness.build_environment", "net.topology.generate",
    "load.arrival.schedule",
)
PAPER_LZERO_HERMES_RATIO = 172.02 / 83.22  # Fig. 3a at N = 10,000
FIG3A_ORDER = ["mercury", "hermes", "narwhal", "lzero"]


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def digest(value) -> str:
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def versions() -> dict[str, str]:
    return {"python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy")}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile); degenerate below two values."""

    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def run_child(argv: list[str], log: Path, watch_dir: Path | None = None) -> dict:
    """Start *argv*, wait for it, and report what the parent can see.

    Returns spawn/exit times, the exit code, the peak RSS of the child's
    process tree and, with *watch_dir*, when the first ``*.json`` record
    became visible there (polled every 10 ms).
    """

    with open(log, "w", encoding="utf-8") as handle:
        t_spawn = time.perf_counter()
        # Its own process group, so that a timeout also stops its pool workers.
        proc = subprocess.Popen(argv, stdout=handle, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT, start_new_session=True)
        t_first = None
        pid = 0
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                now = time.perf_counter()
                if pid or now - t_spawn > CHILD_TIMEOUT_S:
                    break
                if watch_dir is not None and t_first is None and any(
                    entry.name.endswith(".json") for entry in os.scandir(watch_dir)
                ):
                    t_first = now
                time.sleep(0.01)
        finally:
            if not pid:  # timed out, or this process is being interrupted
                os.killpg(proc.pid, signal.SIGKILL)
                pid, status, usage = os.wait4(proc.pid, 0)
                now = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if watch_dir is not None and t_first is None and any(watch_dir.glob("*.json")):
        t_first = now  # written and exited between two polls
    return {
        "t_spawn": t_spawn, "t_exit": now, "t_first": t_first,
        "code": proc.returncode,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
    }


def log_tail(log: Path) -> str:
    return log.read_text(encoding="utf-8", errors="replace")[-2000:]


def structural(name: str, ok: bool, detail: str) -> dict:
    """A check with no simulated result behind it (nothing to pin a digest to)."""

    return {"name": name, "ok": ok, "digest": "", "detail": "" if ok else detail}


def crashed(name: str, log: Path, code: int) -> list[dict]:
    return [structural(name, False, f"child exited with code {code}: {log_tail(log)}")]


# ----------------------------------------------------------------------
# One untraced run
# ----------------------------------------------------------------------


def measure(workload: str, seed: int, scale: str, tmp: Path, traced: bool = False) -> dict:
    """Run *workload* once in a fresh child; end-to-end numbers plus checks."""

    if workload in SWEEPS:
        return measure_sweep(workload, seed, scale, tmp)
    out, log = tmp / "child.json", tmp / "child.log"
    out.unlink(missing_ok=True)
    seen = run_child(
        [sys.executable, str(HERE / "child.py"), "--workload", workload,
         "--seed", str(seed), "--scale", scale, "--traced", str(int(traced)),
         "--out", str(out)],
        log,
    )
    rep = {"wall_s": seen["t_exit"] - seen["t_spawn"], "peak_rss_mb": seen["peak_rss_mb"],
           "seen": seen}
    if seen["code"] != 0 or not out.exists():
        rep["checks"] = crashed(workload, log, seen["code"])
        return rep
    child = json.loads(out.read_text(encoding="utf-8"))
    for check in child["checks"]:  # a check named after a system pins its simulated result
        result = child["systems"].get(check["name"])
        check["digest"] = digest(result) if result is not None else ""
    totals = child["totals"]
    setup = (child["t_entry"] - seen["t_spawn"]) + sum(
        seconds for name, seconds in totals.items()
        if name in SETUP_SPANS or name.endswith((".construct", ".submit"))
    )
    rep.update(
        setup_s=setup,
        work_per_s=child["events"] / child["run_s"],
        inner_s=child["t_done"] - seen["t_spawn"],
        checks=child["checks"],
        sim=child["systems"],
        child=child,
    )
    return rep


def sweep_command(workload: str, seed: int, scale: str, results_dir: Path,
                  jobs: int | None = None) -> list[str]:
    params = SCALES[scale][workload]
    return [sys.executable, "-m", "repro", "sweep",
            *sweep_argv(workload, params, seed, jobs), "--results-dir", str(results_dir)]


def read_records(results_dir: Path, cells: int) -> tuple[list[dict], dict]:
    """One check per expected cell record, and the {spec_hash: digest} map."""

    checks, digests = [], {}
    for path in sorted(results_dir.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        ok = record.get("status") == "ok"
        key = record["spec_hash"][:16]
        digests[key] = digest(record.get("result"))[:16]
        checks.append({
            "name": key, "ok": ok, "digest": digests[key],
            "detail": "" if ok else f"cell {record['spec']['params']}: {record.get('error')}",
        })
    for missing in range(cells - len(checks)):
        checks.append(structural(f"missing-{missing}", False,
                                 f"only {len(digests)} of {cells} records were written"))
    return checks, digests


def measure_sweep(workload: str, seed: int, scale: str, tmp: Path,
                  extra: tuple[str, ...] = (), jobs: int | None = None) -> dict:
    results_dir, log = tmp / "records", tmp / "sweep.log"
    shutil.rmtree(results_dir, ignore_errors=True)
    results_dir.mkdir(parents=True)
    cells = sweep_cells(workload, SCALES[scale][workload], seed)
    seen = run_child(
        [*sweep_command(workload, seed, scale, results_dir, jobs), *extra],
        log, watch_dir=results_dir,
    )
    wall = seen["t_exit"] - seen["t_spawn"]
    rep = {"wall_s": wall, "peak_rss_mb": seen["peak_rss_mb"], "seen": seen,
           "work_per_s": cells / wall, "inner_s": wall, "cells": cells}
    if seen["code"] != 0 or seen["t_first"] is None:
        rep["checks"] = crashed(workload, log, seen["code"])
        return rep
    rep["setup_s"] = seen["t_first"] - seen["t_spawn"]
    rep["checks"], rep["sim"] = read_records(results_dir, cells)
    return rep


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------


def load_expected() -> dict:
    if not EXPECTED.exists():
        return {}
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def pinned_for(workload: str, seed: int, scale: str) -> dict | None:
    """The pinned digests that apply to this run, or None (structural only)."""

    expected = load_expected()
    if seed != expected.get("seed", 0):
        return None
    stamped = {key: expected.get(key) for key in ("python", "numpy")}
    if stamped != versions():
        print(f"note: expected.json is stamped {stamped}, this is {versions()}; "
              "digests are not compared", file=sys.stderr)
        return None
    return expected.get("scales", {}).get(scale, {}).get(workload)


def verify(workload: str, reps: list[dict], pinned: dict | None,
           paper_ordering: bool) -> tuple[int, list[str]]:
    """(checks attempted, failure messages) over *reps* of one workload.

    A check is one protocol-system run or one cell record: it must pass its
    structural test, match the pinned digest where one applies, and equal
    the same check of the first repeat (same seed, same inputs).  With
    *paper_ordering*, a Fig. 3a run must also rank the protocols as the paper
    does (the bench scale does at its pinned seed; N = 40 does not).
    """

    attempted, failures = 0, []
    first = {check["name"]: check["digest"] for check in reps[0]["checks"]}
    for index, rep in enumerate(reps):
        for check in rep["checks"]:
            attempted += 1
            where = f"{workload} run {index} {check['name']}"
            if not check["ok"]:
                failures.append(f"{where}: {check['detail']}")
            elif not check["digest"]:
                continue  # a structural check with no simulated result behind it
            elif pinned is not None and pinned.get(check["name"]) != check["digest"]:
                failures.append(f"{where}: digest {check['digest'][:16]} differs from the "
                                f"pinned {str(pinned.get(check['name']))[:16]}")
            elif first.get(check["name"], check["digest"]) != check["digest"]:
                failures.append(f"{where}: digest differs from run 0 of the same seed")
        figure = rep.get("sim", {}).get("fig3a")
        if figure and paper_ordering:
            attempted += 1
            if figure["ordering"] != FIG3A_ORDER:
                failures.append(f"{workload} run {index}: Fig. 3a ordering is "
                                f"{figure['ordering']}")
    return attempted, failures


def print_fig3a(rep: dict) -> None:
    figure = rep.get("sim", {}).get("fig3a")
    if figure:
        print(f"  sim: L0/HERMES mean latency {figure['lzero_hermes_ratio']:.3f} "
              f"(paper {PAPER_LZERO_HERMES_RATIO:.2f}), ordering "
              f"{' < '.join(figure['ordering'])}")


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------


def trace(workload: str, seed: int, scale: str, tmp: Path, reference: list[dict]) -> dict:
    """One traced run: per-layer metrics, spans, and its own checks.

    *reference* holds untraced runs of the same workload and seed; tracing
    overhead is this run's time to finish the same work over their median.
    """

    tracer = Tracer(run_id=f"{workload}/seed{seed}", keep_spans=True)
    if workload in SWEEPS:
        rep = trace_sweep(workload, seed, scale, tmp, tracer, reference)
    else:
        rep = measure(workload, seed, scale, tmp, traced=True)
        seen = rep["seen"]
        root = tracer.add("process", seen["t_spawn"], seen["t_exit"])
        if "child" in rep:
            child = rep["child"]
            tracer.add("interpreter.start", seen["t_spawn"], child["t_entry"], root)
            tracer.adopt(child["spans"], root)
            tracer.add("process.exit", child["t_exit"], seen["t_exit"], root)
            rep["layers"] = child["layers"]
    layers = rep.setdefault("layers", {})
    spans = tracer.spans
    finished = [r["inner_s"] for r in reference if "inner_s" in r]
    if finished and "inner_s" in rep:
        layers["trace.overhead_pct"] = 100.0 * (rep["inner_s"] / statistics.median(finished) - 1.0)
    own = self_times(spans)
    total = spans[0]["end"] - spans[0]["start"]
    unattributed = own.get("process", 0.0) + own.get("workload", 0.0) + own.get("trace", 0.0)
    layers["trace.coverage_pct"] = 100.0 * (1.0 - unattributed / total)
    rep["checks"] += [structural("span-nesting", False, problem)
                      for problem in check_nesting(spans)]
    rep["spans"] = spans
    rep["self_times"] = own
    return rep


def timed_subprocess(tracer: Tracer, name: str, parent: int, argv: list[str],
                     log: Path) -> dict:
    seen = run_child(argv, log)
    tracer.add(name, seen["t_spawn"], seen["t_exit"], parent)
    return seen


def trace_sweep(workload: str, seed: int, scale: str, tmp: Path, tracer: Tracer,
                reference: list[dict]) -> dict:
    """The sweep's traced run, through the CLI's own public telemetry.

    A ``--timeline`` re-run folded by ``analyze-sweep --json`` gives the
    executor's phases; re-invoking the finished sweep times the resume path;
    a probe child times the store and ``spec_hash`` on the produced records;
    the pooled workload adds a ``--jobs 1`` pass for the speed-up.
    """

    t0 = time.perf_counter()
    root = tracer.add("trace", t0, t0)
    layers: dict[str, float] = {}
    python = sys.executable

    seen = timed_subprocess(tracer, "runner.cli.startup", root,
                            [python, "-m", "repro", "sweep", "--list-figures"],
                            tmp / "startup.log")
    layers["runner.cli.startup_s"] = seen["t_exit"] - seen["t_spawn"]

    timeline = tmp / "timeline.jsonl"
    rep = measure_sweep(workload, seed, scale, tmp, extra=("--timeline", str(timeline)))
    tracer.add("runner.cli.sweep", rep["seen"]["t_spawn"], rep["seen"]["t_exit"], root)
    pooled = statistics.median(r["wall_s"] for r in reference)
    layers["runner.telemetry.overhead_pct"] = 100.0 * (rep["wall_s"] / pooled - 1.0)

    if timeline.exists():
        analysis_path = tmp / "analysis.json"
        timed_subprocess(tracer, "obs.analysis.analyze_sweep", root,
                         [python, "-m", "repro", "analyze-sweep", str(timeline), "--json",
                          "-o", str(analysis_path)], tmp / "analyze.log")
        layers.update(fold_timeline(timeline, analysis_path))

    records_dir = tmp / "records"
    files = list(records_dir.glob("*.json"))
    layers["runner.store.records"] = len(files)
    layers["runner.store.bytes"] = sum(path.stat().st_size for path in files)
    seen = timed_subprocess(tracer, "runner.cli.resume", root,
                            sweep_command(workload, seed, scale, records_dir),
                            tmp / "resume.log")
    layers["runner.store.resume_s"] = seen["t_exit"] - seen["t_spawn"]
    resumed = f"0 executed, {len(files)} resumed, 0 failed" in log_tail(tmp / "resume.log")
    rep["checks"].append(structural(
        "resume", resumed,
        "re-invoking the finished sweep did not resume every cell: "
        + log_tail(tmp / "resume.log"),
    ))

    probe_out = tmp / "probe.json"
    seen = timed_subprocess(tracer, "runner.store.probe", root,
                            [python, str(HERE / "child.py"), "--store-probe", str(records_dir),
                             "--out", str(probe_out)], tmp / "probe.log")
    if seen["code"] == 0:
        layers.update(json.loads(probe_out.read_text(encoding="utf-8")))

    if SCALES[scale][workload]["jobs"] > 1:
        pooled_sim = rep.get("sim")
        serial = measure_sweep(workload, seed, scale, tmp, jobs=1)
        tracer.add("runner.cli.serial", serial["seen"]["t_spawn"], serial["seen"]["t_exit"], root)
        layers["runner.executor.serial_wall_s"] = serial["wall_s"]
        layers["runner.executor.speedup"] = serial["wall_s"] / pooled
        if layers.get("runner.executor.amdahl_bound"):
            layers["runner.executor.bound_attainment"] = (
                layers["runner.executor.speedup"] / layers["runner.executor.amdahl_bound"]
            )
        rep["checks"].append(structural(
            "pooled-equals-serial", serial.get("sim") == pooled_sim,
            "the --jobs 1 pass wrote different records",
        ))

    tracer.spans[root]["end"] = time.perf_counter()
    rep["layers"] = layers
    return rep


def fold_timeline(timeline: Path, analysis_path: Path) -> dict[str, float]:
    layers: dict[str, float] = {}
    if analysis_path.exists():
        analysis = json.loads(analysis_path.read_text(encoding="utf-8"))
        phases = analysis["phase_totals_s"]
        for phase in ("spawn", "env_build", "enqueue_wait", "execute", "deserialize",
                      "serialize"):
            layers[f"runner.executor.{phase}_s"] = phases.get(phase, 0.0)
        layers["runner.store.write_s"] = phases.get("store_write", 0.0)
        layers["runner.executor.other_s"] = analysis["other_s"]
        layers["runner.executor.amdahl_bound"] = analysis["achievable_speedup"]
        workers = analysis["workers"]
        if workers:
            layers["runner.executor.worker_util"] = statistics.fmean(
                worker["utilization"] for worker in workers
            )
    lines = [json.loads(line) for line in timeline.read_text(encoding="utf-8").splitlines()]
    runs = [line for line in lines if line.get("kind") == "run"]
    cell_s = sorted(run["phases"]["execute"] for run in runs if run.get("status") != "crash")
    if cell_s:
        layers["runner.executor.cell_s_p50"] = cell_s[len(cell_s) // 2]
        layers["runner.executor.cell_s_p95"] = cell_s[min(len(cell_s) - 1, int(0.95 * len(cell_s)))]
    layers["runner.executor.retries"] = sum(1 for run in runs if run.get("attempt", 1) > 1)
    layers["runner.executor.crashes"] = sum(1 for run in runs if run.get("status") == "crash")
    return layers


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def end_to_end(spec: dict, reps: list[dict]) -> dict[str, dict]:
    """Median, quartiles, count and values of each declared end-to-end metric
    over the runs that finished (a metric no run produced is left out)."""

    rows = {}
    for metric in spec["end_to_end"]:
        series = [rep[metric["name"]] for rep in reps if metric["name"] in rep]
        if series:
            q1, median, q3 = quartiles(series)
            rows[metric["name"]] = {"median": median, "q1": q1, "q3": q3, "n": len(series),
                                    "unit": metric["unit"], "values": series}
    return rows


def print_rows(rows: dict[str, dict]) -> None:
    for name, row in rows.items():
        print(f"  {name:<12} median {row['median']:>12.6g} {row['unit']:<5} "
              f"quartiles {row['q1']:.6g}..{row['q3']:.6g}  n={row['n']}")


def declared_layers(spec: dict, layers: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric of BENCHMARK.json; layers a workload does not
    execute read 0.  A measured name that is not declared is a bug here."""

    names = {metric["name"] for metric in spec["per_layer"]}
    undeclared = sorted(set(layers) - names)
    if undeclared:
        raise SystemExit(f"per-layer metrics missing from BENCHMARK.json: {undeclared}")
    return {
        metric["name"]: {"value": float(layers.get(metric["name"], 0.0)), "unit": metric["unit"]}
        for metric in spec["per_layer"]
    }


def print_layers(workload: str, traced: dict, metrics: dict[str, dict]) -> None:
    print(f"{workload}: per-layer self time (span minus children), traced run")
    for name, seconds in sorted(traced["self_times"].items(), key=lambda item: -item[1]):
        print(f"  {name:<44} {seconds:>10.4f} s")
    print(f"{workload}: per-layer metrics")
    for name, metric in metrics.items():
        if metric["value"]:
            print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")


def report_trace(spec: dict, workload: str, traced: dict, failures: list[str]) -> dict:
    """Print and write out one traced run; returns its declared per-layer metrics."""

    traced["layers"]["sim.digest_ok"] = 0.0 if failures else 1.0
    metrics = declared_layers(spec, traced["layers"])
    print_layers(workload, traced, metrics)
    path = RESULTS / f"trace-{workload}.jsonl"
    write_spans(path, traced["spans"])
    print("spans:", path.relative_to(ROOT))
    return metrics


def check_and_print(workload: str, scale: str, seed: int, reps: list[dict]) -> tuple[int, list[str]]:
    """Verify *reps* against what applies at this seed and scale; print failures."""

    pinned = pinned_for(workload, seed, scale)
    attempted, failures = verify(workload, reps, pinned,
                                 paper_ordering=pinned is not None and scale == "bench")
    for failure in failures:
        print("FAILED", failure)
    print_fig3a(reps[0])
    return attempted, failures


# ----------------------------------------------------------------------
# Mode 1: the BENCHMARK.json contract
# ----------------------------------------------------------------------


def steady_value(metric: dict, row: dict) -> float:
    """What contract mode reports for *metric* from the repeats' *row*.

    The three time-derived metrics report the best of the repeats (fastest
    ``wall_s`` and ``setup_s``, highest ``work_per_s``); ``peak_rss_mb`` the
    median.  The same inputs cost the program the same work on every repeat;
    what differs is what the other tenants of this shared host add, in bursts
    and in phases of minutes that lift the median of seven runs by 14% and the
    fastest by 9% (README, "Steadiness").  A slower program moves the fastest
    run all the same.
    """

    if metric["name"] == "peak_rss_mb":
        return row["median"]
    return min(row["values"]) if metric["better"] == "lower" else max(row["values"])


def contract_main(args: argparse.Namespace, spec: dict, tmp: Path) -> int:
    workload, seed, scale = args.workload, args.seed, args.scale
    reps = []
    started = time.perf_counter()
    while True:
        reps.append(measure(workload, seed, scale, tmp))
        elapsed = time.perf_counter() - started
        # One reference run is all a traced run needs; otherwise repeat while
        # another run of the mean length still fits into --seconds.
        if args.trace or elapsed + elapsed / len(reps) > args.seconds:
            break
    traced = [trace(workload, seed, scale, tmp, reps)] if args.trace else []
    attempted, failures = check_and_print(workload, scale, seed, reps + traced)

    if traced:
        metrics = report_trace(spec, workload, traced[0], failures)
    else:
        rows = end_to_end(spec, reps)
        print_rows(rows)
        failures += [f"no run produced {metric['name']}" for metric in spec["end_to_end"]
                     if metric["name"] not in rows]
        metrics = {metric["name"]: {"value": steady_value(metric, rows[metric["name"]]),
                                    "unit": metric["unit"]}
                   for metric in spec["end_to_end"] if metric["name"] in rows}
    attempted = max(attempted, 1)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": min(len(failures), attempted), "metrics": metrics}))
    return 0


# ----------------------------------------------------------------------
# Mode 2: the whole suite
# ----------------------------------------------------------------------


def suite_main(args: argparse.Namespace, spec: dict, tmp: Path) -> int:
    names = list(WORKLOADS)
    reps: dict[str, list[dict]] = {name: [] for name in names}
    for round_index in range(args.runs):
        for name in names:  # round-robin, so drift in machine speed hits every workload
            rep = measure(name, args.seed, args.scale, tmp)
            reps[name].append(rep)
            print(f"run {round_index + 1}/{args.runs} {name}: wall {rep['wall_s']:.2f} s",
                  flush=True)
    traces = {}
    if args.traced:
        for name in names:
            traces[name] = trace(name, args.seed, args.scale, tmp, reps[name])

    result_set = {"schema": "repro.e2e/1", "seed": args.seed, "scale": args.scale,
                  "runs": args.runs, **versions(), "workloads": {}}
    failed_anywhere = False
    for name in names:
        print(f"\n{name}")
        every = reps[name] + ([traces[name]] if name in traces else [])
        attempted, failures = check_and_print(name, args.scale, args.seed, every)
        failed_anywhere |= bool(failures)
        entry = {"metrics": end_to_end(spec, reps[name]), "attempted": attempted,
                 "failed": len(failures), "failed_share": len(failures) / max(attempted, 1),
                 "sim": {check["name"]: check["digest"] for check in reps[name][0]["checks"]}}
        print(f"  failed_share {entry['failed_share']:.3f} of {attempted} checks")
        print_rows(entry["metrics"])
        if name in traces:
            entry["per_layer"] = report_trace(spec, name, traces[name], failures)
        result_set["workloads"][name] = entry

    out = Path(args.out) if args.out else RESULTS / "resultset.json"
    out.write_text(json.dumps(result_set, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\nresult set: {out}")
    write_bench_records(result_set)
    return 1 if failed_anywhere else 0


def write_bench_records(result_set: dict) -> None:
    """One ``repro.bench/1`` record per workload, for ``repro bench history``."""

    sys.path.insert(0, str(SRC))
    from repro.obs.analysis import bench_record, write_bench_record

    for name, entry in result_set["workloads"].items():
        metrics = {metric: row["median"] for metric, row in entry["metrics"].items()}
        metrics["failed_share"] = entry["failed_share"]
        for metric, row in entry.get("per_layer", {}).items():
            metrics[metric] = row["value"]
        record = bench_record(
            f"e2e.{name}", metrics,
            meta={"runs": result_set["runs"], "scale": result_set["scale"],
                  "quartiles": {metric: [row["q1"], row["q3"]]
                                for metric, row in entry["metrics"].items()}},
            seed=result_set["seed"],
        )
        write_bench_record(RESULTS / f"bench-{name}.json", record)


# ----------------------------------------------------------------------
# Mode 3: compare two result sets
# ----------------------------------------------------------------------


def compare_main(path_a: str, path_b: str, spec: dict) -> int:
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    bad = False
    print(f"{'workload':<20} {'metric':<12} {'A median [q1..q3]':<34} "
          f"{'B median [q1..q3]':<34} {'B vs A':>8} {'bound':>6}  verdict")
    for name in WORKLOADS:
        for metric in spec["end_to_end"]:
            row_a = a["workloads"].get(name, {}).get("metrics", {}).get(metric["name"])
            row_b = b["workloads"].get(name, {}).get("metrics", {}).get(metric["name"])
            if not row_a or not row_b:
                print(f"{name:<20} {metric['name']:<12} missing in one set")
                bad = True
                continue
            # Positive gap = B is worse than A, in the metric's own direction.
            gap = (row_b["median"] - row_a["median"]) / row_a["median"]
            if metric["better"] == "higher":
                gap = -gap
            spread = max((row["q3"] - row["q1"]) / row["median"] for row in (row_a, row_b))
            if spread > metric["bound"]:
                verdict = "unresolved"
            elif gap > metric["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            bad |= verdict != "ok"
            cells = [f"{row['median']:.5g} [{row['q1']:.5g}..{row['q3']:.5g}] n={row['n']}"
                     for row in (row_a, row_b)]
            print(f"{name:<20} {metric['name']:<12} {cells[0]:<34} {cells[1]:<34} "
                  f"{gap:>+8.1%} {metric['bound']:>6.0%}  {verdict}")
        sim_a, sim_b = (s["workloads"].get(name, {}).get("sim") for s in (a, b))
        same_inputs = (a.get("seed"), a.get("scale")) == (b.get("seed"), b.get("scale"))
        if same_inputs and sim_a != sim_b:
            print(f"{name:<20} sim.*        simulated results differ between the sets")
            bad = True
    return 1 if bad else 0


# ----------------------------------------------------------------------
# Mode 4: pin the seed-0 digests
# ----------------------------------------------------------------------


def update_expected_main(spec: dict, tmp: Path) -> int:
    scales: dict[str, dict] = {}
    for scale in SCALES:
        for name in WORKLOADS:
            rep = measure(name, 0, scale, tmp)
            broken = [check for check in rep["checks"] if not check["ok"]]
            if broken:
                print(f"FAILED {name} at {scale}: {broken[0]['detail']}")
                return 1
            scales.setdefault(scale, {})[name] = {
                check["name"]: check["digest"] for check in rep["checks"]
            }
            print(f"pinned {name} at {scale}: {len(rep['checks'])} digests")
    EXPECTED.write_text(
        json.dumps({"seed": 0, **versions(), "scales": scales}, indent=1, sort_keys=True)
        + "\n", encoding="utf-8",
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="bench")
    parser.add_argument("--runs", type=int, default=5, help="suite mode: runs per workload")
    parser.add_argument("--traced", action="store_true",
                        help="suite mode: one extra traced run per workload")
    parser.add_argument("--out", help="suite mode: where to write the result set")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--update-expected", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    if args.compare:
        return compare_main(*args.compare, spec)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} is missing; the benchmark measures that package",
              file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS))
    try:
        if args.update_expected:
            return update_expected_main(spec, tmp)
        if args.workload:
            return contract_main(args, spec, tmp)
        return suite_main(args, spec, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())

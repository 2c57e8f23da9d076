"""Unit tests for the sweep executor, task registry and aggregation.

Everything here runs serially (``jobs=1``); the multi-process paths — crash
retry and serial-vs-parallel byte identity — live in
``tests/integration/test_sweep_parallel.py`` where spawn overhead is paid
once per suite, not per unit test.
"""

import pytest

from repro.errors import ConfigurationError, SweepExecutionError
from repro.runner import (
    MemoryStore,
    ResultStore,
    RunSpec,
    SweepSpec,
    get_task,
    group_records,
    latency_summaries,
    mean_by_group,
    merged_latencies,
    register_task,
    run_sweep,
    task_names,
)


class TestRegistry:
    def test_builtin_tasks_present(self):
        names = task_names()
        for expected in (
            "dissemination",
            "fig3a.protocol",
            "fig3b.protocol",
            "fig5a.trial",
            "fig5b.trial",
            "selftest.echo",
        ):
            assert expected in names

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigurationError):
            get_task("no-such-task")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_task("selftest.echo")(lambda params: params)


class TestRunSweepSerial:
    def test_grid_executes_every_cell_in_order(self):
        report = run_sweep(SweepSpec(task="selftest.echo", grid={"x": [1, 2, 3]}))
        assert report.executed == 3
        assert report.skipped == report.failed == 0
        assert [r.result["x"] for r in report.records] == [1, 2, 3]
        assert report.results() == [{"x": 1}, {"x": 2}, {"x": 3}]

    def test_duplicate_specs_execute_once(self):
        spec = RunSpec(task="selftest.echo", params={"x": 1})
        report = run_sweep([spec, spec, RunSpec(task="selftest.echo", params={"x": 1})])
        assert report.total == 1
        assert report.executed == 1

    def test_resume_skips_completed_cells(self, tmp_path):
        store = ResultStore(tmp_path)
        sweep = SweepSpec(task="selftest.echo", grid={"x": [1, 2]})
        first = run_sweep(sweep, store=store)
        assert first.executed == 2
        again = run_sweep(sweep, store=store)
        assert again.executed == 0
        assert again.skipped == 2
        assert [r.result for r in again.records] == [r.result for r in first.records]

    def test_no_resume_reexecutes(self, tmp_path):
        store = ResultStore(tmp_path)
        sweep = SweepSpec(task="selftest.echo", grid={"x": [1]})
        run_sweep(sweep, store=store)
        again = run_sweep(sweep, store=store, resume=False)
        assert again.executed == 1 and again.skipped == 0

    def test_failed_record_is_not_resumed(self, tmp_path):
        calls = []

        @register_task("_test.flaky_once")
        def _flaky(params):
            calls.append(1)
            if len(calls) == 1:
                raise ValueError("first call explodes")
            return {"ok": True}

        store = ResultStore(tmp_path)
        spec = RunSpec(task="_test.flaky_once")
        first = run_sweep([spec], store=store)
        assert first.failed == 1
        assert "ValueError: first call explodes" in first.records[0]["error"]
        second = run_sweep([spec], store=store)
        assert second.executed == 1 and second.failed == 0
        assert second.records[0].ok

    def test_task_exception_recorded_not_raised(self):
        @register_task("_test.always_fails")
        def _fails(params):
            raise RuntimeError("deterministic failure")

        report = run_sweep([RunSpec(task="_test.always_fails", params={})])
        record = report.records[0]
        assert report.failed == 1
        assert not record.ok
        assert "RuntimeError: deterministic failure" in record["error"]

    def test_timeout_records_error(self):
        report = run_sweep(
            [RunSpec(task="selftest.sleep", params={"seconds": 5.0})],
            timeout_s=0.2,
        )
        record = report.records[0]
        assert not record.ok
        assert "timeout" in record["error"]

    def test_fast_run_beats_timeout(self):
        report = run_sweep(
            [RunSpec(task="selftest.sleep", params={"seconds": 0.0})],
            timeout_s=5.0,
        )
        assert report.records[0].ok

    def test_progress_callback_sees_every_record(self, tmp_path):
        seen = []
        sweep = SweepSpec(task="selftest.echo", grid={"x": [1, 2]})
        store = ResultStore(tmp_path)
        run_sweep(sweep, store=store, progress=lambda r, done, total: seen.append(
            (r["spec"]["params"]["x"], done, total)
        ))
        assert [x for x, _, _ in seen] == [1, 2]
        assert seen[-1][1:] == (2, 2)
        seen.clear()
        run_sweep(sweep, store=store, progress=lambda r, done, total: seen.append(
            (r["spec"]["params"]["x"], done, total)
        ))  # resumed records still reported
        assert len(seen) == 2

    def test_memory_store_default(self):
        report = run_sweep([RunSpec(task="selftest.echo", params={"x": 9})])
        assert report.records[0].result == {"x": 9}

    def test_bad_arguments_rejected(self):
        spec = RunSpec(task="selftest.echo")
        with pytest.raises(ConfigurationError):
            run_sweep([spec], jobs=0)
        with pytest.raises(ConfigurationError):
            run_sweep([spec], retries=-1)
        with pytest.raises(ConfigurationError):
            run_sweep([])

    def test_summary_line(self, tmp_path):
        report = run_sweep(SweepSpec(task="selftest.echo", grid={"x": [1]}))
        line = report.summary_line()
        assert "1 runs" in line and "1 executed" in line


def _fake_record(protocol, latencies, ok=True, extra=None):
    spec = RunSpec(
        task="dissemination", params={"protocol": protocol, **(extra or {})}
    )
    from repro.runner import RunRecord

    if ok:
        return RunRecord.build(spec, result={"latencies": latencies})
    return RunRecord.build(spec, status="error", error="boom")


class TestAggregation:
    def test_group_records_by_param(self):
        records = [
            _fake_record("hermes", [1.0], extra={"seed": 0}),
            _fake_record("lzero", [2.0], extra={"seed": 0}),
            _fake_record("hermes", [3.0], extra={"seed": 1}),
        ]
        grouped = group_records(records, "protocol")
        assert set(grouped) == {("hermes",), ("lzero",)}
        assert len(grouped[("hermes",)]) == 2

    def test_group_records_excludes_failures(self):
        records = [
            _fake_record("hermes", [1.0]),
            _fake_record("hermes", [], ok=False),
        ]
        grouped = group_records(records, "protocol")
        assert len(grouped[("hermes",)]) == 1

    def test_group_records_needs_keys(self):
        with pytest.raises(ValueError):
            group_records([], )

    def test_merged_latencies(self):
        records = [
            _fake_record("hermes", [1.0, 2.0], extra={"seed": 0}),
            _fake_record("hermes", [3.0], extra={"seed": 1}),
        ]
        assert merged_latencies(records) == [1.0, 2.0, 3.0]

    def test_latency_summaries_match_population(self):
        records = [
            _fake_record("hermes", [10.0, 20.0], extra={"seed": 0}),
            _fake_record("hermes", [30.0], extra={"seed": 1}),
            _fake_record("lzero", [100.0], extra={"seed": 0}),
        ]
        summaries = latency_summaries(records)
        assert summaries["hermes"].count == 3
        assert summaries["hermes"].mean == pytest.approx(20.0)
        assert summaries["lzero"].mean == pytest.approx(100.0)

    def test_mean_by_group(self):
        from repro.runner import RunRecord

        def record(protocol, seed, coverage):
            spec = RunSpec(
                task="dissemination", params={"protocol": protocol, "seed": seed}
            )
            return RunRecord.build(spec, result={"coverage": coverage})

        records = [
            record("hermes", 0, 1.0),
            record("hermes", 1, 0.5),
            record("lzero", 0, 0.25),
        ]
        means = mean_by_group(records, "coverage", "protocol")
        assert means[("hermes",)] == pytest.approx(0.75)
        assert means[("lzero",)] == pytest.approx(0.25)


def _figure(task, cells):
    from repro.experiments.figure import Figure

    return Figure(
        name="test", task=task, config=dict, cells=lambda _: cells,
        run_cell=get_task(task), fold=lambda _, results: results, format=str,
    )


class TestSweepHelper:
    def test_figure_run_raises_on_failure(self):
        @register_task("_test.sweep_helper_fails")
        def _fails(params):
            raise RuntimeError("cell exploded")

        with pytest.raises(SweepExecutionError, match="cell exploded"):
            _figure("_test.sweep_helper_fails", [{}]).run({})

    def test_figure_run_folds_the_grid(self):
        result, report = _figure("selftest.echo", [{"x": 1}, {"x": 2}]).run({})
        assert report.executed == 2
        assert result == [{"x": 1}, {"x": 2}]


class TestCliHelpers:
    def test_parse_axis_types_values(self):
        from repro.runner.cli import parse_axis

        key, values = parse_axis("seed=0,1,2")
        assert key == "seed" and values == [0, 1, 2]
        key, values = parse_axis("protocol=hermes,lzero")
        assert values == ["hermes", "lzero"]
        key, values = parse_axis("fraction=0.1,0.33")
        assert values == [0.1, 0.33]
        key, values = parse_axis("flag=true")
        assert values == [True]

    def test_parse_axis_rejects_malformed(self):
        from repro.runner.cli import parse_axis

        for bad in ("seed", "=1", "seed="):
            with pytest.raises(ConfigurationError):
                parse_axis(bad)

    def test_list_tasks_exit_code(self, capsys):
        from repro.runner.cli import main

        assert main(["--list-tasks"]) == 0
        out = capsys.readouterr().out
        assert "dissemination" in out and "selftest.echo" in out

    def test_cli_task_mode_runs(self, tmp_path, capsys):
        from repro.runner.cli import main

        code = main(
            [
                "--task",
                "selftest.echo",
                "--set",
                "x=1,2",
                "--results-dir",
                str(tmp_path / "store"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 runs: 2 executed" in out
        code = main(
            [
                "--task",
                "selftest.echo",
                "--set",
                "x=1,2",
                "--results-dir",
                str(tmp_path / "store"),
            ]
        )
        assert code == 0
        assert "0 executed, 2 resumed" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "mode", [["--task", "selftest.echo", "--set", "x=1"], ["--figure", "fig3a"]]
    )
    def test_retries_reach_run_sweep(self, mode, monkeypatch):
        import repro.runner
        from repro.runner.cli import main

        class Stop(Exception):
            pass

        seen = {}

        def fake_run_sweep(specs, **options):
            seen.update(options)
            raise Stop  # before any cell runs

        monkeypatch.setattr(repro.runner, "run_sweep", fake_run_sweep)
        with pytest.raises(Stop):
            main([*mode, "--retries", "5"])
        assert seen["retries"] == 5

"""Run-report rendering: sections appear, HTML is self-contained."""

import json

from repro.obs.analysis import (
    Baseline,
    BaselineMetric,
    build_trees,
    compare,
    critical_paths,
    read_trace,
    render_html,
    render_report,
)


def _trace():
    records = [
        {
            "type": "header",
            "v": 1,
            "schema": "repro.trace/1",
            "events": 0,
            "spans": 0,
            "events_dropped": 0,
            "spans_dropped": 0,
        },
        {
            "type": "event",
            "seq": 0,
            "time_ms": 0.0,
            "name": "tx.dispatch",
            "span_id": None,
            "attrs": {"tx_id": 1, "origin": 0, "overlay_id": 2},
        },
        {
            "type": "event",
            "seq": 1,
            "time_ms": 7.0,
            "name": "tx.deliver",
            "span_id": None,
            "attrs": {"tx_id": 1, "node": 1, "sender": 0},
        },
    ]
    return read_trace([json.dumps(r) for r in records])


def test_report_contains_all_requested_sections():
    trace = _trace()
    trees = build_trees(trace)
    paths = critical_paths(trees, trace)
    chaos = {
        "scenario": "partition_snap",
        "protocol": "hermes",
        "seed": 3,
        "num_nodes": 20,
        "f": 1,
        "passed": False,
        "fault_log": [{"at_ms": 100.0, "kind": "partition", "summary": "split"}],
        "invariants": {
            "delivery": {"violations": [{"at_ms": 240.0, "detail": "tx 4 missing"}]}
        },
    }
    baseline = Baseline(
        name="demo", metrics={"x": BaselineMetric(value=1.0, tolerance=0.0)}
    )
    bench = [
        compare({"schema": "repro.bench/1", "name": "demo", "metrics": {"x": 2.0}}, baseline)
    ]
    adversary = {
        "protocol": "mercury",
        "num_nodes": 40,
        "fraction": 0.2,
        "trials": [
            {
                "strategy": "sandwich",
                "attacker_won": True,
                "victim_censored": False,
                "gross": 100.0,
                "net": 98.0,
                "gamma": 0.5,
                "inversion_rate": 0.1,
                "violations": 3,
            },
            {
                "strategy": "sandwich",
                "attacker_won": False,
                "victim_censored": True,
                "gross": 0.0,
                "net": -2.0,
                "gamma": 0.7,
                "inversion_rate": 0.3,
                "violations": 0,
            },
        ],
    }
    markdown = render_report(
        title="Tiny run",
        manifest={"git_sha": "abc123", "python": "3.12"},
        trace=trace,
        trees=trees,
        paths=paths,
        chaos=chaos,
        adversary=adversary,
        bench=bench,
    )
    assert "# Tiny run" in markdown
    assert "## Manifest" in markdown and "`abc123`" in markdown
    assert "## Dissemination trees" in markdown
    assert "## Overlay usage" in markdown
    assert "## Critical-path latency attribution" in markdown
    assert "## Fault & violation timeline" in markdown
    assert "partition: split" in markdown
    assert "delivery: tx 4 missing" in markdown
    assert "**FAILED**" in markdown
    assert "## Adversary zoo" in markdown
    assert "`mercury`, N=40, 20% malicious" in markdown
    # 2 sandwich trials: 50% success, 50% censored, means over both.
    assert "| sandwich | 2 | 50% | 50% | 50.0 | +48.0 | 0.60 | 0.200 | 3 |" in markdown
    assert "## Benchmark comparison" in markdown
    assert "**REGRESSED**" in markdown


def test_profile_section_from_live_snapshot():
    from repro.obs.profiler import SimulatorProfiler

    profiler = SimulatorProfiler(queue_sample_interval=1, clock=lambda: 0.0)
    profiler.record(lambda: None, 0.25)
    profiler.after_event(1.0, depth=12, events_processed=1)
    text = render_report(profile=profiler.snapshot())
    assert "## Simulator profile" in text
    assert "max queue depth 12" in text
    assert "<lambda>" in text  # hottest-callbacks table row


def test_profile_section_from_manifest_dict():
    # The manifest's JSON shape (profile.to_json()) renders identically.
    profile = {
        "events": 100,
        "wall_s": 2.0,
        "callbacks": {
            "Network.send": {"calls": 60, "total_s": 1.5, "max_s": 0.1},
            "Node.deliver": {"calls": 40, "total_s": 0.5, "max_s": 0.05},
        },
        "queue_samples": [{"time_ms": 1.0, "depth": 7, "events_processed": 50}],
    }
    text = render_report(profile=profile)
    assert "max queue depth 7" in text
    assert "`Network.send`" in text
    # Hottest first: Network.send (1.5s) before Node.deliver (0.5s).
    assert text.index("Network.send") < text.index("Node.deliver")


def test_adversary_section_without_trials():
    markdown = render_report(title="t", adversary={"protocol": "hermes", "trials": []})
    assert "## Adversary zoo" in markdown
    assert "*(no trials recorded)*" in markdown


def test_html_wrapper_escapes_and_embeds_the_markdown():
    html_text = render_html("# Hello <world>", title="A & B")
    assert html_text.startswith("<!doctype html>")
    assert "&lt;world&gt;" in html_text
    assert "A &amp; B" in html_text


def test_empty_report_is_still_valid_markdown():
    markdown = render_report(title="Nothing")
    assert markdown == "# Nothing\n"


def test_report_reads_the_store_record_of_a_chaos_run_cell(tmp_path, capsys):
    from repro.obs.analysis.cli import report_main
    from repro.runner.cli import main as sweep

    store = tmp_path / "store"
    argv = ["--figure", "chaos", "--quick", "--set", "protocols=hermes"]
    assert sweep([*argv, "--results-dir", str(store)]) == 0
    [record] = store.glob("*.json")
    report = tmp_path / "report.json"
    report.write_text(json.dumps(json.loads(record.read_text())["result"]))
    capsys.readouterr()
    assert report_main(["--chaos", str(record)]) == 0
    from_record = capsys.readouterr().out
    assert report_main(["--chaos", str(report)]) == 0
    assert capsys.readouterr().out == from_record
    assert "## Fault & violation timeline" in from_record
    assert "Scenario `escalation` against `hermes`" in from_record

"""End-to-end chaos runs at small scale, plus the report contract.

These use a reduced deployment (24 nodes) and short horizons so the whole
module stays fast; the full-size campaigns live behind ``python -m repro
chaos`` and the property tests.
"""

import json

import pytest

from repro.chaos import (
    BehaviorFlip,
    ChaosReport,
    ChaosScenario,
    ChaosWorkload,
    ChurnBurst,
    ForgeryInjection,
    LatencySpike,
    LossWindow,
    RegionalPartition,
    Restore,
    run_chaos,
)
from repro.chaos.scenario import CommitteePartition
from repro.errors import ConfigurationError
from repro.obs import Observability

NODES = 24


def tiny(name="tiny", events=(), horizon_ms=3_000.0, transactions=2):
    return ChaosScenario(
        name=name,
        description="unit-test campaign",
        horizon_ms=horizon_ms,
        workload=ChaosWorkload(
            transactions=transactions, start_ms=100.0, period_ms=200.0
        ),
        events=tuple(events),
        liveness_deadline_ms=horizon_ms - 500.0,
    )


CENSOR = tiny(
    name="tiny-censor",
    events=(BehaviorFlip(at_ms=50.0, behavior="drop-relay", fraction=0.15),),
)


class TestHonestRuns:
    def test_honest_run_passes_with_zero_violations(self):
        report = run_chaos(tiny(), protocol="hermes", num_nodes=NODES, seed=1)
        assert report.passed
        assert report.violation_summary["total"] == 0
        assert report.accountability["deviants"] == []
        assert report.accountability["false_accusations"] == []
        assert report.accountability["attribution_rate"] == 1.0
        # Every workload transaction reached every node by the deadline.
        assert len(report.transactions) == 2
        assert all(t["coverage"] == 1.0 for t in report.transactions)

    def test_honest_lzero_also_passes(self):
        report = run_chaos(tiny(), protocol="lzero", num_nodes=NODES, seed=1)
        assert report.passed
        assert report.accountability["false_accusations"] == []


class TestAttribution:
    def test_every_accusation_names_a_real_deviant(self):
        report = run_chaos(CENSOR, protocol="hermes", num_nodes=NODES, seed=3)
        acct = report.accountability
        assert acct["deviants"]  # the flip resolved to concrete nodes
        assert set(acct["attributed"]) <= set(acct["deviants"])
        assert acct["false_accusations"] == []
        assert acct["attribution_rate"] == 1.0
        assert report.fault_log, "resolved fault log must not be empty"
        flip = report.fault_log[0]
        assert flip["kind"] == "behavior-flip"
        assert sorted(flip["nodes"]) == acct["deviants"]

    def test_forgery_is_attributed_on_hermes(self):
        scenario = tiny(
            name="tiny-forge",
            events=(ForgeryInjection(at_ms=400.0, targets=2),),
        )
        report = run_chaos(scenario, protocol="hermes", num_nodes=NODES, seed=5)
        acct = report.accountability
        (injector,) = acct["deviants"]
        assert injector in acct["attributed"]
        assert acct["false_accusations"] == []
        assert report.violation_summary["by_kind"].get("bad-signature", 0) >= 1

    def test_forgery_skipped_on_protocols_without_envelopes(self):
        scenario = tiny(
            name="tiny-forge",
            events=(ForgeryInjection(at_ms=400.0, targets=2),),
        )
        report = run_chaos(scenario, protocol="lzero", num_nodes=NODES, seed=5)
        (entry,) = [e for e in report.fault_log if e["kind"] == "inject-forgery"]
        assert entry["applied"] is False
        assert report.accountability["deviants"] == []


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        first = run_chaos(CENSOR, protocol="hermes", num_nodes=NODES, seed=9)
        second = run_chaos(CENSOR, protocol="hermes", num_nodes=NODES, seed=9)
        assert first.dumps() == second.dumps()
        assert first.content_hash() == second.content_hash()

    def test_different_seed_different_bytes(self):
        first = run_chaos(CENSOR, protocol="hermes", num_nodes=NODES, seed=9)
        other = run_chaos(CENSOR, protocol="hermes", num_nodes=NODES, seed=10)
        assert first.dumps() != other.dumps()


class TestReportContract:
    def test_round_trips_through_json(self):
        report = run_chaos(CENSOR, protocol="hermes", num_nodes=NODES, seed=3)
        wire = json.loads(json.dumps(report.to_json()))
        assert ChaosReport.from_json(wire).dumps() == report.dumps()

    def test_passed_reflects_invariant_status(self):
        report = ChaosReport(
            scenario="x",
            protocol="hermes",
            seed=0,
            num_nodes=4,
            f=1,
            horizon_ms=1.0,
            final_time_ms=1.0,
            invariants={
                "a": {"status": "pass", "checks": 1, "violations": []},
                "b": {"status": "n/a", "checks": 0, "violations": []},
            },
        )
        assert report.passed
        failing = ChaosReport(
            scenario="x",
            protocol="hermes",
            seed=0,
            num_nodes=4,
            f=1,
            horizon_ms=1.0,
            final_time_ms=1.0,
            invariants={
                "a": {
                    "status": "fail",
                    "checks": 1,
                    "violations": [{"detail": "boom"}],
                }
            },
        )
        assert not failing.passed
        assert "FAIL" in failing.format()
        assert "boom" in failing.format()

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            run_chaos(tiny(), protocol="carrier-pigeon", num_nodes=NODES)


#: Every event kind, each window overlapping the next.
EVERY_KIND = tiny(
    name="tiny-every-kind",
    events=(
        BehaviorFlip(at_ms=300.0, behavior="drop-relay", fraction=0.1),
        CommitteePartition(at_ms=400.0, heal_ms=700.0),
        RegionalPartition(at_ms=500.0, heal_ms=900.0, regions=("frankfurt",)),
        LatencySpike(at_ms=600.0, end_ms=1_000.0, factor=2.0),
        LossWindow(at_ms=700.0, end_ms=1_100.0, probability=0.05),
        ChurnBurst(at_ms=800.0, fraction=0.08, down_ms=300.0),
        ForgeryInjection(at_ms=1_000.0, targets=3),
        Restore(at_ms=1_500.0),
    ),
)

#: fault_log kind -> (trace span name, the log field where the window ends).
WINDOW_SPANS = {
    "committee-partition": ("chaos.committee_partition", "heal_ms"),
    "partition": ("chaos.partition", "heal_ms"),
    "latency-spike": ("chaos.latency_spike", "end_ms"),
    "loss": ("chaos.loss_window", "end_ms"),
    "churn": ("chaos.churn", "recover_ms"),
}


def traced_from_fault_log(report):
    """The chaos spans and events a traced run of *report* must record:
    sorted (name, start, end) spans and (name, time, detail) events."""

    spans, events, deviant = [], [], set()
    for entry in report.fault_log:
        at, kind = entry["at_ms"], entry["kind"]
        if kind in WINDOW_SPANS:
            name, field = WINDOW_SPANS[kind]
            end = min(entry[field], report.horizon_ms)
            spans.append((name, at, end))
            events.append((f"{name}.open", at, end))
        if kind == "behavior-flip":
            deviant.update(entry["nodes"])
            events += [("chaos.flip", at, (n, entry["behavior"])) for n in entry["nodes"]]
        elif kind == "restore":
            events += [("chaos.flip", at, (n, "honest")) for n in entry["nodes"]]
        elif kind == "churn":
            events += [("chaos.flip", at, (n, "crash")) for n in entry["nodes"]]
            if entry["recover_ms"] < report.horizon_ms:
                events += [("chaos.flip", entry["recover_ms"], (n, "honest"))
                           for n in entry["nodes"]]
        elif kind == "inject-forgery":
            injector = entry["injector"]
            if injector not in deviant:  # a fresh forger turns front-runner first
                deviant.add(injector)
                events.append(("chaos.flip", at, (injector, "front-run")))
            events.append(("chaos.forgery", at, (injector, len(entry["targets"]))))
    return sorted(spans), sorted(events)


class TestTracing:
    """``run_chaos(obs=...)``: the fault timeline lands in the trace, and
    tracing changes no byte of the report."""

    def test_spans_and_events_match_the_fault_log_and_the_hash_is_unchanged(self):
        plain = run_chaos(EVERY_KIND, protocol="hermes", num_nodes=NODES, k=3, seed=4)
        obs = Observability.enabled()
        report = run_chaos(
            EVERY_KIND, protocol="hermes", num_nodes=NODES, k=3, seed=4, obs=obs
        )
        assert report.content_hash() == plain.content_hash()
        assert {entry["kind"] for entry in report.fault_log} == {
            "behavior-flip", "restore", "inject-forgery", *WINDOW_SPANS
        }

        spans = sorted(
            (span.name, span.start_ms, span.end_ms)
            for span in obs.tracer.spans
            if span.name.startswith("chaos.")
        )
        details = {
            "chaos.flip": lambda a: (a["node"], a["behavior"]),
            "chaos.forgery": lambda a: (a["injector"], a["targets"]),
        }
        events = sorted(
            (e.name, e.time_ms, details.get(e.name, lambda a: a["until_ms"])(e.attrs))
            for e in obs.tracer.events
            if e.name.startswith("chaos.") and e.name != "chaos.accuse"
        )
        assert (spans, events) == traced_from_fault_log(report)

        accused = {e.attrs["node"] for e in obs.tracer.events if e.name == "chaos.accuse"}
        assert accused <= set(report.accountability["deviants"])


class TestRunnerIntegration:
    def test_chaos_task_is_registered_and_returns_report_json(self):
        from repro.runner.tasks import get_task

        task = get_task("chaos.run")
        doc = task(
            {
                "scenario": "honest",
                "protocol": "hermes",
                "num_nodes": NODES,
                "seed": 2,
            }
        )
        report = ChaosReport.from_json(doc)
        assert report.scenario == "honest"
        assert report.passed

    def test_chaos_sweeps_resume_from_the_store(self, tmp_path):
        from repro.runner import ResultStore, RunSpec, run_sweep

        specs = [
            RunSpec(
                task="chaos.run",
                params={
                    "scenario": "honest",
                    "protocol": "hermes",
                    "num_nodes": NODES,
                    "seed": seed,
                },
            )
            for seed in (1, 2)
        ]
        store = ResultStore(str(tmp_path))
        first = run_sweep(specs, store=store)
        assert (first.executed, first.skipped, first.failed) == (2, 0, 0)
        # A finished sweep re-invoked against the same store runs nothing.
        second = run_sweep(specs, store=store)
        assert (second.executed, second.skipped, second.failed) == (0, 2, 0)
        assert [r.result for r in second.records] == [
            r.result for r in first.records
        ]

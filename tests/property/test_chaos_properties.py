"""Property tests for the chaos invariant monitors (ISSUE satellite).

Two properties, each checked for HERMES and for the L∅ baseline across
random chaos seeds:

* **Soundness** — an all-honest run never produces a violation record and
  never accuses anyone.
* **Completeness with zero framing** — when the scenario scripts a Byzantine
  deviation, every *observed* deviant is attributed by a
  :class:`~repro.core.accountability.Violation` record and no honest node is
  ever accused.  A ``drop-relay`` node that no overlay ever asks to relay has
  done nothing anyone could see, so "at least one accusation" is only owed
  when something was observed.

The physical environment is cached on ``(num_nodes, f, k)`` with a fixed
build seed inside :func:`~repro.chaos.run_chaos`, so varying the chaos seed
re-rolls fault targets and loss draws without paying overlay construction
per example.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos import BehaviorFlip, ChaosScenario, ChaosWorkload, run_chaos

NODES = 24

HONEST = ChaosScenario(
    name="prop-honest",
    description="no scripted faults",
    horizon_ms=3_000.0,
    workload=ChaosWorkload(transactions=2, start_ms=100.0, period_ms=200.0),
    liveness_deadline_ms=2_500.0,
)

CENSOR = ChaosScenario(
    name="prop-censor",
    description="a random sixth of the network turns censor",
    horizon_ms=3_000.0,
    workload=ChaosWorkload(transactions=2, start_ms=100.0, period_ms=200.0),
    events=(BehaviorFlip(at_ms=50.0, behavior="drop-relay", fraction=0.15),),
    liveness_deadline_ms=2_500.0,
)

seeds = st.integers(min_value=0, max_value=10_000)
protocols = st.sampled_from(["hermes", "lzero"])


@given(seed=seeds, protocol=protocols)
@settings(max_examples=8, deadline=None)
def test_honest_runs_yield_zero_violations(seed, protocol):
    report = run_chaos(HONEST, protocol=protocol, num_nodes=NODES, seed=seed)
    assert report.violation_summary["total"] == 0
    assert report.accountability["deviants"] == []
    assert report.accountability["false_accusations"] == []
    assert report.passed


@given(seed=seeds, protocol=protocols)
# The four drop-relay nodes {7, 9, 20, 22} are never asked to relay here:
# nothing is observable, nothing may be accused (1 of the 240 cases below
# seed 120, and the reason this test used to be red now and then).
@example(seed=32, protocol="hermes")
@settings(max_examples=8, deadline=None)
def test_scripted_deviation_is_attributed_without_framing(seed, protocol):
    report = run_chaos(CENSOR, protocol=protocol, num_nodes=NODES, seed=seed)
    acct = report.accountability
    deviants = set(acct["deviants"])
    assert deviants, "the fraction flip must resolve to concrete nodes"
    # Every deviant the monitors could observe is attributed — so whenever
    # one was observed, the evidence log accuses a deviating node...
    assert set(acct["observed_deviants"]) <= set(acct["attributed"])
    assert acct["attribution_rate"] == 1.0
    assert set(acct["missed"]) == set()
    # ...and no honest node is ever framed by an accusation (sequence-gap
    # records are suspicions, not accusations, and are accounted separately).
    assert acct["false_accusations"] == []


@given(seed=seeds)
@settings(max_examples=6, deadline=None)
def test_reports_are_deterministic_in_the_seed(seed):
    first = run_chaos(CENSOR, protocol="hermes", num_nodes=NODES, seed=seed)
    second = run_chaos(CENSOR, protocol="hermes", num_nodes=NODES, seed=seed)
    assert first.dumps() == second.dumps()

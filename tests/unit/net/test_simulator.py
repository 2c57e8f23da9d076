"""Unit tests for the discrete-event simulator."""

import random

import pytest

from repro.errors import SimulationError
from repro.net.simulator import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule(5.0, lambda: order.append("late"))
        simulator.schedule(1.0, lambda: order.append("early"))
        simulator.schedule(3.0, lambda: order.append("middle"))
        simulator.run()
        assert order == ["early", "middle", "late"]

    def test_ties_break_by_insertion_order(self):
        simulator = Simulator()
        order = []
        for label in ("a", "b", "c"):
            simulator.schedule(1.0, lambda label=label: order.append(label))
        simulator.run()
        assert order == ["a", "b", "c"]

    def test_many_ties_run_in_submission_order(self):
        simulator = Simulator()
        order = []
        for i in range(200):
            simulator.schedule(5.0, lambda i=i: order.append(i))
        simulator.run()
        assert order == list(range(200))

    def test_negative_delay_rejected(self):
        simulator = Simulator()
        with pytest.raises(SimulationError):
            simulator.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        simulator = Simulator()
        seen = []
        simulator.schedule_at(7.5, lambda: seen.append(simulator.now))
        simulator.run()
        assert seen == [7.5]

    def test_nested_scheduling(self):
        simulator = Simulator()
        times = []

        def first():
            times.append(simulator.now)
            simulator.schedule(2.0, lambda: times.append(simulator.now))

        simulator.schedule(1.0, first)
        simulator.run()
        assert times == [1.0, 3.0]

    def test_ties_scheduled_from_callbacks_queue_behind_existing_ties(self):
        """An event scheduled *during* time t for time t runs after every
        event already queued at t (larger sequence number)."""

        simulator = Simulator()
        order = []

        def first():
            order.append("first")
            simulator.schedule(0.0, lambda: order.append("nested"))

        simulator.schedule(3.0, first)
        simulator.schedule(3.0, lambda: order.append("second"))
        simulator.run()
        assert order == ["first", "second", "nested"]


class TestOrderAgainstReference:
    """The run order equals an independent sort by (time, insertion index)."""

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_large_self_scheduling_workload(self, seed):
        # A random workload whose queue passes 50,000 pending events, with
        # duplicate-prone delays so timestamp ties are common.  Every event
        # is logged with the time and global insertion index it was
        # scheduled under; the reference order is that log sorted.
        rng = random.Random(seed)
        simulator = Simulator()
        scheduled = []
        ran = []

        def fire(ident):
            ran.append(ident)
            for _ in range(rng.randrange(0, 2)):
                add(rng.choice((0.0, 1.0, 1.0, 2.5, 40.0)))

        def add(delay):
            ident = len(scheduled)
            scheduled.append((simulator.now + delay, ident))
            simulator.schedule_call(delay, fire, ident)

        for _ in range(60_000):
            add(float(rng.randrange(0, 200)))
        assert simulator.pending_events() > 50_000
        simulator.run(until_ms=400.0)
        due = sorted(entry for entry in scheduled if entry[0] <= 400.0)
        assert ran == [ident for _, ident in due]
        assert simulator.pending_events() == len(scheduled) - len(due)

    def test_queue_growing_mid_run_keeps_order(self):
        # Twenty seed events fan out until 100,000 have been scheduled, so
        # the queue grows from tiny to over 50,000 pending while it drains.
        rng = random.Random(3)
        simulator = Simulator()
        scheduled = []
        ran = []
        peak = [0]

        def fire(ident):
            ran.append(ident)
            for _ in range(rng.randrange(2, 4)):
                if len(scheduled) < 100_000:
                    add(rng.choice((0.0, 1.0, 1.0, 2.5, 40.0)))
            peak[0] = max(peak[0], simulator.pending_events())

        def add(delay):
            ident = len(scheduled)
            scheduled.append((simulator.now + delay, ident))
            simulator.schedule_call(delay, fire, ident)

        for _ in range(20):
            add(rng.choice((0.0, 1.0, 2.5)))
        simulator.run()
        assert peak[0] > 50_000
        assert ran == [ident for _, ident in sorted(scheduled)]


class TestRun:
    def test_run_until_stops_the_clock(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(10.0, lambda: fired.append(True))
        final = simulator.run(until_ms=5.0)
        assert final == 5.0
        assert not fired
        assert simulator.pending_events() == 1

    def test_run_resumes_after_until(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(10.0, lambda: fired.append(simulator.now))
        simulator.run(until_ms=5.0)
        simulator.run()
        assert fired == [10.0]

    def test_until_advances_clock_when_queue_empty(self):
        simulator = Simulator()
        assert simulator.run(until_ms=42.0) == 42.0
        assert simulator.now == 42.0

    def test_until_in_the_past_rejected(self):
        # Rewinding the clock would let later schedule() calls land before
        # events that already ran — rejected with or without pending events.
        simulator = Simulator()
        simulator.schedule(15.0, lambda: None)
        simulator.schedule(20.0, lambda: None)
        simulator.run(until_ms=15.0)
        with pytest.raises(SimulationError):
            simulator.run(until_ms=5.0)
        assert simulator.now == 15.0
        simulator.run()
        with pytest.raises(SimulationError):
            simulator.run(until_ms=5.0)
        assert simulator.now == 20.0

    def test_until_now_is_a_no_op(self):
        simulator = Simulator()
        simulator.schedule(10.0, lambda: None)
        simulator.run(until_ms=5.0)
        assert simulator.run(until_ms=5.0) == 5.0
        assert simulator.pending_events() == 1

    def test_events_processed_counter(self):
        simulator = Simulator()
        for _ in range(3):
            simulator.schedule(0.0, lambda: None)
        simulator.run()
        assert simulator.events_processed == 3

    def test_not_reentrant(self):
        simulator = Simulator()

        def reenter():
            simulator.run()

        simulator.schedule(0.0, reenter)
        with pytest.raises(SimulationError):
            simulator.run()

    def test_clear_drops_pending(self):
        simulator = Simulator()
        simulator.schedule(1.0, lambda: None)
        simulator.clear()
        assert simulator.pending_events() == 0

    def test_clear_keeps_the_clock(self):
        simulator = Simulator()
        simulator.schedule(3.0, lambda: None)
        simulator.run()
        simulator.clear()
        assert simulator.now == 3.0


class TestReset:
    def test_reset_restores_constructed_state(self):
        simulator = Simulator()
        simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        simulator.run()
        simulator.schedule(5.0, lambda: None)  # left pending
        simulator.reset()
        assert simulator.now == 0.0
        assert simulator.pending_events() == 0
        assert simulator.events_processed == 0

    def test_reset_rewinds_tie_break_sequence(self):
        # After a reset, same-time events must replay in the same order a
        # fresh simulator would produce — the sequence counter restarts too.
        def ordering(simulator):
            order = []
            for label in ("a", "b", "c"):
                simulator.schedule(1.0, lambda label=label: order.append(label))
            simulator.run()
            return order

        simulator = Simulator()
        first = ordering(simulator)
        simulator.reset()
        assert ordering(simulator) == first == ["a", "b", "c"]

    def test_reset_allows_rescheduling_at_time_zero(self):
        simulator = Simulator()
        simulator.run(until_ms=100.0)
        simulator.reset()
        seen = []
        simulator.schedule_at(1.0, lambda: seen.append(simulator.now))
        simulator.run()
        assert seen == [1.0]

    def test_reset_rejected_mid_run(self):
        simulator = Simulator()
        failures = []

        def try_reset():
            try:
                simulator.reset()
            except SimulationError:
                failures.append(True)

        simulator.schedule(0.0, try_reset)
        simulator.run()
        assert failures == [True]


class TestResetClearsProfiler:
    def test_reset_wipes_profiler_state_but_keeps_it_attached(self):
        from repro.obs.profiler import SimulatorProfiler

        simulator = Simulator()
        profiler = SimulatorProfiler(queue_sample_interval=1)
        simulator.set_profiler(profiler)
        simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        simulator.run()
        assert simulator.profile().events == 2
        simulator.reset()
        # Still attached, but no wall-time attribution or queue samples leak
        # from the previous repetition.
        assert simulator.profiler is profiler
        profile = simulator.profile()
        assert profile.events == 0
        assert profile.wall_s == 0.0
        assert profile.callbacks == {}
        assert profile.queue_samples == []
        simulator.schedule(1.0, lambda: None)
        simulator.run()
        assert simulator.profile().events == 1

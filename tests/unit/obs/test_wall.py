"""Wall-clock primitives: origin-anchored clocks and phase timers."""

from repro.obs.wall import PhaseTimer, WallClock


class FakeClock:
    """A controllable monotonic source for deterministic timing tests."""

    def __init__(self, start: float = 0.0) -> None:
        self.t = start

    def advance(self, seconds: float) -> None:
        self.t += seconds

    def __call__(self) -> float:
        return self.t


class TestWallClock:
    def test_now_starts_at_zero_and_advances(self):
        source = FakeClock(100.0)
        clock = WallClock(clock=source)
        assert clock.now() == 0.0
        source.advance(2.5)
        assert clock.now() == 2.5

    def test_child_clock_joins_parent_timebase(self):
        source = FakeClock(100.0)
        parent = WallClock(clock=source)
        source.advance(3.0)
        # A child constructed later from the parent's raw origin reads the
        # same timestamps — the cross-process contract the pool initializer
        # relies on.
        child = WallClock(origin=parent.origin, clock=source)
        assert child.now() == parent.now() == 3.0

    def test_now_is_clamped_non_negative(self):
        source = FakeClock(10.0)
        clock = WallClock(origin=20.0, clock=source)
        assert clock.now() == 0.0

    def test_raw_exposes_the_underlying_clock(self):
        source = FakeClock(42.0)
        assert WallClock(clock=source).raw() == 42.0


class TestPhaseTimer:
    def test_phases_accumulate_and_total(self):
        source = FakeClock()
        timer = PhaseTimer(clock=source)
        with timer.phase("a"):
            source.advance(1.0)
        with timer.phase("b"):
            source.advance(2.0)
        with timer.phase("a"):
            source.advance(0.5)
        assert timer.durations["a"] == 1.5
        assert timer.durations["b"] == 2.0
        assert timer.total() == 3.5

    def test_phase_records_even_when_body_raises(self):
        source = FakeClock()
        timer = PhaseTimer(clock=source)
        try:
            with timer.phase("boom"):
                source.advance(1.0)
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert timer.durations["boom"] == 1.0

    def test_add_merges_external_measurements(self):
        timer = PhaseTimer()
        timer.add("spawn", 0.4)
        timer.add("spawn", 0.1)
        assert abs(timer.durations["spawn"] - 0.5) < 1e-12

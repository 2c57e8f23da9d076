"""Unit tests for receiver-side sequence auditing."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.sequencer import SequenceAuditor


class TestObserve:
    def test_in_order_no_gaps(self):
        auditor = SequenceAuditor(gap_timeout_ms=100.0)
        for sequence in range(5):
            assert auditor.observe(origin=1, sequence=sequence, now=float(sequence))
        assert auditor.pending_gaps(1) == []
        assert auditor.highest_seen(1) == 4

    def test_duplicate_returns_false(self):
        auditor = SequenceAuditor(gap_timeout_ms=100.0)
        assert auditor.observe(1, 0, 0.0)
        assert not auditor.observe(1, 0, 1.0)

    def test_gap_detected(self):
        auditor = SequenceAuditor(gap_timeout_ms=100.0)
        auditor.observe(1, 0, 0.0)
        auditor.observe(1, 3, 10.0)
        assert auditor.pending_gaps(1) == [1, 2]

    def test_gap_fills(self):
        auditor = SequenceAuditor(gap_timeout_ms=100.0)
        auditor.observe(1, 0, 0.0)
        auditor.observe(1, 2, 10.0)
        auditor.observe(1, 1, 20.0)
        assert auditor.pending_gaps(1) == []

    def test_negative_sequence_rejected(self):
        auditor = SequenceAuditor(gap_timeout_ms=100.0)
        with pytest.raises(ValueError):
            auditor.observe(1, -1, 0.0)

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            SequenceAuditor(gap_timeout_ms=0.0)

    def test_origins_tracked_separately(self):
        auditor = SequenceAuditor(gap_timeout_ms=100.0)
        auditor.observe(1, 2, 0.0)
        auditor.observe(2, 0, 0.0)
        assert auditor.pending_gaps(1) == [0, 1]
        assert auditor.pending_gaps(2) == []


class TestExpiry:
    def test_gap_expires_after_timeout(self):
        auditor = SequenceAuditor(gap_timeout_ms=100.0)
        auditor.observe(1, 1, 0.0)  # gap: sequence 0
        assert auditor.expired_gaps(1, 50.0) == []
        assert auditor.expired_gaps(1, 100.0) == [0]

    def test_filled_gap_never_expires(self):
        auditor = SequenceAuditor(gap_timeout_ms=100.0)
        auditor.observe(1, 1, 0.0)
        auditor.observe(1, 0, 10.0)
        assert auditor.expired_gaps(1, 500.0) == []

    def test_origins_with_expired_gaps(self):
        auditor = SequenceAuditor(gap_timeout_ms=100.0)
        auditor.observe(1, 1, 0.0)
        auditor.observe(2, 0, 0.0)
        assert auditor.origins_with_expired_gaps(200.0) == [1]

    def test_gap_clock_starts_when_noticed(self):
        auditor = SequenceAuditor(gap_timeout_ms=100.0)
        auditor.observe(1, 0, 0.0)
        auditor.observe(1, 5, 300.0)  # gaps 1..4 noticed at 300
        assert auditor.expired_gaps(1, 350.0) == []
        assert auditor.expired_gaps(1, 400.0) == [1, 2, 3, 4]

    def test_unknown_origin_no_gaps(self):
        auditor = SequenceAuditor(gap_timeout_ms=100.0)
        assert auditor.expired_gaps(42, 1000.0) == []
        assert auditor.highest_seen(42) == -1


class OriginViewAuditor:
    """The reference: one ``OriginView`` (observed set, highest, gaps) per
    origin, the layout the auditor kept before it dropped the observed set."""

    def __init__(self, gap_timeout_ms: float) -> None:
        self.gap_timeout_ms = gap_timeout_ms
        self._origins: dict[int, dict] = {}

    def observe(self, origin: int, sequence: int, now: float) -> bool:
        view = self._origins.setdefault(origin, {"seen": set(), "highest": -1, "gaps": {}})
        if sequence in view["seen"]:
            return False
        view["seen"].add(sequence)
        view["gaps"].pop(sequence, None)
        if sequence > view["highest"]:
            for missing in range(view["highest"] + 1, sequence):
                if missing not in view["seen"]:
                    view["gaps"].setdefault(missing, now)
            view["highest"] = sequence
        return True

    def expired_gaps(self, origin: int, now: float) -> list[int]:
        view = self._origins.get(origin)
        if view is None:
            return []
        return sorted(
            seq for seq, first in view["gaps"].items() if now - first >= self.gap_timeout_ms
        )

    def origins_with_expired_gaps(self, now: float) -> list[int]:
        return sorted(o for o in self._origins if self.expired_gaps(o, now))

    def pending_gaps(self, origin: int) -> list[int]:
        view = self._origins.get(origin)
        return sorted(view["gaps"]) if view else []

    def highest_seen(self, origin: int) -> int:
        view = self._origins.get(origin)
        return view["highest"] if view else -1


# (origin, sequence, time step): small ranges make duplicates, out-of-order
# arrivals and gaps that later close the common case.
_arrivals = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 9), st.sampled_from([0.0, 20.0, 60.0])),
    max_size=40,
)


class TestAgainstOriginViews:
    @example([(0, 0, 0.0), (0, 3, 20.0), (0, 3, 0.0), (0, 1, 60.0), (0, 2, 0.0), (0, 2, 0.0)])
    @given(_arrivals)
    def test_same_answers_after_every_arrival(self, arrivals):
        auditor, reference = SequenceAuditor(100.0), OriginViewAuditor(100.0)
        now = 0.0
        for origin, sequence, step in arrivals:
            now += step
            assert auditor.observe(origin, sequence, now) == reference.observe(
                origin, sequence, now
            )
            for probe in (now, now + 50.0, now + 100.0):
                assert auditor.origins_with_expired_gaps(probe) == (
                    reference.origins_with_expired_gaps(probe)
                )
            for other in range(4):
                assert auditor.pending_gaps(other) == reference.pending_gaps(other)
                assert auditor.highest_seen(other) == reference.highest_seen(other)
                assert auditor.expired_gaps(other, now + 100.0) == (
                    reference.expired_gaps(other, now + 100.0)
                )

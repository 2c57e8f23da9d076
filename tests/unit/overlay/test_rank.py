"""Unit tests for accumulated-rank tracking."""

import pytest

from repro.overlay.rank import RankTracker


class TestRankTracker:
    def test_initial_ranks_zero(self):
        tracker = RankTracker([1, 2, 3])
        assert tracker.rank(1) == 0
        assert tracker.rank(99) == 0  # unknown nodes default to 0

    def test_add_depth_accumulates(self):
        tracker = RankTracker([1])
        tracker.add_depth(1, 3)
        tracker.add_depth(1, 2)
        assert tracker.rank(1) == 5

    def test_negative_depth_rejected(self):
        tracker = RankTracker([1])
        with pytest.raises(ValueError):
            tracker.add_depth(1, -1)

    def test_absorb_overlay(self):
        tracker = RankTracker([1, 2])
        tracker.absorb_overlay({1: 0, 2: 4})
        assert tracker.rank(1) == 0 and tracker.rank(2) == 4
        assert tracker.max_rank() == 4

    def test_snapshot_is_copy(self):
        tracker = RankTracker([1])
        snap = tracker.snapshot()
        snap[1] = 99
        assert tracker.rank(1) == 0

    def test_selection_prefers_high_rank(self):
        tracker = RankTracker([1, 2, 3])
        tracker.add_depth(2, 5)  # node 2 was deepest before
        chosen = tracker.select_for_near_root([1, 2, 3], 1, latency_key=lambda n: 0.0)
        assert chosen == [2]

    def test_selection_ties_break_by_latency(self):
        tracker = RankTracker([1, 2])
        chosen = tracker.select_for_near_root(
            [1, 2], 1, latency_key=lambda n: {1: 9.0, 2: 1.0}[n]
        )
        assert chosen == [2]

    def test_selection_count_validation(self):
        tracker = RankTracker([1])
        with pytest.raises(ValueError):
            tracker.select_for_near_root([1], -1, latency_key=lambda n: 0.0)

    def test_selection_handles_short_candidate_list(self):
        tracker = RankTracker([1, 2])
        assert len(tracker.select_for_near_root([1], 5, lambda n: 0.0)) == 1


class TestRoleRotation:
    def test_ranks_rotate_entry_choice(self):
        """Simulates Alg. 1's rank update over 3 rounds: the entry role moves."""

        tracker = RankTracker([1, 2, 3, 4])
        entries_seen = []
        for _ in range(3):
            entry = tracker.select_for_near_root([1, 2, 3, 4], 1, lambda n: 0.0)[0]
            entries_seen.append(entry)
            # The entry gets depth 0, everyone else depth 2.
            for node in (1, 2, 3, 4):
                tracker.add_depth(node, 0 if node == entry else 2)
        assert len(set(entries_seen)) == 3  # never the same node twice

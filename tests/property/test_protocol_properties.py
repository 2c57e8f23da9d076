"""Property-based tests for protocol-level invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sequencer import SequenceAuditor
from repro.mempool.blocks import Block
from repro.mempool.mempool import Mempool
from repro.mempool.ordering import judge_front_running
from repro.mempool.transaction import Transaction
from repro.net.stats import percentile


class TestSequencerProperties:
    @given(
        sequences=st.lists(
            st.integers(min_value=0, max_value=30), min_size=1, max_size=40
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_gaps_are_exactly_the_unseen_below_max(self, sequences):
        auditor = SequenceAuditor(gap_timeout_ms=10.0)
        for when, sequence in enumerate(sequences):
            auditor.observe(1, sequence, float(when))
        seen = set(sequences)
        expected_gaps = sorted(set(range(max(seen))) - seen)
        assert auditor.pending_gaps(1) == expected_gaps

    @given(
        sequences=st.permutations(list(range(12))),
    )
    @settings(max_examples=30, deadline=None)
    def test_any_permutation_eventually_gapless(self, sequences):
        auditor = SequenceAuditor(gap_timeout_ms=10.0)
        for when, sequence in enumerate(sequences):
            auditor.observe(1, sequence, float(when))
        assert auditor.pending_gaps(1) == []
        assert auditor.highest_seen(1) == 11


class TestMempoolProperties:
    @given(
        arrivals=st.lists(
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_arrival_order_is_sorted(self, arrivals):
        pool = Mempool(owner=0)
        for when in arrivals:
            pool.add(Transaction.create(origin=0, created_at=when), when)
        ordered = pool.in_arrival_order()
        times = [pool.arrival_time(tx.tx_id) for tx in ordered]
        assert times == sorted(times)

    @given(
        ids_a=st.sets(st.integers(min_value=0, max_value=100), max_size=20),
        ids_b=st.sets(st.integers(min_value=0, max_value=100), max_size=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_reconciliation_partitions(self, ids_a, ids_b):
        pool = Mempool(owner=0)
        lookup = {}
        for tx_id in ids_a:
            tx = Transaction.create(origin=0, created_at=0.0)
            lookup[tx_id] = tx
            pool.add(tx, 0.0)
        local = set(pool.known_ids())
        missing = set(pool.missing_from(frozenset(ids_b)))
        absent = set(pool.absent_locally(frozenset(ids_b)))
        assert missing == local - ids_b
        assert absent == ids_b - local


class TestOrderingProperties:
    @given(
        positions=st.permutations(list(range(8))),
        victim=st.integers(min_value=0, max_value=7),
        adversarial=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_verdict_matches_positions(self, positions, victim, adversarial):
        if victim == adversarial:
            return
        block = Block(proposer=0, created_at=0.0, tx_ids=tuple(positions))
        verdict = judge_front_running(block, victim, [adversarial])
        expected = positions.index(adversarial) < positions.index(victim)
        assert verdict.attacker_won == expected


class TestPercentileProperties:
    @given(
        values=st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=50,
        ),
        pct=st.floats(min_value=0, max_value=100),
    )
    @settings(max_examples=80, deadline=None)
    def test_percentile_bounded_and_monotone(self, values, pct):
        result = percentile(values, pct)
        assert min(values) <= result <= max(values)
        # Monotonicity in pct.
        assert percentile(values, 0) <= result <= percentile(values, 100)

"""Unit tests for L∅'s commitment-based reordering audit."""

import pytest

from repro.baselines.lzero import LZeroConfig, LZeroSystem
from repro.baselines.lzero_audit import (
    audit_block_order,
    first_commitment_round,
)
from repro.mempool.blocks import Block
from repro.mempool.transaction import Transaction


def snapshots(*rounds):
    """rounds: (time, ids...)"""

    return [(when, frozenset(ids)) for when, *ids in rounds]


def history(*rounds):
    """The first-commit index a node that took these per-round snapshots
    holds: every id ever committed -> its first round's time."""

    taken = snapshots(*rounds)
    return {
        tx_id: first_commitment_round(taken, tx_id)
        for _when, ids in taken
        for tx_id in ids
    }


class TestFirstCommitmentRound:
    def test_found_in_earliest_round(self):
        h = snapshots((1.0, 5), (2.0, 5, 6))
        assert first_commitment_round(h, 5) == 1.0
        assert first_commitment_round(h, 6) == 2.0

    def test_never_committed(self):
        assert first_commitment_round(snapshots((1.0, 5)), 9) is None


class TestAudit:
    def test_honest_order_clean(self):
        h = history((1.0, 1), (2.0, 1, 2), (3.0, 1, 2, 3))
        block = Block(proposer=0, created_at=4.0, tx_ids=(1, 2, 3))
        assert audit_block_order(h, block) == []

    def test_reordering_detected(self):
        h = history((1.0, 1), (2.0, 1, 2))
        # The proposer provably knew tx 1 before tx 2, yet ordered 2 first.
        block = Block(proposer=0, created_at=3.0, tx_ids=(2, 1))
        evidence = audit_block_order(h, block)
        assert len(evidence) == 1
        assert evidence[0].earlier_tx == 1 and evidence[0].later_tx == 2

    def test_same_round_pairs_not_flagged(self):
        """Two txs first committed in the same round cannot be adjudicated."""

        h = history((1.0, 1, 2))
        block = Block(proposer=0, created_at=2.0, tx_ids=(2, 1))
        assert audit_block_order(h, block) == []

    def test_uncommitted_txs_skipped(self):
        h = history((1.0, 1))
        block = Block(proposer=0, created_at=2.0, tx_ids=(9, 1))
        assert audit_block_order(h, block) == []

    def test_multiple_violations(self):
        h = history((1.0, 1), (2.0, 1, 2), (3.0, 1, 2, 3))
        block = Block(proposer=0, created_at=4.0, tx_ids=(3, 2, 1))
        evidence = audit_block_order(h, block)
        assert len(evidence) == 3  # (1,2), (1,3), (2,3) all inverted


class TestEndToEnd:
    def test_live_lzero_node_history_is_audit_clean(self, physical40):
        """A real run's arrival-ordered block never contradicts commitments."""

        system = LZeroSystem(
            physical40, config=LZeroConfig(reconcile_period_ms=150.0), seed=9
        )
        system.start()
        txs = []
        for index, origin in enumerate((0, 10, 20)):
            tx = Transaction.create(origin=origin, created_at=0.0)
            txs.append(tx)
            system.simulator.schedule_at(
                index * 400.0, lambda o=origin, t=tx: system.submit(o, t)
            )
        system.run(until_ms=5_000)
        from repro.mempool.blocks import build_block

        proposer = system.nodes[30]
        block = build_block(proposer.mempool, system.simulator.now)
        assert set(proposer.first_committed_at) == set(block.tx_ids)
        assert audit_block_order(proposer.first_committed_at, block) == []

    def test_manipulated_block_caught(self, physical40):
        """Reversing a real node's arrival order produces evidence."""

        system = LZeroSystem(
            physical40, config=LZeroConfig(reconcile_period_ms=150.0), seed=9
        )
        system.start()
        txs = []
        for index, origin in enumerate((0, 10, 20)):
            tx = Transaction.create(origin=origin, created_at=0.0)
            txs.append(tx)
            system.simulator.schedule_at(
                index * 600.0, lambda o=origin, t=tx: system.submit(o, t)
            )
        system.run(until_ms=6_000)
        proposer = system.nodes[30]
        honest_order = [t.tx_id for t in proposer.mempool.in_arrival_order()]
        manipulated = Block(
            proposer=30,
            created_at=system.simulator.now,
            tx_ids=tuple(reversed(honest_order)),
        )
        evidence = audit_block_order(proposer.first_committed_at, manipulated)
        assert evidence, "a reversed block must contradict the commitments"

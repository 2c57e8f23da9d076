"""L∅'s reordering audit: commitments expose manipulated block order.

L∅'s accountability story (and the reason our front-running adversary model
denies L∅ nodes deniable censorship/reordering): miners exchange cryptographic
commitments of their mempools *before* exchanging transactions, so a miner's
own commitment timeline pins down when it provably knew each transaction.  A
block that orders transaction B before transaction A — although the miner's
commitments show A was known strictly before B — is evidence of reordering.

:func:`audit_block_order` holds a proposer's block against its commitment
timeline and returns every such contradiction.  All the audit ever asks of the
timeline is *when was this transaction first committed*, so that is the form
it takes: the first-commit index ``tx_id -> time of the first reconciliation
round whose commitment covered it`` that every
:class:`~repro.baselines.lzero.LZeroNode` maintains in O(1) per delivery
(``first_committed_at``) — not the per-round id-set snapshots it summarizes,
which cost O(rounds x transactions) to keep.  :func:`first_commitment_round`
answers the same question from such snapshots, slowly; it is the reference the
index is tested against.  The detection is probabilistic in the commitment
cadence (a reorder between two snapshots of the same round is invisible),
matching the paper's "uncovers reordering attacks with high probability".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..mempool.blocks import Block

__all__ = ["ReorderingEvidence", "audit_block_order", "first_commitment_round"]


@dataclass(frozen=True, slots=True)
class ReorderingEvidence:
    """One detected contradiction between block order and commitments."""

    earlier_tx: int  # committed first...
    later_tx: int  # ...but ordered after this one in the block
    earlier_committed_at: float
    later_committed_at: float


def first_commitment_round(
    history: Sequence[tuple[float, frozenset[int]]], tx_id: int
) -> float | None:
    """The time of the first commitment containing *tx_id* (None if never),
    read off a list of ``(round time, ids committed)`` snapshots."""

    for when, known in history:
        if tx_id in known:
            return when
    return None


def audit_block_order(
    committed_at: Mapping[int, float], block: Block
) -> list[ReorderingEvidence]:
    """Find all block-order/commitment-order contradictions.

    *committed_at* is the proposer's first-commit index.  A pair (A, B) is
    evidence when A's first committed round is *strictly earlier* than B's,
    yet the block places B before A.  Transactions never committed (arrived
    after the last round) cannot be adjudicated and are skipped — the
    probabilistic part of the guarantee.
    """

    evidence: list[ReorderingEvidence] = []
    ordered = [tx for tx in block.tx_ids if tx in committed_at]
    for position, later in enumerate(ordered):
        for earlier in ordered[position + 1 :]:
            # `earlier` sits AFTER `later` in the block; contradiction when
            # it was committed strictly before.
            if committed_at[earlier] < committed_at[later]:
                evidence.append(
                    ReorderingEvidence(
                        earlier_tx=earlier,
                        later_tx=later,
                        earlier_committed_at=committed_at[earlier],
                        later_committed_at=committed_at[later],
                    )
                )
    return evidence

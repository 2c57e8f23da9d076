"""Activity tracing — the paper's "thorough logging to trace node activity".

§I: "Combined with thorough logging to trace node activity, HERMES prevents
front-running attempts from remaining undetected."  The violation log records
*detected* deviations; the activity trace records *everything* — every TRS
request, dispatch, relay, delivery and ack — so that an auditor can
reconstruct any message's dissemination path after the fact and cross-check a
node's claims against its peers' observations.

The trace is deliberately simple: an append-only list of typed records with
query helpers.  `HermesConfig.tracing_enabled` turns collection on;
:func:`reconstruct_path` rebuilds the relay tree of one transaction, and
:func:`cross_check` finds nodes whose *send* claims lack matching *receive*
records (evidence of fabricated logs).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["ActivityKind", "ActivityRecord", "ActivityTrace", "reconstruct_path", "cross_check"]


class ActivityKind(enum.Enum):
    TRS_REQUESTED = "trs-requested"
    DISPATCHED = "dispatched"
    RELAYED = "relayed"
    RECEIVED = "received"  # every verified receipt, duplicates included
    DELIVERED = "delivered"  # first receipt only
    ACKED = "acked"


@dataclass(frozen=True, slots=True)
class ActivityRecord:
    """One traced action."""

    time_ms: float
    node: int
    kind: ActivityKind
    tx_id: int
    overlay_id: int | None = None
    peer: int | None = None  # counterparty (receiver for RELAYED, sender for DELIVERED)


@dataclass
class ActivityTrace:
    """Append-only activity log shared by the nodes of one system."""

    records: list[ActivityRecord] = field(default_factory=list)
    enabled: bool = True

    def record(self, record: ActivityRecord) -> None:
        if self.enabled:
            self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    # -- queries ----------------------------------------------------------

    def for_tx(self, tx_id: int) -> list[ActivityRecord]:
        return [r for r in self.records if r.tx_id == tx_id]

    def for_node(self, node: int) -> list[ActivityRecord]:
        return [r for r in self.records if r.node == node]

    def by_kind(self, kind: ActivityKind) -> list[ActivityRecord]:
        return [r for r in self.records if r.kind is kind]

    def deliveries(self, tx_id: int) -> dict[int, float]:
        """node → first delivery time for *tx_id*."""

        out: dict[int, float] = {}
        for record in self.records:
            if record.kind is ActivityKind.DELIVERED and record.tx_id == tx_id:
                out.setdefault(record.node, record.time_ms)
        return out


def reconstruct_path(trace: ActivityTrace, tx_id: int) -> dict[int, int]:
    """Rebuild who first handed *tx_id* to whom: receiver → sender.

    This is the auditor's view of the dissemination tree: combining it with
    the signed overlay encoding exposes any relay that served a node it was
    not a predecessor of.
    """

    parents: dict[int, int] = {}
    for record in sorted(trace.for_tx(tx_id), key=lambda r: r.time_ms):
        if record.kind is ActivityKind.DELIVERED and record.peer is not None:
            parents.setdefault(record.node, record.peer)
    return parents


def cross_check(trace: ActivityTrace, tx_id: int) -> list[tuple[int, int]]:
    """Find (sender, receiver) relay claims with no matching delivery record.

    A node whose log claims it relayed to a peer that never logged the
    receipt is either lying or talking to a liar — either way the pair is
    flagged for the exclusion process.  (Messages genuinely lost by the
    network also surface here; in a deployment the transport's acks
    disambiguate, in the simulation lossless runs cross-check cleanly.)
    """

    sends = {
        (r.node, r.peer)
        for r in trace.for_tx(tx_id)
        if r.kind is ActivityKind.RELAYED and r.peer is not None
    }
    receipts = {
        (r.peer, r.node)
        for r in trace.for_tx(tx_id)
        if r.kind in (ActivityKind.RECEIVED, ActivityKind.DELIVERED)
        and r.peer is not None
    }
    return sorted(sends - receipts)

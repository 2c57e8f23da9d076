"""Hop-by-hop latency attribution along the critical dissemination path.

For each transaction the *critical path* is the slowest root-to-leaf relay
chain in its dissemination tree — the chain that determines the tail latency
the paper's figures plot.  This module walks that chain and attributes every
millisecond of it to a cause:

``hold``
    Time the relaying node sat on the transaction before scheduling the
    transmission (protocol logic: Bracha echo thresholds, batching timers,
    gossip rounds, push-queue drain delays).
``queue``
    Time the frame waited for link capacity (egress admission and busy-link
    queueing from :class:`repro.net.node.Network`).
``serialization``
    Transmission time of the bytes onto the link (plus any service-time
    residual the capacity model charges).
``link``
    Pure propagation: base latency × region factor × jitter.
``proc``
    Fixed per-message processing delay at the receiver.
``other``
    Residual for hops the tracer could not match to a ``net.send`` record
    (e.g. multi-transaction gossip frames, or lossy traces); the whole hop
    delta lands here so the identity below still holds.

The decomposition is exact by construction: summing all components over all
hops telescopes to ``last_arrival − dispatch``, the end-to-end latency the
network statistics report.  ``trs_wait`` (submit → dispatch, the time HERMES
spends acquiring the threshold-random seed before the first byte moves) is
reported separately since the paper's latency clock starts at dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .trace import DisseminationTree, ReadEvent, Trace

__all__ = [
    "Hop",
    "CriticalPath",
    "ProtocolBreakdown",
    "COMPONENTS",
    "critical_path",
    "critical_paths",
    "aggregate",
]

COMPONENTS = ("hold", "queue", "serialization", "link", "proc", "other")

# deliver_ms from a net.send record and the tx.deliver timestamp are the same
# float computed once by the simulator, but keep a tolerance for robustness.
_MATCH_TOLERANCE_MS = 1e-9


@dataclass(frozen=True, slots=True)
class Hop:
    """One edge of the critical path, fully attributed."""

    src: int
    dst: int
    depart_ms: float | None  # when the frame left src (None if unmatched)
    arrive_ms: float
    hold_ms: float
    queue_ms: float
    serialization_ms: float
    link_ms: float
    proc_ms: float
    other_ms: float
    matched: bool

    @property
    def total_ms(self) -> float:
        return (
            self.hold_ms
            + self.queue_ms
            + self.serialization_ms
            + self.link_ms
            + self.proc_ms
            + self.other_ms
        )


@dataclass
class CriticalPath:
    """The slowest root-to-leaf chain of one transaction's tree."""

    tx_id: int
    protocol: str | None
    path: list[int]
    hops: list[Hop]
    dispatch_ms: float
    end_ms: float
    trs_wait_ms: float  # submit -> dispatch (protocol overhead before byte 0)
    shard: int | None = None  # shard tag of the owning tree (sharded runs only)

    @property
    def e2e_ms(self) -> float:
        """End-to-end latency: dispatch to the slowest node's first delivery."""

        return self.end_ms - self.dispatch_ms

    def component_sums(self) -> dict[str, float]:
        sums = dict.fromkeys(COMPONENTS, 0.0)
        for hop in self.hops:
            sums["hold"] += hop.hold_ms
            sums["queue"] += hop.queue_ms
            sums["serialization"] += hop.serialization_ms
            sums["link"] += hop.link_ms
            sums["proc"] += hop.proc_ms
            sums["other"] += hop.other_ms
        return sums

    @property
    def matched_fraction(self) -> float:
        if not self.hops:
            return 1.0
        return sum(1 for hop in self.hops if hop.matched) / len(self.hops)


class _SendIndex:
    """``net.send`` records indexed by (protocol, src, dst, tx_id) for hop
    matching.  The protocol is part of the key because every protocol's run
    numbers its transactions from zero, so one trace repeats tx ids."""

    def __init__(self, trace: Trace) -> None:
        self._by_edge: dict[tuple[str | None, int, int, int], list[ReadEvent]] = {}
        for event in trace.events:
            if event.name != "net.send":
                continue
            tx_id = event.attrs.get("tx_id")
            if tx_id is None:
                continue
            key = (
                trace.protocol_of(event),
                int(event.attrs["src"]),
                int(event.attrs["dst"]),
                int(tx_id),
            )
            self._by_edge.setdefault(key, []).append(event)

    def match(
        self, protocol: str | None, src: int, dst: int, tx_id: int, arrive_ms: float
    ) -> ReadEvent | None:
        """The send whose computed arrival coincides with *arrive_ms*."""

        candidates = self._by_edge.get((protocol, src, dst, tx_id))
        if not candidates:
            return None
        best = min(
            candidates, key=lambda e: abs(float(e.attrs["deliver_ms"]) - arrive_ms)
        )
        if abs(float(best.attrs["deliver_ms"]) - arrive_ms) <= _MATCH_TOLERANCE_MS:
            return best
        return None


def critical_path(
    tree: DisseminationTree, trace: Trace, _index: _SendIndex | None = None
) -> CriticalPath | None:
    """Attribute the slowest root-to-leaf path of *tree*.

    Returns None for trees with no reconstructed delivery (single-node runs,
    or all deliveries orphaned).
    """

    target = tree.last_delivery()
    if target is None or tree.origin is None:
        return None
    index = _index if _index is not None else _SendIndex(trace)
    dispatch_ms = tree.dispatch_ms if tree.dispatch_ms is not None else tree.submit_ms
    if dispatch_ms is None:
        dispatch_ms = 0.0
    submit_ms = tree.submit_ms if tree.submit_ms is not None else dispatch_ms

    path = tree.path_to(target.node)
    hops: list[Hop] = []
    prev_arrival = dispatch_ms
    for src, dst in zip(path, path[1:]):
        delivery = tree.deliveries[dst]
        arrive_ms = delivery.time_ms
        send = index.match(tree.protocol, src, dst, tree.tx_id, arrive_ms)
        if send is not None:
            attrs = send.attrs
            hold_ms = send.time_ms - prev_arrival
            queue_ms = float(attrs.get("queue_ms", 0.0))
            serialization_ms = float(attrs.get("serialization_ms", 0.0))
            link_ms = float(attrs.get("link_ms", 0.0))
            proc_ms = float(attrs.get("proc_ms", 0.0))
            # Close the telescoping identity exactly: anything the send
            # record's components do not cover (float dust, model quirks)
            # lands in `other`.
            other_ms = (arrive_ms - prev_arrival) - (
                hold_ms + queue_ms + serialization_ms + link_ms + proc_ms
            )
            hops.append(
                Hop(
                    src=src,
                    dst=dst,
                    depart_ms=send.time_ms,
                    arrive_ms=arrive_ms,
                    hold_ms=hold_ms,
                    queue_ms=queue_ms,
                    serialization_ms=serialization_ms,
                    link_ms=link_ms,
                    proc_ms=proc_ms,
                    other_ms=other_ms,
                    matched=True,
                )
            )
        else:
            hops.append(
                Hop(
                    src=src,
                    dst=dst,
                    depart_ms=None,
                    arrive_ms=arrive_ms,
                    hold_ms=0.0,
                    queue_ms=0.0,
                    serialization_ms=0.0,
                    link_ms=0.0,
                    proc_ms=0.0,
                    other_ms=arrive_ms - prev_arrival,
                    matched=False,
                )
            )
        prev_arrival = arrive_ms

    return CriticalPath(
        tx_id=tree.tx_id,
        protocol=tree.protocol,
        path=path,
        hops=hops,
        dispatch_ms=dispatch_ms,
        end_ms=target.time_ms,
        trs_wait_ms=dispatch_ms - submit_ms,
        shard=tree.shard,
    )


def critical_paths(
    trees: Iterable[DisseminationTree], trace: Trace
) -> list[CriticalPath]:
    """Critical paths for every tree that has at least one delivery."""

    index = _SendIndex(trace)
    paths = []
    for tree in trees:
        result = critical_path(tree, trace, _index=index)
        if result is not None:
            paths.append(result)
    return paths


@dataclass
class ProtocolBreakdown:
    """Critical-path attribution aggregated over one protocol's transactions."""

    protocol: str | None
    shard: int | None = None
    tx_count: int = 0
    hop_count: int = 0
    e2e_ms: float = 0.0
    trs_wait_ms: float = 0.0
    components: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(COMPONENTS, 0.0)
    )
    matched_hops: int = 0

    @property
    def mean_e2e_ms(self) -> float:
        return self.e2e_ms / self.tx_count if self.tx_count else 0.0

    @property
    def mean_hops(self) -> float:
        return self.hop_count / self.tx_count if self.tx_count else 0.0

    def component_shares(self) -> dict[str, float]:
        """Each component's fraction of total critical-path time."""

        total = sum(self.components.values())
        if total <= 0.0:
            return dict.fromkeys(COMPONENTS, 0.0)
        return {name: value / total for name, value in self.components.items()}


def aggregate(paths: Iterable[CriticalPath]) -> list[ProtocolBreakdown]:
    """Per-(protocol, shard) totals across many transactions' critical paths.

    Unsharded traces carry no shard tags, so every path falls in the single
    ``shard=None`` group per protocol and the output is identical to the
    pre-sharding aggregation.
    """

    groups: dict[tuple[str | None, int | None], ProtocolBreakdown] = {}
    for path in paths:
        key = (path.protocol, path.shard)
        breakdown = groups.get(key)
        if breakdown is None:
            breakdown = groups[key] = ProtocolBreakdown(
                protocol=path.protocol, shard=path.shard
            )
        breakdown.tx_count += 1
        breakdown.hop_count += len(path.hops)
        breakdown.e2e_ms += path.e2e_ms
        breakdown.trs_wait_ms += path.trs_wait_ms
        breakdown.matched_hops += sum(1 for hop in path.hops if hop.matched)
        for name, value in path.component_sums().items():
            breakdown.components[name] += value
    return [
        groups[key]
        for key in sorted(groups, key=lambda k: (str(k[0]), k[1] is not None, k[1] or 0))
    ]

"""Versioned trace reading and dissemination-tree reconstruction.

The simulator emits JSON Lines traces (see :mod:`repro.obs.tracer`): a header
line stating the format version, then spans and events in creation order.
This module turns such a file back into structure:

* :func:`read_trace` — parse + validate (header version, span parent/child
  integrity, event ownership);
* :func:`build_trees` — reconstruct, per transaction, the actual
  dissemination tree: who relayed to whom, on which overlay, at what
  simulated time.  The parent edges come from the ``tx.deliver`` events every
  protocol emits on first delivery (``sender`` = the immediate predecessor),
  the root from ``tx.dispatch`` (the paper's latency reference point — the
  first transmission of the payload itself).

Traces may interleave several protocols (the figure scripts run all four
against one tracer); each run is wrapped in a span carrying a ``protocol``
attribute, so events are attributed to a protocol by walking their owning
span chain.  Transaction ids restart per protocol run, hence trees are keyed
``(protocol, tx_id)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, TextIO

from ...errors import TraceReadError
from ..tracer import TRACE_SCHEMA, TRACE_VERSION

__all__ = [
    "TraceHeader",
    "ReadSpan",
    "ReadEvent",
    "Trace",
    "Delivery",
    "DisseminationTree",
    "StreamedLatencies",
    "read_trace",
    "build_trees",
    "stream_latencies",
]


@dataclass(frozen=True, slots=True)
class TraceHeader:
    """The first line of a v1 trace file."""

    v: int
    schema: str
    events: int
    spans: int
    events_dropped: int
    spans_dropped: int

    @property
    def lossy(self) -> bool:
        """True when the ring buffers evicted records before export."""

        return self.events_dropped > 0 or self.spans_dropped > 0


@dataclass(frozen=True, slots=True)
class ReadSpan:
    """One ``{"type": "span"}`` record."""

    seq: int
    span_id: int
    parent_id: int | None
    name: str
    start_ms: float
    end_ms: float | None
    attrs: dict[str, Any]


@dataclass(frozen=True, slots=True)
class ReadEvent:
    """One ``{"type": "event"}`` record."""

    seq: int
    time_ms: float
    name: str
    span_id: int | None
    attrs: dict[str, Any]


class Trace:
    """A parsed trace: header, events and spans, with owner resolution."""

    def __init__(
        self, header: TraceHeader, events: list[ReadEvent], spans: list[ReadSpan]
    ) -> None:
        self.header = header
        self.events = events
        self.spans = spans
        self._span_index: dict[int, ReadSpan] = {s.span_id: s for s in spans}

    def span(self, span_id: int) -> ReadSpan | None:
        return self._span_index.get(span_id)

    def events_named(self, *names: str) -> list[ReadEvent]:
        wanted = set(names)
        return [e for e in self.events if e.name in wanted]

    def protocol_of(self, event: ReadEvent) -> str | None:
        """The ``protocol`` attribute of the nearest enclosing span, if any."""

        span_id = event.span_id
        seen: set[int] = set()
        while span_id is not None and span_id not in seen:
            seen.add(span_id)
            span = self._span_index.get(span_id)
            if span is None:
                return None
            protocol = span.attrs.get("protocol")
            if protocol is not None:
                return str(protocol)
            span_id = span.parent_id
        return None

    def validate(self) -> list[str]:
        """Structural problems: dangling span parents, orphan event owners.

        A lossy trace (ring buffers overflowed) legitimately references
        evicted records, so dangling references are only reported when the
        header says nothing was dropped.
        """

        problems: list[str] = []
        if self.header.lossy:
            return problems
        for span in self.spans:
            if span.parent_id is not None and span.parent_id not in self._span_index:
                problems.append(
                    f"span {span.span_id} ({span.name!r}) references missing "
                    f"parent {span.parent_id}"
                )
            if span.end_ms is not None and span.end_ms < span.start_ms:
                problems.append(
                    f"span {span.span_id} ({span.name!r}) ends before it starts"
                )
        for event in self.events:
            if event.span_id is not None and event.span_id not in self._span_index:
                problems.append(
                    f"event seq={event.seq} ({event.name!r}) references missing "
                    f"span {event.span_id}"
                )
        return problems


def _parse_header(record: dict[str, Any]) -> TraceHeader:
    if record.get("type") != "header":
        raise TraceReadError(
            "not a repro trace file: first line must be the "
            f'{{"type": "header"}} record, got type={record.get("type")!r} '
            "(traces from before the versioned format need re-exporting)"
        )
    version = record.get("v")
    if version != TRACE_VERSION:
        raise TraceReadError(
            f"unsupported trace version v={version!r} "
            f"(schema {record.get('schema')!r}); this reader understands "
            f"v={TRACE_VERSION} ({TRACE_SCHEMA})"
        )
    return TraceHeader(
        v=int(version),
        schema=str(record.get("schema", TRACE_SCHEMA)),
        events=int(record.get("events", 0)),
        spans=int(record.get("spans", 0)),
        events_dropped=int(record.get("events_dropped", 0)),
        spans_dropped=int(record.get("spans_dropped", 0)),
    )


def read_trace(source: str | TextIO | Iterable[str]) -> Trace:
    """Parse a JSONL trace file (path, file object, or iterable of lines).

    Raises :class:`~repro.errors.TraceReadError` on a missing/foreign header,
    an unsupported ``"v"``, malformed JSON, or an unknown record type.
    """

    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return read_trace(handle)

    header: TraceHeader | None = None
    events: list[ReadEvent] = []
    spans: list[ReadSpan] = []
    for number, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceReadError(f"line {number} is not valid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise TraceReadError(f"line {number} is not a JSON object")
        if header is None:
            header = _parse_header(record)
            continue
        kind = record.get("type")
        try:
            if kind == "event":
                events.append(
                    ReadEvent(
                        seq=int(record["seq"]),
                        time_ms=float(record["time_ms"]),
                        name=str(record["name"]),
                        span_id=record["span_id"],
                        attrs=dict(record.get("attrs") or {}),
                    )
                )
            elif kind == "span":
                end_ms = record["end_ms"]
                spans.append(
                    ReadSpan(
                        seq=int(record["seq"]),
                        span_id=int(record["span_id"]),
                        parent_id=record["parent_id"],
                        name=str(record["name"]),
                        start_ms=float(record["start_ms"]),
                        end_ms=float(end_ms) if end_ms is not None else None,
                        attrs=dict(record.get("attrs") or {}),
                    )
                )
            else:
                raise TraceReadError(
                    f"line {number}: unknown record type {kind!r} "
                    f"(v{TRACE_VERSION} defines 'span' and 'event')"
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceReadError(f"line {number}: malformed {kind} record: {exc}") from exc
    if header is None:
        raise TraceReadError("empty input: not a repro trace file (missing header)")
    return Trace(header, events, spans)


# ----------------------------------------------------------------------
# Dissemination trees
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Delivery:
    """One node's first delivery of a transaction (a ``tx.deliver`` event)."""

    node: int
    sender: int
    time_ms: float
    seq: int
    overlay_id: int | None = None
    hops: int | None = None
    via: str | None = None


@dataclass
class DisseminationTree:
    """Who relayed a transaction to whom, reconstructed from the trace.

    The root is the origin; an edge ``parent -> node`` means *node*'s first
    copy arrived from *parent*.  ``orphans`` collects deliveries whose sender
    is not itself reachable from the origin — impossible in a complete trace
    (a node must hold a transaction before forwarding it), so any orphan
    indicates an incomplete (lossy) trace or an instrumentation gap.
    """

    tx_id: int
    protocol: str | None
    origin: int | None = None
    shard: int | None = None
    submit_ms: float | None = None
    dispatch_ms: float | None = None
    overlay_id: int | None = None
    deliveries: dict[int, Delivery] = field(default_factory=dict)
    children: dict[int, list[int]] = field(default_factory=dict)
    orphans: list[Delivery] = field(default_factory=list)

    @property
    def node_count(self) -> int:
        """Nodes holding the transaction (origin + reconstructed deliveries)."""

        return len(self.deliveries) + (1 if self.origin is not None else 0)

    def parent_of(self, node: int) -> int | None:
        delivery = self.deliveries.get(node)
        return delivery.sender if delivery is not None else None

    def path_to(self, node: int) -> list[int]:
        """Relay path origin → ... → *node* (inclusive)."""

        path = [node]
        seen = {node}
        while True:
            parent = self.parent_of(path[-1])
            if parent is None or parent in seen:
                break
            path.append(parent)
            seen.add(parent)
        path.reverse()
        return path

    def depth_of(self, node: int) -> int:
        return len(self.path_to(node)) - 1

    def max_depth(self) -> int:
        return max((self.depth_of(n) for n in self.deliveries), default=0)

    def last_delivery(self) -> Delivery | None:
        """The slowest delivery — the endpoint of the critical path."""

        return max(
            self.deliveries.values(), key=lambda d: (d.time_ms, d.seq), default=None
        )


def build_trees(trace: Trace) -> list[DisseminationTree]:
    """Reconstruct every transaction's dissemination tree from *trace*.

    Returns trees ordered by (protocol, tx_id).  Orphan deliveries (sender
    not reachable from the origin) are kept on the tree's ``orphans`` list
    rather than silently dropped, so callers can assert completeness.
    """

    trees: dict[tuple[str | None, int], DisseminationTree] = {}

    def tree_for(event: ReadEvent) -> DisseminationTree:
        key = (trace.protocol_of(event), int(event.attrs["tx_id"]))
        tree = trees.get(key)
        if tree is None:
            tree = trees[key] = DisseminationTree(tx_id=key[1], protocol=key[0])
        if tree.shard is None and event.attrs.get("shard") is not None:
            # A trace written by a sharded deployment stamps every event
            # with its shard; unsharded traces never carry the key.
            tree.shard = int(event.attrs["shard"])
        return tree

    deliveries: dict[tuple[str | None, int], list[ReadEvent]] = {}
    for event in trace.events:
        if event.name == "tx.submit":
            tree = tree_for(event)
            if tree.submit_ms is None:
                tree.submit_ms = event.time_ms
                tree.origin = int(event.attrs["origin"])
        elif event.name == "tx.dispatch":
            tree = tree_for(event)
            if tree.dispatch_ms is None:
                tree.dispatch_ms = event.time_ms
                tree.origin = int(event.attrs["origin"])
                if event.attrs.get("overlay_id") is not None:
                    tree.overlay_id = int(event.attrs["overlay_id"])
        elif event.name == "tx.deliver":
            key = (trace.protocol_of(event), int(event.attrs["tx_id"]))
            deliveries.setdefault(key, []).append(event)

    for key, events in deliveries.items():
        tree = trees.get(key)
        if tree is None:
            tree = trees[key] = DisseminationTree(tx_id=key[1], protocol=key[0])
        if tree.shard is None:
            for event in events:
                if event.attrs.get("shard") is not None:
                    tree.shard = int(event.attrs["shard"])
                    break
        reachable: set[int] = set()
        if tree.origin is not None:
            reachable.add(tree.origin)
        # Creation order is time order; a sender must already hold the
        # transaction, so one forward pass reconstructs the whole tree.
        for event in sorted(events, key=lambda e: e.seq):
            attrs = event.attrs
            delivery = Delivery(
                node=int(attrs["node"]),
                sender=int(attrs["sender"]),
                time_ms=event.time_ms,
                seq=event.seq,
                overlay_id=attrs.get("overlay_id"),
                hops=attrs.get("hops"),
                via=attrs.get("via"),
            )
            if delivery.node in tree.deliveries or delivery.node == tree.origin:
                continue  # first delivery wins; later events are duplicates
            if delivery.sender not in reachable:
                tree.orphans.append(delivery)
                continue
            tree.deliveries[delivery.node] = delivery
            tree.children.setdefault(delivery.sender, []).append(delivery.node)
            reachable.add(delivery.node)

    return [trees[key] for key in sorted(trees, key=lambda k: (str(k[0]), k[1]))]


# ----------------------------------------------------------------------
# Streaming latency fold (constant memory per metric)
# ----------------------------------------------------------------------


@dataclass
class StreamedLatencies:
    """Per-protocol delivery-latency sketches folded from a trace stream.

    ``sketches`` maps protocol name (or None) to a
    :class:`~repro.net.sketch.QuantileSketch` over every ``tx.deliver``
    latency (delivery time − that transaction's ``tx.dispatch`` time).
    ``skipped`` counts deliveries that could not be attributed — their
    dispatch was never seen, or was evicted from the bounded in-flight map —
    so truncation is always visible, never silent.
    """

    sketches: dict[str | None, "QuantileSketch"] = field(default_factory=dict)
    deliveries: int = 0
    skipped: int = 0
    events: int = 0


def stream_latencies(
    source: str | TextIO | Iterable[str],
    *,
    sketch_capacity: int = 512,
    max_inflight: int = 100_000,
) -> StreamedLatencies:
    """Fold a trace's delivery latencies without materializing the trace.

    :func:`read_trace` + :func:`build_trees` hold every event and every
    delivery in memory — fine for figure-sized traces, impossible for a
    sustained 10⁶-transaction run.  This fold reads the JSONL line by line
    and keeps only: the span table (O(runs), for protocol attribution), one
    quantile sketch per protocol, and an in-flight ``tx_id → dispatch time``
    map bounded at *max_inflight* entries (oldest evicted first; affected
    deliveries are counted in ``skipped``).

    Same validation as :func:`read_trace` for the header and record shapes.
    """

    from ...net.sketch import QuantileSketch

    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return stream_latencies(
                handle,
                sketch_capacity=sketch_capacity,
                max_inflight=max_inflight,
            )

    header: TraceHeader | None = None
    # span_id -> (parent_id, protocol attr or None)
    spans: dict[int, tuple[int | None, str | None]] = {}
    # (protocol, tx_id) -> dispatch time, insertion-ordered for FIFO eviction.
    inflight: dict[tuple[str | None, int], float] = {}
    result = StreamedLatencies()

    def protocol_of(span_id: int | None) -> str | None:
        seen: set[int] = set()
        while span_id is not None and span_id not in seen:
            seen.add(span_id)
            entry = spans.get(span_id)
            if entry is None:
                return None
            parent_id, protocol = entry
            if protocol is not None:
                return protocol
            span_id = parent_id
        return None

    for number, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceReadError(f"line {number} is not valid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise TraceReadError(f"line {number} is not a JSON object")
        if header is None:
            header = _parse_header(record)
            continue
        kind = record.get("type")
        if kind == "span":
            attrs = record.get("attrs") or {}
            protocol = attrs.get("protocol")
            spans[int(record["span_id"])] = (
                record.get("parent_id"),
                str(protocol) if protocol is not None else None,
            )
            continue
        if kind != "event":
            raise TraceReadError(
                f"line {number}: unknown record type {kind!r} "
                f"(v{TRACE_VERSION} defines 'span' and 'event')"
            )
        name = record.get("name")
        if name not in ("tx.dispatch", "tx.deliver"):
            continue
        result.events += 1
        attrs = record.get("attrs") or {}
        try:
            tx_id = int(attrs["tx_id"])
            time_ms = float(record["time_ms"])
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceReadError(f"line {number}: malformed event record: {exc}") from exc
        key = (protocol_of(record.get("span_id")), tx_id)
        if name == "tx.dispatch":
            if key not in inflight:
                if len(inflight) >= max_inflight:
                    # FIFO eviction: dicts iterate in insertion order.
                    oldest = next(iter(inflight))
                    del inflight[oldest]
                    result.skipped += 1
                inflight[key] = time_ms
        else:  # tx.deliver
            dispatch_ms = inflight.get(key)
            if dispatch_ms is None:
                result.skipped += 1
                continue
            sketch = result.sketches.get(key[0])
            if sketch is None:
                sketch = result.sketches[key[0]] = QuantileSketch(sketch_capacity)
            sketch.observe(max(0.0, time_ms - dispatch_ms))
            result.deliveries += 1
    if header is None:
        raise TraceReadError("empty input: not a repro trace file (missing header)")
    return result

"""Shard attribution in trace analytics.

A trace may stamp every event with a ``shard`` tag (traces are read from
files, whoever wrote them); the analytics must carry it through
dissemination trees and critical paths and render a shard column in reports.
Unsharded traces carry no tags, and their reports must render exactly as
before — the zero-shard path is pinned by asserting the header row verbatim.
"""

import json

from repro.obs.analysis import (
    aggregate,
    build_trees,
    critical_paths,
    read_trace,
    render_report,
)


def _header():
    return {
        "type": "header",
        "v": 1,
        "schema": "repro.trace/1",
        "events": 0,
        "spans": 0,
        "events_dropped": 0,
        "spans_dropped": 0,
    }


def _tx_events(tx_id, start_seq, *, shard=None, node=1):
    extra = {} if shard is None else {"shard": shard}
    return [
        {
            "type": "event",
            "seq": start_seq,
            "time_ms": 0.0,
            "name": "tx.dispatch",
            "span_id": None,
            "attrs": {"tx_id": tx_id, "origin": 0, **extra},
        },
        {
            "type": "event",
            "seq": start_seq + 1,
            "time_ms": 5.0,
            "name": "tx.deliver",
            "span_id": None,
            "attrs": {"tx_id": tx_id, "node": node, "sender": 0, **extra},
        },
    ]


def _trace(records):
    return read_trace([json.dumps(r) for r in records])


class TestShardAttribution:
    def test_trees_and_paths_carry_the_shard_tag(self):
        trace = _trace(
            [_header()] + _tx_events(1, 0, shard=0) + _tx_events(2, 2, shard=1)
        )
        trees = build_trees(trace)
        assert {tree.tx_id: tree.shard for tree in trees} == {1: 0, 2: 1}
        paths = critical_paths(trees, trace)
        assert {path.tx_id: path.shard for path in paths} == {1: 0, 2: 1}

    def test_aggregate_groups_by_protocol_and_shard(self):
        trace = _trace(
            [_header()] + _tx_events(1, 0, shard=0) + _tx_events(2, 2, shard=1)
        )
        trees = build_trees(trace)
        breakdowns = aggregate(critical_paths(trees, trace))
        assert [(b.protocol, b.shard, b.tx_count) for b in breakdowns] == [
            (None, 0, 1),
            (None, 1, 1),
        ]

    def test_sharded_report_gains_shard_column(self):
        trace = _trace(
            [_header()] + _tx_events(1, 0, shard=0) + _tx_events(2, 2, shard=1)
        )
        trees = build_trees(trace)
        markdown = render_report(
            trees=trees, paths=critical_paths(trees, trace)
        )
        assert "| protocol | shard | trees |" in markdown
        assert "| protocol | shard | txs |" in markdown

    def test_unsharded_report_renders_unchanged(self):
        trace = _trace([_header()] + _tx_events(1, 0))
        trees = build_trees(trace)
        assert all(tree.shard is None for tree in trees)
        markdown = render_report(
            trees=trees, paths=critical_paths(trees, trace)
        )
        # The exact pre-sharding header rows: no shard column anywhere.
        assert (
            "| protocol | trees | mean nodes/tree | max depth | orphan deliveries |"
            in markdown
        )
        assert "| protocol | txs | mean hops |" in markdown
        assert "shard" not in markdown

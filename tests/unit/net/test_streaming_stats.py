"""Unit tests for the constant-memory StreamingNetworkStats."""

import pytest

from repro.net.stats import NetworkStats, percentile
from repro.net.streaming_stats import StreamingNetworkStats


def deliver_item(stats, item, send_ms, latencies, *, nodes=None):
    """Drive one item through the recording call sites the network uses."""

    stats.record_submission(item, send_ms)
    stats.record_dissemination_start(item, send_ms)
    targets = nodes if nodes is not None else range(len(latencies))
    for node, latency in zip(targets, latencies):
        stats.record_delivery(item, node, send_ms + latency)


class TestThresholdSemantics:
    def test_item_counts_once_it_reaches_the_fraction(self):
        stats = StreamingNetworkStats(node_count=4, delivery_fraction=0.75)
        assert stats.delivery_threshold == 3
        deliver_item(stats, "tx0", 0.0, [5.0, 6.0])
        assert stats.delivered_items == 0
        assert stats.inflight == 1
        stats.record_delivery("tx0", 2, 7.0)
        assert stats.delivered_items == 1
        # All per-node latencies entered the sketch, including pre-threshold.
        assert stats.latency_sketch.count == 3

    def test_full_coverage_evicts_the_inflight_entry(self):
        stats = StreamingNetworkStats(node_count=3, delivery_fraction=1.0)
        deliver_item(stats, "tx0", 0.0, [1.0, 2.0, 3.0])
        assert stats.delivered_items == 1
        assert stats.inflight == 0

    def test_duplicate_deliveries_are_ignored(self):
        stats = StreamingNetworkStats(node_count=2, delivery_fraction=1.0)
        stats.record_submission("tx0", 0.0)
        stats.record_dissemination_start("tx0", 0.0)
        stats.record_delivery("tx0", 0, 5.0)
        stats.record_delivery("tx0", 0, 99.0)
        stats.record_delivery("tx0", 1, 6.0)
        assert stats.latency_sketch.count == 2
        assert stats.latency_sketch.max == 6.0

    def test_latencies_match_exact_stats_population(self):
        """Streaming folds the same population the exact path would build."""

        exact = NetworkStats()
        streaming = StreamingNetworkStats(node_count=4, delivery_fraction=0.99)
        rows = [
            ("a", 10.0, [3.0, 5.0, 8.0, 13.0]),
            ("b", 20.0, [2.0, 2.0, 4.0, 6.0]),
            ("c", 30.0, [1.0, 9.0]),  # under threshold: not delivered
        ]
        for item, send, latencies in rows:
            deliver_item(exact, item, send, latencies)
            deliver_item(streaming, item, send, latencies)
        exact_pop = sorted(
            latency
            for item, _, latencies in rows
            if len(latencies) >= streaming.delivery_threshold
            for latency in latencies
        )
        assert streaming.delivered_items == 2
        assert streaming.latency_sketch.count == len(exact_pop)
        assert streaming.latency_sketch.rank_error() == 0.0
        for pct in (5, 50, 95):
            assert streaming.percentile_ms(pct) == pytest.approx(
                percentile(exact_pop, pct)
            )

    def test_origin_self_delivery_clamps_to_zero(self):
        stats = StreamingNetworkStats(node_count=1, delivery_fraction=1.0)
        stats.record_submission("tx0", 5.0)
        stats.record_delivery("tx0", 0, 5.0)  # origin delivers before dispatch
        stats.record_dissemination_start("tx0", 8.0)
        assert stats.delivered_items == 1
        assert stats.latency_sketch.min == 0.0


class TestExpiry:
    def test_expire_sheds_only_undelivered_stragglers(self):
        stats = StreamingNetworkStats(node_count=3, delivery_fraction=1.0)
        deliver_item(stats, "done", 0.0, [1.0, 2.0, 3.0])
        deliver_item(stats, "stuck", 0.0, [1.0])
        assert stats.inflight == 1
        assert stats.expire(now_ms=50_000.0, ttl_ms=10_000.0) == 1
        assert stats.expired_items == 1
        assert stats.inflight == 0
        # A fresh straggler survives the sweep.
        deliver_item(stats, "fresh", 49_999.0, [1.0])
        assert stats.expire(now_ms=50_000.0, ttl_ms=10_000.0) == 0
        assert stats.inflight == 1


class TestDisabledAccessors:
    def test_per_item_accessors_raise(self):
        stats = StreamingNetworkStats(node_count=2)
        with pytest.raises(NotImplementedError):
            stats.delivery_latencies("x")
        with pytest.raises(NotImplementedError):
            stats.all_delivery_latencies()
        with pytest.raises(NotImplementedError):
            stats.setup_overheads()
        with pytest.raises(NotImplementedError):
            stats.coverage("x", [0, 1])

    def test_latency_summary_from_sketch(self):
        stats = StreamingNetworkStats(node_count=1, delivery_fraction=1.0)
        assert stats.latency_summary().is_empty
        assert stats.percentile_ms(50) is None
        deliver_item(stats, "tx0", 0.0, [10.0])
        summary = stats.latency_summary()
        assert summary.count == 1
        assert summary.p50 == 10.0


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            StreamingNetworkStats(node_count=0)
        with pytest.raises(ValueError):
            StreamingNetworkStats(node_count=3, delivery_fraction=0.0)
        with pytest.raises(ValueError):
            StreamingNetworkStats(node_count=3, delivery_fraction=1.5)

    def test_byte_counters_inherited(self):
        stats = StreamingNetworkStats(node_count=2)
        stats.record_send(0, 1, 100)
        assert stats.total_bytes() == 100
        assert stats.drop_rate() == 0.0

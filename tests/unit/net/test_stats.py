"""Unit tests for bandwidth/latency accounting."""

import math

import pytest

from repro.net.stats import NetworkStats, percentile, summarize_latencies


class TestPercentile:
    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_endpoints(self):
        values = [5.0, 1.0, 9.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 9.0

    def test_single_value(self):
        assert percentile([3.0], 77) == 3.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_pct_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestSummary:
    def test_summary_fields(self):
        summary = summarize_latencies([10.0, 20.0, 30.0, 40.0])
        assert summary.count == 4
        assert summary.mean == 25.0
        assert summary.p50 == 25.0
        assert summary.spread == summary.p95 - summary.p5

    def test_empty_population_yields_empty_summary(self):
        # percentile() still refuses empty input, but the summary path
        # degrades gracefully: a run with zero deliveries reports NaN cells
        # instead of crashing the experiment (see LatencySummary.empty).
        summary = summarize_latencies([])
        assert summary.is_empty
        assert summary.count == 0
        assert math.isnan(summary.mean)
        assert math.isnan(summary.p5)
        assert math.isnan(summary.p95)
        assert math.isnan(summary.spread)
        assert summarize_latencies([1.0]).is_empty is False

    def test_empty_summary_from_stats_without_deliveries(self):
        assert NetworkStats().latency_summary().is_empty


class TestNetworkStats:
    def test_send_charges_the_sender(self):
        stats = NetworkStats()
        stats.record_send(1, 2, 100)
        assert stats.bytes_sent[1] == 100
        assert stats.messages_sent[1] == 1

    def test_delivery_latency_relative_to_send(self):
        stats = NetworkStats()
        stats.record_dissemination_start("tx", 100.0)
        stats.record_delivery("tx", 5, 180.0)
        stats.record_delivery("tx", 6, 150.0)
        assert sorted(stats.delivery_latencies("tx")) == [50.0, 80.0]

    def test_first_delivery_wins(self):
        stats = NetworkStats()
        stats.record_dissemination_start("tx", 0.0)
        stats.record_delivery("tx", 5, 10.0)
        stats.record_delivery("tx", 5, 99.0)
        assert stats.delivery_latencies("tx") == [10.0]

    def test_pre_send_delivery_clamped_to_zero(self):
        stats = NetworkStats()
        stats.record_submission("tx", 0.0)
        stats.record_delivery("tx", 1, 0.0)
        stats.record_dissemination_start("tx", 50.0)
        assert stats.delivery_latencies("tx") == [0.0]

    def test_unknown_item_raises(self):
        stats = NetworkStats()
        with pytest.raises(KeyError):
            stats.delivery_latencies("nope")

    def test_coverage(self):
        stats = NetworkStats()
        stats.record_dissemination_start("tx", 0.0)
        stats.record_delivery("tx", 1, 5.0)
        stats.record_delivery("tx", 2, 5.0)
        assert stats.coverage("tx", [1, 2, 3, 4]) == 0.5

    def test_coverage_empty_audience_raises(self):
        stats = NetworkStats()
        with pytest.raises(ValueError):
            stats.coverage("tx", [])

    def test_bandwidth_kb_per_minute(self):
        stats = NetworkStats()
        # 2 nodes, 1024 bytes each over 30 seconds => 2 KB/min/node.
        stats.record_send(1, 2, 1024)
        stats.record_send(2, 1, 1024)
        assert stats.bandwidth_kb_per_minute(30_000.0) == pytest.approx(2.0)

    def test_bandwidth_with_explicit_nodes(self):
        stats = NetworkStats()
        stats.record_send(1, 2, 2048)
        value = stats.bandwidth_kb_per_minute(60_000.0, nodes=[1, 2, 3, 4])
        assert value == pytest.approx(2048 / 1024 / 4)

    def test_bandwidth_invalid_duration(self):
        stats = NetworkStats()
        with pytest.raises(ValueError):
            stats.bandwidth_kb_per_minute(0.0)

    def test_setup_overheads(self):
        stats = NetworkStats()
        stats.record_submission("tx", 10.0)
        stats.record_dissemination_start("tx", 35.0)
        assert stats.setup_overheads() == [25.0]

    def test_setup_overhead_zero_when_same_moment(self):
        stats = NetworkStats()
        stats.record_dissemination_start("tx", 10.0)
        assert stats.setup_overheads() == [0.0]


class TestDropAccounting:
    def test_record_drop_accumulates_bytes(self):
        stats = NetworkStats()
        stats.record_drop(512)
        stats.record_drop()  # legacy no-arg call sites still work
        assert stats.messages_dropped == 2
        assert stats.bytes_dropped == 512

    def test_record_capacity_drop_counts_both_ways(self):
        stats = NetworkStats()
        stats.record_capacity_drop(sender=3, wire_bytes=700)
        stats.record_capacity_drop(sender=3, wire_bytes=300)
        stats.record_capacity_drop(sender=5, wire_bytes=100)
        assert stats.messages_dropped == 3
        assert stats.bytes_dropped == 1100
        assert stats.capacity_drops == 3
        assert stats.capacity_dropped_bytes == 1100
        assert stats.capacity_drops_by_node == {3: 2, 5: 1}

    def test_drop_rate(self):
        stats = NetworkStats()
        assert stats.drop_rate() == 0.0
        for _ in range(4):
            stats.record_send(1, 2, 100)
        stats.record_drop(100)
        assert stats.drop_rate() == pytest.approx(0.25)

    def test_goodput_subtracts_dropped_bytes(self):
        stats = NetworkStats()
        # 2 nodes, 1024 bytes each over 30s, half of node 1's bytes dropped.
        stats.record_send(1, 2, 1024)
        stats.record_send(2, 1, 1024)
        stats.record_capacity_drop(sender=1, wire_bytes=1024)
        assert stats.bandwidth_kb_per_minute(30_000.0) == pytest.approx(2.0)
        assert stats.goodput_kb_per_minute(30_000.0) == pytest.approx(1.0)

    def test_goodput_equals_bandwidth_without_drops(self):
        stats = NetworkStats()
        stats.record_send(1, 2, 4096)
        stats.record_send(2, 1, 4096)
        assert stats.goodput_kb_per_minute(60_000.0) == pytest.approx(
            stats.bandwidth_kb_per_minute(60_000.0)
        )

    def test_goodput_invalid_duration(self):
        stats = NetworkStats()
        with pytest.raises(ValueError):
            stats.goodput_kb_per_minute(0.0)

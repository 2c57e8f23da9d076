"""Unit tests for the open-loop load driver."""

import pytest

from repro.baselines import LZeroSystem
from repro.load.arrival import DeterministicArrivals, PoissonArrivals
from repro.load.capacity import CapacityConfig, CapacityModel
from repro.load.driver import LoadDriver, LoadResult
from repro.net.topology import generate_physical_network
from repro.obs import Observability

NODES = 12


def make_system(obs=None):
    physical = generate_physical_network(NODES, seed=0)
    return LZeroSystem(physical, seed=13, obs=obs)


def make_driver(system, rate_tps=5.0, **kwargs):
    arrivals = DeterministicArrivals(
        rate_tps=rate_tps, origins=system.network.node_ids(), seed=3
    )
    return LoadDriver(system, arrivals, **kwargs)


class TestRun:
    def test_open_loop_injection_counts(self):
        driver = make_driver(make_system(), rate_tps=5.0)
        result = driver.run(2_000.0, drain_ms=1_500.0)
        assert result.injected == 10
        assert result.offered_tps == pytest.approx(5.0)
        assert result.duration_ms == 2_000.0
        assert result.horizon_ms == 3_500.0

    def test_delivers_under_light_load(self):
        driver = make_driver(make_system(), rate_tps=4.0)
        result = driver.run(2_000.0, drain_ms=2_000.0)
        assert result.delivered == result.injected
        assert result.goodput_tps == pytest.approx(result.offered_tps)
        assert result.p50_ms is not None and result.p50_ms > 0
        assert result.p95_ms >= result.p50_ms
        assert result.drop_rate == 0.0
        assert result.capacity_drops == 0

    def test_protocol_label_defaults_to_class_name(self):
        system = make_system()
        assert make_driver(system).protocol == "LZeroSystem"
        assert make_driver(system, protocol="lzero").protocol == "lzero"

    def test_sampler_records_on_cadence(self):
        driver = make_driver(make_system(), rate_tps=5.0)
        driver.run(1_000.0, drain_ms=0.0)
        times = [t for t, _, _ in driver.samples]
        assert times == [250.0, 500.0, 750.0, 1000.0]

    def test_mempool_occupancy_observed(self):
        driver = make_driver(make_system(), rate_tps=10.0)
        result = driver.run(2_000.0, drain_ms=1_000.0)
        assert result.mempool_peak > 0
        assert 0 < result.mempool_mean <= result.mempool_peak

    def test_obs_gauges_populated(self):
        obs = Observability.enabled()
        driver = make_driver(make_system(obs=obs), rate_tps=5.0)
        driver.run(2_000.0)
        snapshot = obs.metrics.snapshot()
        names = {metric["name"] for metric in snapshot["gauges"]}
        assert "load.mempool.occupancy" in names
        assert "load.mempool.peak" in names
        assert "load.queue.backlog_bytes" in names


class TestCapacityIntegration:
    def test_tight_uplinks_saturate(self):
        system = make_system()
        system.network.capacity = CapacityModel(
            CapacityConfig(
                uplink_kb_per_s=4.0, downlink_kb_per_s=16.0, queue_bytes=4_096
            )
        )
        driver = make_driver(system, rate_tps=40.0, protocol="lzero")
        result = driver.run(2_000.0, drain_ms=1_000.0)
        assert result.capacity_drops > 0
        assert result.drop_rate > 0.0
        assert result.max_queue_bytes > 0.0
        assert result.goodput_tps < result.offered_tps
        assert result.goodput_kb_per_min < result.bandwidth_kb_per_min

    def test_queue_backlog_sampled(self):
        system = make_system()
        system.network.capacity = CapacityModel(
            CapacityConfig(
                uplink_kb_per_s=4.0, downlink_kb_per_s=16.0, queue_bytes=65_536
            )
        )
        driver = make_driver(system, rate_tps=40.0)
        driver.run(2_000.0)
        assert any(backlog > 0 for _, _, backlog in driver.samples)


class TestValidation:
    def test_bad_delivery_fraction(self):
        system = make_system()
        with pytest.raises(ValueError):
            make_driver(system, delivery_fraction=0.0)
        with pytest.raises(ValueError):
            make_driver(system, delivery_fraction=1.5)

    def test_bad_durations(self):
        driver = make_driver(make_system())
        with pytest.raises(Exception):
            driver.run(0.0)
        with pytest.raises(ValueError):
            driver.run(1_000.0, drain_ms=-1.0)


class TestResultRoundTrip:
    def test_json_round_trip(self):
        driver = make_driver(make_system(), rate_tps=5.0)
        result = driver.run(1_000.0, drain_ms=1_000.0)
        doc = result.to_json()
        assert LoadResult.from_json(doc) == result

    def test_delivery_ratio(self):
        arrivals = PoissonArrivals(rate_tps=5.0, origins=(1, 2), seed=0)
        empty = LoadResult(
            protocol="x",
            offered_tps=0.0,
            injected=0,
            delivered=0,
            goodput_tps=0.0,
            mean_ms=None,
            p50_ms=None,
            p95_ms=None,
            drop_rate=0.0,
            capacity_drops=0,
            goodput_kb_per_min=0.0,
            bandwidth_kb_per_min=0.0,
            max_queue_bytes=0.0,
            mempool_peak=0,
            mempool_mean=0.0,
            duration_ms=1.0,
            horizon_ms=1.0,
        )
        assert empty.delivery_ratio == 0.0
        assert arrivals.interval_ms == pytest.approx(200.0)

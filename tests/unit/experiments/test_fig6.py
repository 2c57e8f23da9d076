"""Unit tests for the Fig. 6 saturation experiment module."""

import pytest

from repro.experiments import fig6_saturation
from repro.experiments.fig6_saturation import (
    KNEE_GOODPUT_RATIO,
    Fig6Config,
    Fig6Result,
)
from repro.load.driver import LoadResult


def point(protocol: str, offered: float, goodput: float, p95=100.0) -> LoadResult:
    return LoadResult(
        protocol=protocol,
        offered_tps=offered,
        injected=int(offered * 6),
        delivered=int(goodput * 6),
        goodput_tps=goodput,
        mean_ms=50.0,
        p50_ms=40.0,
        p95_ms=p95,
        drop_rate=0.0,
        capacity_drops=0,
        goodput_kb_per_min=goodput * 10,
        bandwidth_kb_per_min=offered * 10,
        max_queue_bytes=0.0,
        mempool_peak=1,
        mempool_mean=0.5,
        duration_ms=6_000.0,
        horizon_ms=8_000.0,
    )


class TestConfig:
    def test_capacity_config_mirrors_fields(self):
        config = Fig6Config(uplink_kb_per_s=10.0, queue_bytes=1_000)
        capacity = config.capacity_config()
        assert capacity.uplink_kb_per_s == 10.0
        assert capacity.queue_bytes == 1_000

    def test_cell_params_grid_shape(self):
        config = Fig6Config(rates_tps=(1.0, 2.0), protocols=("hermes", "lzero"))
        params = fig6_saturation.cell_params(config)
        assert len(params) == 4
        assert {(p["protocol"], p["rate_tps"]) for p in params} == {
            ("hermes", 1.0),
            ("hermes", 2.0),
            ("lzero", 1.0),
            ("lzero", 2.0),
        }
        # Every value a cell consumes is part of its addressable params.
        assert all("uplink_kb_per_s" in p and "seed" in p for p in params)


class TestKneeDetection:
    def test_knee_is_first_saturated_rate(self):
        result = Fig6Result(
            config=Fig6Config(),
            curves={
                "hermes": [
                    point("hermes", 5.0, 5.0),
                    point("hermes", 10.0, 10.0 * KNEE_GOODPUT_RATIO * 0.9),
                    point("hermes", 20.0, 9.0),
                ]
            },
        )
        assert result.knee_tps("hermes") == 10.0

    def test_no_knee_when_goodput_keeps_up(self):
        result = Fig6Result(
            config=Fig6Config(),
            curves={"lzero": [point("lzero", 5.0, 5.0), point("lzero", 10.0, 9.9)]},
        )
        assert result.knee_tps("lzero") is None

    def test_latency_inflation_ratio(self):
        result = Fig6Result(
            config=Fig6Config(),
            curves={
                "hermes": [
                    point("hermes", 5.0, 5.0, p95=100.0),
                    point("hermes", 20.0, 9.0, p95=450.0),
                ]
            },
        )
        assert result.latency_inflation("hermes") == pytest.approx(4.5)

    def test_latency_inflation_needs_two_measured_points(self):
        result = Fig6Result(
            config=Fig6Config(), curves={"hermes": [point("hermes", 5.0, 5.0)]}
        )
        assert result.latency_inflation("hermes") is None


class TestRecordsFold:
    def test_from_records_sorts_by_offered_rate(self):
        config = Fig6Config(protocols=("hermes",))
        results = [point("hermes", 20.0, 9.0).to_json(), point("hermes", 5.0, 5.0).to_json()]
        result = fig6_saturation.fold(config, results)
        offered = [p.offered_tps for p in result.curves["hermes"]]
        assert offered == [5.0, 20.0]

    def test_format_result_mentions_knee(self):
        config = Fig6Config(protocols=("hermes",))
        result = Fig6Result(
            config=config,
            curves={
                "hermes": [
                    point("hermes", 5.0, 5.0, p95=100.0),
                    point("hermes", 20.0, 9.0, p95=450.0),
                ]
            },
        )
        text = fig6_saturation.format_result(result)
        assert "knee: 20.0 tx/s" in text
        assert "4.5x" in text


class TestTinyEndToEnd:
    def test_run_cell_is_json_and_saturates_under_tiny_links(self):
        params = {
            "protocol": "lzero",
            "rate_tps": 30.0,
            "pattern": "deterministic",
            "num_nodes": 16,
            "k": 2,
            "duration_ms": 1_500.0,
            "drain_ms": 500.0,
            "uplink_kb_per_s": 4.0,
            "downlink_kb_per_s": 16.0,
            "queue_bytes": 4_096,
            "seed": 0,
        }
        doc = fig6_saturation.run_cell(params)
        assert doc["protocol"] == "lzero"
        assert doc["injected"] == 45
        assert doc["capacity_drops"] > 0
        assert doc["goodput_tps"] < doc["offered_tps"]
        assert LoadResult.from_json(doc).protocol == "lzero"

"""Unit tests for the Fig. 8 sustained-population-load experiment module."""

import pytest

from repro.experiments import fig8_sustained
from repro.experiments.fig8_sustained import (
    KNEE_GOODPUT_RATIO,
    Fig8Config,
    Fig8Result,
)
from repro.population import PopulationResult


def point(protocol, offered, goodput, base_fee_max=1.0):
    return PopulationResult(
        protocol=protocol,
        offered_tps=offered,
        injected=int(offered * 60),
        delivered=int(goodput * 60),
        goodput_tps=goodput,
        mean_ms=40.0,
        p50_ms=30.0,
        p95_ms=90.0,
        p99_ms=150.0,
        latency_rank_error=0.01,
        evicted=0,
        expired=0,
        rejected=0,
        stats_expired=0,
        base_fee_final=base_fee_max,
        base_fee_max=base_fee_max,
        fee_p50=1.0,
        fee_p95=2.0,
        peak_active_sessions=10,
        mempool_peak=100,
        duration_ms=60_000.0,
        horizon_ms=65_000.0,
        latency_series=[],
        fee_series=[],
        base_fee_series=[],
        eviction_series=[],
    )


class TestConfig:
    def test_derived_configs_mirror_fields(self):
        config = Fig8Config(
            num_clients=1234, mempool_max_size=99, mempool_ttl_ms=5_000.0
        )
        pop = config.population_config(10.0)
        assert pop.num_clients == 1234
        assert pop.offered_tps == pytest.approx(10.0)
        policy = config.mempool_policy()
        assert policy.max_size == 99 and policy.ttl_ms == 5_000.0
        market = config.fee_market()
        assert market.base_fee == config.initial_base_fee

    def test_cell_params_grid_shape(self):
        config = Fig8Config(rates_tps=(2.0, 5.0), protocols=("hermes", "ingest"))
        params = fig8_sustained.cell_params(config)
        assert len(params) == 4
        assert {(p["protocol"], p["rate_tps"]) for p in params} == {
            ("hermes", 2.0),
            ("hermes", 5.0),
            ("ingest", 2.0),
            ("ingest", 5.0),
        }
        assert all("mempool_max_size" in p and "seed" in p for p in params)


class TestKneeAndEscalation:
    def test_knee_is_first_saturated_rate(self):
        result = Fig8Result(
            config=Fig8Config(),
            curves={
                "hermes": [
                    point("hermes", 5.0, 5.0),
                    point("hermes", 10.0, 10.0 * KNEE_GOODPUT_RATIO * 0.9),
                ]
            },
        )
        assert result.knee_tps("hermes") == 10.0
        assert result.knee_tps("unknown") is None

    def test_no_knee_when_goodput_keeps_up(self):
        result = Fig8Result(
            config=Fig8Config(),
            curves={"ingest": [point("ingest", 5.0, 5.0)]},
        )
        assert result.knee_tps("ingest") is None

    def test_fee_escalation_reads_top_rate(self):
        result = Fig8Result(
            config=Fig8Config(initial_base_fee=1.0),
            curves={
                "hermes": [
                    point("hermes", 5.0, 5.0, base_fee_max=1.0),
                    point("hermes", 40.0, 10.0, base_fee_max=3.5),
                ]
            },
        )
        assert result.fee_escalation("hermes") == pytest.approx(3.5)
        assert result.fee_escalation("unknown") is None


class TestRecordsFold:
    def test_fold_sorts_by_offered_rate(self):
        config = Fig8Config(protocols=("ingest",))
        results = [point("ingest", 20.0, 9.0).to_json(), point("ingest", 5.0, 5.0).to_json()]
        result = fig8_sustained.fold(config, results)
        assert [p.offered_tps for p in result.curves["ingest"]] == [5.0, 20.0]

    def test_format_result_mentions_knee_and_fees(self):
        config = Fig8Config(protocols=("hermes",))
        result = Fig8Result(
            config=config,
            curves={
                "hermes": [
                    point("hermes", 5.0, 5.0),
                    point("hermes", 40.0, 10.0, base_fee_max=2.0),
                ]
            },
        )
        text = fig8_sustained.format_result(result)
        assert "knee: 40.0 tx/s" in text
        assert "escalation" in text


class TestCellRoundTrip:
    def test_config_from_params_round_trips(self):
        config = Fig8Config(num_nodes=16, service_tps=10.0, seed=3)
        params = fig8_sustained.cell_params(config)[0]
        rebuilt = fig8_sustained._config_from_params(params)
        assert rebuilt.num_nodes == 16
        assert rebuilt.service_tps == 10.0
        assert rebuilt.seed == 3

    def test_run_cell_ingest_is_json(self):
        params = {
            "protocol": "ingest",
            "rate_tps": 40.0,
            "num_clients": 10_000,
            "duration_ms": 10_000.0,
            "drain_ms": 1_000.0,
            "service_tps": 10.0,
            "mempool_max_size": 100,
            "target_occupancy": 50,
            "seed": 0,
        }
        doc = fig8_sustained.run_cell(params)
        assert doc["protocol"] == "ingest"
        assert doc["injected"] > 0
        assert doc["mempool_peak"] <= 100
        rebuilt = PopulationResult.from_json(doc)
        assert rebuilt.goodput_tps < rebuilt.offered_tps  # overloaded server

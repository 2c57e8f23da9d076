"""Integration: population subsystem acceptance (ISSUE tentpole criteria).

Pinned here:

* **Streaming agrees with exact on a live run** — the same seed driven
  through :class:`LoadDriver` with exact stats and with
  :class:`StreamingNetworkStats` delivers the same transaction count, and the
  streaming percentiles land within the sketch's documented rank error of
  the exact ones.  (Recording is observation-only, so the simulated
  trajectory is shared; only the aggregation differs.)
* **Sustained end-to-end** — a real protocol system under a
  :class:`PopulationDriver` with a fee market and bounded mempools delivers
  transactions, prices them, and keeps every pool at or under the cap.
* **Determinism and resume** — a ``fig8.point`` cell replays byte-identically
  and a finished fig8 sweep executes zero runs.
"""

import hashlib

import pytest

from repro.baselines import LZeroSystem
from repro.experiments import fig8_sustained
from repro.experiments.fig8_sustained import Fig8Config
from repro.load.arrival import DeterministicArrivals
from repro.load.driver import LoadDriver
from repro.mempool import MempoolPolicy
from repro.mempool.transaction import reset_tx_ids
from repro.net.events import reset_message_ids
from repro.net.stats import percentile
from repro.net.topology import generate_physical_network
from repro.population import (
    ClientPopulation,
    FeeMarket,
    FeeMarketConfig,
    PopulationConfig,
    PopulationDriver,
)
from repro.runner.spec import canonical_json

NODES = 12


def make_system():
    reset_tx_ids()
    reset_message_ids()
    physical = generate_physical_network(NODES, seed=0)
    return LZeroSystem(physical, seed=13)


def run_load(streaming: bool):
    system = make_system()
    arrivals = DeterministicArrivals(
        rate_tps=8.0, origins=system.network.node_ids(), seed=3
    )
    driver = LoadDriver(system, arrivals, streaming=streaming)
    result = driver.run(4_000.0, drain_ms=2_000.0)
    return system, result


class TestStreamingAgreesWithExact:
    @pytest.fixture(scope="class")
    def pair(self):
        exact_system, exact = run_load(streaming=False)
        streaming_system, streamed = run_load(streaming=True)
        return exact_system, exact, streaming_system, streamed

    def test_same_trajectory_same_delivered_count(self, pair):
        _, exact, _, streamed = pair
        assert exact.injected == streamed.injected
        assert exact.delivered == streamed.delivered
        assert exact.delivered > 0

    def test_percentiles_within_documented_rank_error(self, pair):
        exact_system, exact, streaming_system, streamed = pair
        # Rebuild the exact latency population the summary was computed from.
        stats = exact_system.stats
        node_count = len(exact_system.nodes)
        population = []
        for item in stats.send_times:
            if len(stats.deliveries.get(item, {})) >= 0.99 * node_count:
                population.extend(stats.delivery_latencies(item))
        population.sort()
        sketch = streaming_system.stats.latency_sketch
        assert sketch.count == len(population)
        n = len(population)
        tolerance_ranks = sketch.rank_error() * n + 1
        for pct in (50, 95):
            estimate = sketch.percentile(pct)
            target_rank = (pct / 100.0) * (n - 1)
            # Where the estimate actually sits in the exact population.
            lo = sum(1 for v in population if v < estimate)
            hi = sum(1 for v in population if v <= estimate)
            distance = max(0.0, lo - target_rank - 1, target_rank - hi)
            assert distance <= tolerance_ranks

    def test_summary_statistics_close(self, pair):
        _, exact, _, streamed = pair
        assert streamed.mean_ms == pytest.approx(exact.mean_ms)
        assert streamed.p50_ms == pytest.approx(exact.p50_ms, rel=0.05)
        assert streamed.p95_ms == pytest.approx(exact.p95_ms, rel=0.05)

    def test_exact_percentile_reference(self, pair):
        exact_system, exact, _, _ = pair
        stats = exact_system.stats
        latencies = sorted(stats.all_delivery_latencies())
        assert exact.p50_ms == pytest.approx(
            percentile(
                [
                    lat
                    for item in stats.send_times
                    if len(stats.deliveries.get(item, {}))
                    >= 0.99 * len(exact_system.nodes)
                    for lat in stats.delivery_latencies(item)
                ],
                50,
            )
        )
        assert latencies  # the exact path retained per-tx state


class TestPopulationDriverEndToEnd:
    def test_sustained_run_with_market_and_caps(self):
        system = make_system()
        population = ClientPopulation(
            PopulationConfig.for_offered_rate(
                15.0,
                num_clients=100_000,
                num_nodes=NODES,
                seed=5,
                session_duration_ms=3_000.0,
            )
        )
        driver = PopulationDriver(
            system,
            population,
            protocol="lzero",
            fee_market=FeeMarket(FeeMarketConfig(), seed=5),
            policy=MempoolPolicy(max_size=300, ttl_ms=20_000.0),
            target_occupancy=100,
        )
        result = driver.run(8_000.0, drain_ms=2_000.0)
        assert result.injected > 0
        assert result.delivered > 0
        assert result.peak_active_sessions > 0
        assert result.mempool_peak <= 300
        for node in system.nodes.values():
            assert len(node.mempool) <= 300
        assert result.fee_p50 is not None and result.fee_p50 > 0
        assert result.base_fee_series  # the controller ticked
        assert result.latency_rank_error < 0.05

    def test_fee_market_prices_submissions(self):
        system = make_system()
        population = ClientPopulation(
            PopulationConfig.for_offered_rate(
                10.0, num_clients=10_000, num_nodes=NODES, seed=2
            )
        )
        driver = PopulationDriver(
            system,
            population,
            fee_market=FeeMarket(FeeMarketConfig(bid_sigma=0.0), seed=2),
            policy=MempoolPolicy(),
        )
        driver.run(4_000.0, drain_ms=1_000.0)
        proposer = driver._proposer_mempool()
        fees = [tx.fee for tx in proposer.in_arrival_order()]
        assert fees and all(fee > 0 for fee in fees)


class TestFig8Determinism:
    PARAMS = {
        "protocol": "ingest",
        "rate_tps": 30.0,
        "num_clients": 20_000,
        "duration_ms": 20_000.0,
        "drain_ms": 2_000.0,
        "service_tps": 10.0,
        "mempool_max_size": 200,
        "target_occupancy": 100,
        "seed": 0,
    }

    def test_cell_replays_byte_identically(self):
        def run_once() -> str:
            reset_tx_ids()
            reset_message_ids()
            doc = fig8_sustained.run_cell(dict(self.PARAMS))
            return hashlib.sha256(canonical_json(doc).encode()).hexdigest()

        assert run_once() == run_once()

    def test_finished_sweep_executes_zero_runs(self, tmp_path):
        config = Fig8Config(
            protocols=("ingest",),
            rates_tps=(30.0,),
            num_clients=20_000,
            duration_ms=10_000.0,
            drain_ms=1_000.0,
            service_tps=10.0,
            mempool_max_size=200,
            target_occupancy=100,
        )
        store = str(tmp_path / "fig8")
        first_result, first = fig8_sustained.FIGURE.run(config, results_dir=store)
        assert first.executed == 1 and first.skipped == 0
        second_result, second = fig8_sustained.FIGURE.run(config, results_dir=store)
        assert second.executed == 0 and second.skipped == 1
        assert first_result.curves == second_result.curves
        assert "ingest" in first_result.curves

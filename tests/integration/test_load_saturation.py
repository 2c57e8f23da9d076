"""Integration: load subsystem acceptance (ISSUE tentpole criteria).

Four guarantees pinned here:

* **Byte-identity with capacity disabled** — `network.capacity` defaults to
  ``None``, and with it unset every existing figure cell must hash exactly
  as it did before the load subsystem existed.  The golden hashes below
  were computed on the pre-capacity tree; if one of these fails, the
  default-off contract broke.
* **Saturation** — with the capacity model enabled, sweeping offered load
  produces a goodput plateau and p95 inflation past a measurable knee for
  hermes and lzero.
* **Determinism** — a saturation point replays byte-identically from its
  parameters.
* **Resume** — re-invoking a finished fig6 sweep executes zero runs.
"""

import hashlib

import pytest

from repro.experiments import fig6_saturation
from repro.experiments.fig6_saturation import Fig6Config
from repro.mempool.transaction import reset_tx_ids
from repro.net.events import reset_message_ids
from repro.runner.spec import canonical_json

# sha256(canonical_json(run_cell(params))) computed before the capacity hook
# was added to Network.send — the default-off byte-identity contract.
GOLDEN_CELLS = {
    "fig3a": (
        {
            "protocol": "hermes",
            "num_nodes": 40,
            "k": 3,
            "transactions": 3,
            "horizon_ms": 5000.0,
            "seed": 0,
        },
        "5d87a1d5908ac50039e85522095f7c8cb414040f3641582a1282fd3a21f1ef77",
    ),
    "fig3b": (
        {
            "protocol": "lzero",
            "num_nodes": 40,
            "k": 3,
            "duration_ms": 12000.0,
            "tx_interval_ms": 2000.0,
            "seed": 0,
        },
        "0ea33c8dafe34d1513b0c4930cab90037552105b3d86f43fcd1c034667a19ba2",
    ),
    "fig5a": (
        {
            "protocol": "mercury",
            "num_nodes": 40,
            "k": 3,
            "trials": 2,
            "trial": 0,
            "fraction": 0.2,
            "horizon_ms": 3000.0,
            "seed": 0,
        },
        # Re-pinned when fig5a records gained the ``victim_censored`` field;
        # stripping that one key reproduces the pre-censorship hash
        # 805b9ba8df0b45cb7281848fc48b6feec15922217bf67adbd7938d420d4bb845,
        # so the simulation itself is untouched.
        "b6f86db61164a791af4377871a50e762c59a7a23c7e0c50d4f5726e2357a1054",
    ),
    "fig5b": (
        {
            "protocol": "narwhal",
            "num_nodes": 40,
            "k": 3,
            "trials": 2,
            "trial": 1,
            "fraction": 0.2,
            "horizon_ms": 2000.0,
            "seed": 0,
        },
        "6e9b7af3b5f387b222fc67e25404f340c4dffa16d35c552035f298325d1e7fe0",
    ),
}


def _cell_hash(figure: str, params: dict) -> str:
    from repro.experiments import (
        fig3a_latency,
        fig3b_bandwidth,
        fig5a_frontrunning,
        fig5b_robustness,
    )

    modules = {
        "fig3a": fig3a_latency,
        "fig3b": fig3b_bandwidth,
        "fig5a": fig5a_frontrunning,
        "fig5b": fig5b_robustness,
    }
    reset_tx_ids()
    reset_message_ids()
    result = modules[figure].run_cell(params)
    return hashlib.sha256(canonical_json(result).encode()).hexdigest()


class TestCapacityOffByteIdentity:
    @pytest.mark.parametrize("figure", sorted(GOLDEN_CELLS))
    def test_figure_cell_matches_pre_capacity_golden_hash(self, figure):
        params, expected = GOLDEN_CELLS[figure]
        assert _cell_hash(figure, dict(params)) == expected


SWEEP = Fig6Config(
    num_nodes=24,
    k=3,
    rates_tps=(3.0, 12.0, 48.0),
    duration_ms=3_000.0,
    drain_ms=1_500.0,
    protocols=("hermes", "lzero"),
    seed=0,
)


@pytest.fixture(scope="module")
def sweep_result():
    return fig6_saturation.FIGURE.run(SWEEP)[0]


class TestSaturation:
    @pytest.mark.parametrize("protocol", SWEEP.protocols)
    def test_goodput_plateaus_past_a_knee(self, sweep_result, protocol):
        curve = sweep_result.curves[protocol]
        assert len(curve) == len(SWEEP.rates_tps)
        # Light load keeps up; the heaviest rate does not.
        assert curve[0].goodput_tps == pytest.approx(curve[0].offered_tps)
        assert curve[-1].goodput_tps < 0.85 * curve[-1].offered_tps
        knee = sweep_result.knee_tps(protocol)
        assert knee is not None
        assert knee <= curve[-1].offered_tps

    @pytest.mark.parametrize("protocol", SWEEP.protocols)
    def test_p95_inflates_past_the_knee(self, sweep_result, protocol):
        inflation = sweep_result.latency_inflation(protocol)
        assert inflation is not None
        assert inflation > 1.2

    def test_overload_is_attributed_to_capacity_drops(self, sweep_result):
        heaviest = sweep_result.curves["lzero"][-1]
        assert heaviest.capacity_drops > 0
        assert heaviest.drop_rate > 0.0
        assert heaviest.max_queue_bytes > 0.0


class TestDeterminism:
    def test_saturation_point_replays_byte_identically(self):
        params = fig6_saturation.cell_params(SWEEP)[-1]

        def run_once() -> str:
            reset_tx_ids()
            reset_message_ids()
            result = fig6_saturation.run_cell(params)
            return hashlib.sha256(canonical_json(result).encode()).hexdigest()

        assert run_once() == run_once()


class TestResume:
    def test_finished_sweep_executes_zero_runs(self, tmp_path):
        config = Fig6Config(
            num_nodes=24,
            k=3,
            rates_tps=(4.0,),
            duration_ms=1_500.0,
            drain_ms=500.0,
            protocols=("lzero",),
            seed=0,
        )
        store = str(tmp_path / "fig6")
        first_result, first = fig6_saturation.FIGURE.run(config, results_dir=store)
        assert first.executed == 1 and first.skipped == 0
        second_result, second = fig6_saturation.FIGURE.run(config, results_dir=store)
        assert second.executed == 0 and second.skipped == 1
        assert first_result.curves == second_result.curves

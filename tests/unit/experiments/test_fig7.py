"""Structural tests for the fig7 adversary grid (cells, folding, formatting)."""

import pytest

from repro.experiments import fig7_adversary as fig7


def small_config(**overrides):
    defaults = dict(
        num_nodes=40,
        protocols=("hermes", "mercury"),
        strategies=("sandwich",),
        fractions=(0.10, 0.33),
        trials=2,
    )
    defaults.update(overrides)
    return fig7.Fig7Config(**defaults)


def _result(protocol, strategy, fraction, trial, won, **extra):
    result = {
        "protocol": protocol,
        "strategy": strategy,
        "fraction": fraction,
        "trial": trial,
        "attacker_won": won,
        "victim_censored": 0,
        "gross": 100.0 * won,
        "net": 98.0 * won - 2.0 * (1 - won),
        "gamma": 0.8,
        "inversion_rate": 0.1,
        "coverage": 1.0,
        "violations": 0,
    }
    result.update(extra)
    return result


class TestGrid:
    def test_cell_params_cover_the_full_grid(self):
        config = small_config()
        params = fig7.cell_params(config)
        assert len(params) == 2 * 1 * 2 * 2  # protocols × strategies × fractions × trials
        keys = {(p["protocol"], p["strategy"], p["fraction"], p["trial"]) for p in params}
        assert len(keys) == len(params)
        assert all(p["trials"] == config.trials for p in params)

    def test_trial_seeds_differ_across_strategies(self):
        seeds = {
            fig7._trial_seed(strategy, 0.10, 0)
            for strategy in ("sandwich", "priority-race", "censor-reorder")
        }
        assert len(seeds) == 3

    def test_trial_pairs_are_deterministic(self):
        config = small_config()
        env = fig7._environment(config)
        assert fig7._trial_pairs(config, env) == fig7._trial_pairs(config, env)

    @pytest.mark.parametrize("delay, expected", [(-1.0, None), (250.0, 250.0)])
    def test_a_negative_proposal_delay_means_no_cutoff(self, delay, expected, monkeypatch):
        class Stop(Exception):
            pass

        seen = {}

        def fake_trial(*args, **kwargs):
            seen.update(kwargs)
            raise Stop  # before the trial's simulation

        monkeypatch.setattr(fig7, "run_adversary_trial", fake_trial)
        with pytest.raises(Stop):
            fig7.run_cell(fig7.cell_params(small_config(proposal_delay_ms=delay))[0])
        assert seen["proposal_delay_ms"] == expected


class TestFolding:
    def test_from_records_aggregates_per_cell(self):
        config = small_config()
        results = [
            _result("hermes", "sandwich", 0.10, 0, won=0),
            _result("hermes", "sandwich", 0.10, 1, won=1),
            _result("mercury", "sandwich", 0.10, 0, won=1, violations=4),
            _result("mercury", "sandwich", 0.10, 1, won=1),
        ]
        result = fig7.fold(config, results)
        hermes = result.cell("hermes", "sandwich", 0.10)
        assert hermes.success_rate == 0.5
        assert hermes.trials == 2
        assert hermes.mean_gross == 50.0
        mercury = result.cell("mercury", "sandwich", 0.10)
        assert mercury.success_rate == 1.0
        assert mercury.violations == 4

    def test_protocol_aggregates_and_ordering(self):
        config = small_config()
        results = [
            _result("hermes", "sandwich", f, t, won=0)
            for f in config.fractions
            for t in range(2)
        ] + [
            _result("mercury", "sandwich", f, t, won=1)
            for f in config.fractions
            for t in range(2)
        ]
        result = fig7.fold(config, results)
        assert result.protocol_success_rate("hermes") == 0.0
        assert result.protocol_success_rate("mercury") == 1.0
        assert result.protocol_extracted_value("mercury") == 100.0
        assert result.resistance_ordering() == ["hermes", "mercury"]


class TestFormatting:
    def test_format_result_rows_and_missing_cells(self):
        config = small_config()
        results = [
            _result("hermes", "sandwich", 0.10, 0, won=0),
            _result("hermes", "sandwich", 0.33, 0, won=1),
        ]
        table = fig7.format_result(fig7.fold(config, results))
        assert "Fig. 7" in table
        assert "hermes" in table
        # Mercury produced no results, so its row is dropped entirely.
        assert "mercury" not in table
        assert "10% mal" in table and "33% mal" in table

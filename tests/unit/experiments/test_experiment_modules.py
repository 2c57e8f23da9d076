"""Unit tests for the experiment harness and figure modules (tiny configs)."""

import pytest

from repro.experiments import build_environment, protocol_factories
from repro.experiments import (
    fig2_overlays,
    fig3a_latency,
    fig3b_bandwidth,
    fig4_roles,
    fig5a_frontrunning,
    fig5b_robustness,
    table1,
)


@pytest.fixture(scope="module")
def env():
    return build_environment(num_nodes=40, f=1, k=3, seed=1)


class TestHarness:
    def test_environment_cached(self, env):
        again = build_environment(num_nodes=40, f=1, k=3, seed=1)
        assert again is env

    def test_environment_contents(self, env):
        assert env.physical.num_nodes == 40
        assert len(env.overlays) == 3
        assert env.build_seconds > 0

    def test_factories_cover_all_protocols(self, env):
        factories = protocol_factories(env)
        for name in ("hermes", "lzero", "narwhal", "mercury", "gossip", "simple-tree"):
            system = factories[name]()
            assert system.physical is env.physical

    def test_hermes_config_overrides(self, env):
        config = env.hermes_config(gossip_fallback_enabled=False)
        assert config.num_overlays == 3
        assert not config.gossip_fallback_enabled

    def test_min_degree_is_part_of_the_cache_key(self):
        # Regression: min_degree changes the generated topology, so two calls
        # differing only in min_degree must not alias to one cached entry.
        sparse = build_environment(num_nodes=24, f=1, k=2, seed=5, min_degree=2)
        dense = build_environment(num_nodes=24, f=1, k=2, seed=5, min_degree=6)
        assert sparse is not dense
        degree_of = lambda env: min(
            len(env.physical.neighbors(n)) for n in env.physical.nodes()
        )
        assert degree_of(sparse) < degree_of(dense)
        # Same min_degree still hits the cache.
        assert build_environment(num_nodes=24, f=1, k=2, seed=5, min_degree=2) is sparse

    def test_clear_environment_cache(self):
        from repro.experiments.harness import clear_environment_cache

        first = build_environment(num_nodes=24, f=1, k=2, seed=6)
        assert build_environment(num_nodes=24, f=1, k=2, seed=6) is first
        clear_environment_cache()
        rebuilt = build_environment(num_nodes=24, f=1, k=2, seed=6)
        assert rebuilt is not first
        assert rebuilt.physical.num_nodes == first.physical.num_nodes


class TestFig2:
    def test_rows_and_shape(self):
        result = fig2_overlays.run(fig2_overlays.Fig2Config(num_nodes=40, seed=1))
        names = {row.structure for row in result.rows}
        assert names == {"robust-tree", "chordal-ring", "hypercube", "random"}
        tree = result.row("robust-tree")
        others = [row for row in result.rows if row.structure != "robust-tree"]
        # The paper's headline: robust trees trade load balance for latency.
        assert tree.avg_latency_ms <= min(o.avg_latency_ms for o in others)
        assert tree.load_stddev >= max(o.load_stddev for o in others)

    def test_format(self):
        result = fig2_overlays.run(fig2_overlays.Fig2Config(num_nodes=30, seed=1))
        text = fig2_overlays.format_result(result)
        assert "robust-tree" in text and "Fig. 2" in text


class TestFig3a:
    def test_runs_and_orders(self):
        result, _ = fig3a_latency.FIGURE.run(
            fig3a_latency.Fig3aConfig(
                num_nodes=40, k=3, transactions=3, horizon_ms=6_000, seed=1
            )
        )
        assert set(result.summaries) == {"hermes", "lzero", "narwhal", "mercury"}
        assert result.setup_overhead_ms["hermes"] > 0
        assert result.setup_overhead_ms["mercury"] == 0
        text = fig3a_latency.format_result(result)
        assert "Fig. 3a" in text


class TestFig3aSweep:
    def test_figure_run_serial_and_resume(self, tmp_path):
        config = fig3a_latency.Fig3aConfig(
            num_nodes=40, f=1, k=3, transactions=3, horizon_ms=6_000, seed=1
        )
        result, report = fig3a_latency.FIGURE.run(
            config, jobs=1, results_dir=str(tmp_path)
        )
        assert report.executed == 4 and report.failed == 0
        assert set(result.summaries) == {"hermes", "lzero", "narwhal", "mercury"}
        assert all(s.count > 0 for s in result.summaries.values())

        again, again_report = fig3a_latency.FIGURE.run(
            config, jobs=1, results_dir=str(tmp_path)
        )
        assert again_report.executed == 0 and again_report.skipped == 4
        assert again.summaries == result.summaries
        assert again.setup_overhead_ms == result.setup_overhead_ms


FIG3B = fig3b_bandwidth.Fig3bConfig(
    num_nodes=40, k=3, duration_ms=10_000, tx_interval_ms=2_000, seed=1
)


class TestFig3b:
    def test_bandwidth_positive(self):
        result, _ = fig3b_bandwidth.FIGURE.run(FIG3B)
        assert all(v > 0 for v in result.kb_per_minute.values())
        assert result.hermes_with_per_tx_encoding > result.kb_per_minute["hermes"]
        assert "Fig. 3b" in fig3b_bandwidth.format_result(result)

    def test_lzero_most_frugal(self):
        result, _ = fig3b_bandwidth.FIGURE.run(FIG3B)
        assert result.ordering()[0] == "lzero"


class TestFig4:
    def test_entry_accounting(self, env):
        result = fig4_roles.run(fig4_roles.Fig4Config(num_nodes=40, k=3), env=env)
        assert result.entry_assignments == 3 * 2  # k * (f+1)
        assert result.rank_histogram[1] == 6
        assert sum(result.rank_histogram.values()) == 3 * 40

    def test_roles_rotate(self, env):
        result = fig4_roles.run(fig4_roles.Fig4Config(num_nodes=40, k=3), env=env)
        assert result.max_entry_repeats() <= 2
        assert result.fairness_coefficient() < 0.5
        assert "Fig. 4" in fig4_roles.format_result(result)


class TestFig5a:
    def test_tiny_sweep(self):
        config = fig5a_frontrunning.Fig5aConfig(
            num_nodes=40, k=3, fractions=(0.2,), trials=2, horizon_ms=2_500, seed=1
        )
        result, _ = fig5a_frontrunning.FIGURE.run(config)
        for name, by_fraction in result.success_rates.items():
            assert 0.0 <= by_fraction[0.2] <= 1.0
        assert "Fig. 5a" in fig5a_frontrunning.format_result(result)


class TestFig5b:
    def test_tiny_sweep(self):
        config = fig5b_robustness.Fig5bConfig(
            num_nodes=40, k=3, fractions=(0.2,), trials=2, horizon_ms=1_500, seed=1
        )
        result, _ = fig5b_robustness.FIGURE.run(config)
        for name, by_fraction in result.coverage.items():
            assert 0.0 < by_fraction[0.2] <= 1.0
        assert "Fig. 5b" in fig5b_robustness.format_result(result)


class TestTable1:
    def test_rows_present(self):
        config = table1.Table1Config(num_nodes=40, k=2, transactions=3)
        result = table1.run(config)
        approaches = {row.approach for row in result.rows}
        assert approaches == {"gossip", "reliable-broadcast", "simple-tree", "hermes"}
        text = table1.format_result(result)
        assert "Table I" in text

    def test_structural_properties(self):
        config = table1.Table1Config(num_nodes=40, k=2, transactions=3)
        result = table1.run(config)
        assert result.row("hermes").accountable
        assert not result.row("gossip").accountable
        # Simple tree has the worst load imbalance of the four.
        tree_cv = result.row("simple-tree").load_cv
        assert tree_cv >= max(
            result.row(a).load_cv for a in ("gossip", "hermes", "reliable-broadcast")
        )

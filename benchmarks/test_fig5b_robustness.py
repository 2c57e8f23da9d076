"""Benchmark: regenerate Fig. 5b (delivery probability vs Byzantine fraction).

Paper (10% → 33%): HERMES 99.9% → 95%, L∅ 97.5% → 80%, Narwhal 95% → 79%,
Mercury 89% → 55%.  The shape to reproduce: HERMES the most robust at every
fraction, Mercury the least (cluster-leader funneling), L∅/Narwhal between.
"""

import pytest

from conftest import ATTACK_N, report

from repro.experiments import fig5b_robustness


@pytest.mark.usefixtures("env_attack")  # the memoized environment, built untimed
def test_fig5b_robustness(benchmark):
    config = fig5b_robustness.Fig5bConfig(
        num_nodes=ATTACK_N, fractions=(0.10, 0.20, 0.33), trials=10
    )
    result, _ = benchmark.pedantic(
        fig5b_robustness.FIGURE.run, args=(config,), rounds=1, iterations=1
    )
    report("fig5b_robustness", fig5b_robustness.format_result(result))

    coverage = result.coverage
    for fraction in config.fractions:
        # HERMES (robust overlays + gossip fallback) tops every column.
        assert coverage["hermes"][fraction] == max(
            coverage[name][fraction] for name in coverage
        )
        # Mercury's leader funneling makes it the most fragile.
        assert coverage["mercury"][fraction] == min(
            coverage[name][fraction] for name in coverage
        )
    assert coverage["hermes"][0.33] >= 0.95
    assert coverage["mercury"][0.33] <= 0.80

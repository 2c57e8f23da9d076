"""Benchmark: regenerate Fig. 5a (front-running success vs malicious fraction).

Paper (10% → 33% malicious): HERMES 2% → 5.9%, L∅ 5% → 19%,
Narwhal 10% → 51%, Mercury 25% → 70%.  The shape to reproduce: HERMES lowest
and near-flat, Mercury highest and steeply rising, L∅/Narwhal in between.
"""

import pytest

from conftest import ATTACK_N, report

from repro.experiments import fig5a_frontrunning


@pytest.mark.usefixtures("env_attack")  # the memoized environment, built untimed
def test_fig5a_front_running(benchmark):
    config = fig5a_frontrunning.Fig5aConfig(
        num_nodes=ATTACK_N, fractions=(0.10, 0.20, 0.33), trials=20
    )
    result, _ = benchmark.pedantic(
        fig5a_frontrunning.FIGURE.run, args=(config,), rounds=1, iterations=1
    )
    report("fig5a_frontrunning", fig5a_frontrunning.format_result(result))

    rates = result.success_rates
    # HERMES is the most front-running-resistant at every fraction (allowing
    # one-trial noise against L∅, which the paper also places within a few
    # percent of HERMES at low fractions).
    for fraction in config.fractions:
        floor = min(rates[name][fraction] for name in rates)
        assert rates["hermes"][fraction] <= floor + 0.05
        assert rates["hermes"][fraction] <= 0.10
    # Mercury is the most vulnerable at the adversarial extreme.
    assert rates["mercury"][0.33] == max(rates[name][0.33] for name in rates)
    assert rates["mercury"][0.33] >= 0.40
    # Mercury's success grows with the malicious fraction (steep curve).
    assert rates["mercury"][0.33] >= rates["mercury"][0.10]
    # The unaccountable protocols are strictly worse than HERMES at 33%.
    assert rates["narwhal"][0.33] > rates["hermes"][0.33]
    assert rates["lzero"][0.33] > rates["hermes"][0.33]

"""Integration: a figure reads the same numbers however it is run.

``FIGURE.run`` is the only way a figure is computed, and its result must be
a pure function of the config: equal to the fold over the same cells run in
reversed order, equal after the process has created unrelated transactions
(the global id counters feed the TRS digest, so a cell that inherited them
would draw different overlays), and equal at ``jobs=2``.

The serial ``run()`` loops these replaced let the id counters run on from
one cell to the next and failed this: Fig. 6 (N = 24, k = 3, rates 3 and
12 tx/s) read HERMES goodput 8.50 tx/s, p50 247 ms at the 12 tx/s point
where the cells alone read 10.50 tx/s, p50 29.6 ms; Fig. 7
(``test_fig7_acceptance``'s N = 60 grid) read HERMES under censor-reorder
at 33 % as 0/4 attacker wins, gross 0.0, mean inversion rate 0.102 where
the cells read 1/4, 12.5 and 0.106; Fig. 9's k = 2 HERMES goodput and every
fairness cell's ``inversion_mean`` moved.  Figs. 3a and 3b agreed only in a
fresh process and failed the unrelated-transactions check.
"""

import pytest

from repro.experiments import (
    chaos_campaign,
    fig2_overlays,
    fig3a_latency,
    fig3b_bandwidth,
    fig4_roles,
    fig5a_frontrunning,
    fig5b_robustness,
    fig6_saturation,
    fig7_adversary,
    fig8_sustained,
    fig9_sharding,
    shard_drill,
    table1,
)
from repro.mempool.transaction import Transaction
from repro.runner import RunSpec, run_sweep

SMOKE = [
    (table1, table1.Table1Config(num_nodes=20, k=2, transactions=2, horizon_ms=3_000.0)),
    (fig2_overlays, fig2_overlays.Fig2Config(num_nodes=16)),
    (fig4_roles, fig4_roles.Fig4Config(num_nodes=16, k=3)),
    (fig3a_latency, fig3a_latency.Fig3aConfig(
        num_nodes=16, k=3, transactions=2, horizon_ms=4_000.0)),
    (fig3b_bandwidth, fig3b_bandwidth.Fig3bConfig(num_nodes=16, k=3, duration_ms=6_000.0)),
    (fig5a_frontrunning, fig5a_frontrunning.Fig5aConfig(
        num_nodes=20, k=3, fractions=(0.2,), trials=2, horizon_ms=2_500.0)),
    (fig5b_robustness, fig5b_robustness.Fig5bConfig(
        num_nodes=20, k=3, fractions=(0.2,), trials=2, horizon_ms=1_500.0)),
    (fig6_saturation, fig6_saturation.Fig6Config(
        num_nodes=24, k=3, rates_tps=(3.0, 12.0), duration_ms=2_000.0,
        drain_ms=1_000.0, protocols=("hermes",))),
    (fig7_adversary, fig7_adversary.Fig7Config(
        num_nodes=30, k=3, protocols=("hermes", "lzero"),
        strategies=("censor-reorder",), fractions=(0.33,), trials=2)),
    (fig8_sustained, fig8_sustained.Fig8Config(
        num_nodes=12, rates_tps=(4.0,), protocols=("lzero", "ingest"),
        duration_ms=2_000.0, drain_ms=1_000.0, num_clients=10_000)),
    (fig9_sharding, fig9_sharding.Fig9Config(
        shard_counts=(1, 2), total_nodes=16, strategies=("none", "sandwich"),
        fractions=(0.2,), duration_ms=1_500.0, drain_ms=1_000.0, trials=1,
        background_txs=6)),
    (chaos_campaign, chaos_campaign.ChaosConfig(num_nodes=24, k=3)),
    (shard_drill, shard_drill.DrillConfig(num_shards=2, shard_size=12, k=3)),
]


@pytest.mark.parametrize(
    "module, config", SMOKE, ids=[module.FIGURE.name for module, _ in SMOKE]
)
def test_a_figure_reads_the_same_numbers_however_it_is_run(module, config):
    figure = module.FIGURE
    result, _ = figure.run(config)

    specs = [RunSpec(task=figure.task, params=params) for params in figure.cells(config)]
    backwards = run_sweep(specs[::-1]).results()[::-1]
    assert figure.fold(config, backwards) == result

    for _ in range(50):
        Transaction.create(origin=0, created_at=0.0)
    assert figure.run(config)[0] == result

    assert figure.run(config, jobs=2)[0] == result

"""Benchmark: regenerate Fig. 3b (bandwidth overhead, N = 200).

Paper: L∅ 50 < HERMES 192 (≈162 amortized) < Mercury 322 < Narwhal 730
KB/min.  The shape to reproduce: L∅ cheapest, HERMES second, Narwhal the most
expensive by a clear factor.
"""

import pytest

from conftest import MAIN_N, report

from repro.experiments import fig3b_bandwidth


@pytest.mark.usefixtures("env_main")  # the memoized environment, built untimed
def test_fig3b_bandwidth(benchmark):
    config = fig3b_bandwidth.Fig3bConfig(
        num_nodes=MAIN_N, duration_ms=60_000.0, tx_interval_ms=2_000.0
    )
    result, _ = benchmark.pedantic(
        fig3b_bandwidth.FIGURE.run, args=(config,), rounds=1, iterations=1
    )
    report("fig3b_bandwidth", fig3b_bandwidth.format_result(result))

    kb = result.kb_per_minute
    # Paper's ordering.
    assert kb["lzero"] == min(kb.values())
    assert kb["narwhal"] == max(kb.values())
    assert kb["lzero"] < kb["hermes"] < kb["narwhal"]
    # The unamortized (per-tx tree re-encoding) variant costs strictly more.
    assert result.hermes_with_per_tx_encoding > kb["hermes"]

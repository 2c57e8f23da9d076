"""Benchmark: regenerate Fig. 3a (dissemination latency per protocol).

Paper (N = 10,000): Mercury 77.10 < HERMES 83.22 < Narwhal 106.61 < L∅ 172.02
(ms), with L∅ showing the widest 5th–95th percentile spread.  The shape to
reproduce is the ordering and the spread ranking; see EXPERIMENTS.md for the
absolute-number discussion.
"""

import pytest

from conftest import MAIN_N, report

from repro.experiments import fig3a_latency


@pytest.mark.usefixtures("env_main")  # the memoized environment, built untimed
def test_fig3a_latency(benchmark):
    config = fig3a_latency.Fig3aConfig(num_nodes=MAIN_N, transactions=10)
    result, _ = benchmark.pedantic(
        fig3a_latency.FIGURE.run, args=(config,), rounds=1, iterations=1
    )
    report("fig3a_latency", fig3a_latency.format_result(result))

    # The paper's ordering, fastest to slowest.
    assert result.ordering() == ["mercury", "hermes", "narwhal", "lzero"]
    # L∅'s gossip gives it the widest latency spread.
    spreads = {name: s.spread for name, s in result.summaries.items()}
    assert spreads["lzero"] == max(spreads.values())
    # The L∅/HERMES ratio the paper reports is ~2.07; ours must be > 1.5.
    ratio = result.summaries["lzero"].mean / result.summaries["hermes"].mean
    assert ratio > 1.5

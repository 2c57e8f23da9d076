"""Fig. 7 acceptance: the qualitative orderings the figure must reproduce.

Small-scale (N=60) but full-axis: every protocol of the figure against the
reactive extraction strategies at the paper's hardest malicious fraction.
The full-size run (N=200, the committed ``fig7`` output) sharpens the same
relations; this pins them in tier-1:

* HERMES's attack-success rate and extracted value sit strictly below
  Narwhal's and Mercury's — dissemination fairness is what HERMES buys;
* F3B zeroes *reactive* strategies outright: content reveals only after
  positions lock, so a sandwich/censor leg can never order ahead;
* Mercury and Narwhal leak extractable value (the unprotected baselines).

The grid is deterministic (seeded fault plans, seeded victim/proposer pairs),
so these are exact reproducible outcomes, not flaky statistics.
"""

from repro.experiments import fig7_adversary as fig7

CONFIG = fig7.Fig7Config(
    num_nodes=60,
    protocols=("hermes", "lzero", "narwhal", "mercury", "f3b"),
    strategies=("sandwich", "censor-reorder"),
    fractions=(0.33,),
    trials=4,
)


def _result():
    global _CACHED
    try:
        return _CACHED
    except NameError:
        _CACHED, _ = fig7.FIGURE.run(CONFIG)
        return _CACHED


def test_hermes_strictly_below_the_unprotected_baselines():
    result = _result()
    for metric in (result.protocol_success_rate, result.protocol_extracted_value):
        assert metric("hermes") < metric("narwhal")
        assert metric("hermes") < metric("mercury")


def test_f3b_zeroes_reactive_strategies():
    result = _result()
    for strategy in CONFIG.strategies:
        cell = result.cell("f3b", strategy, 0.33)
        assert cell.success_rate == 0.0
        assert cell.mean_gross == 0.0


def test_unprotected_baselines_leak_value():
    result = _result()
    for protocol in ("narwhal", "mercury"):
        assert result.protocol_success_rate(protocol) > 0.0
        assert result.protocol_extracted_value(protocol) > 0.0


def test_resistance_ordering_puts_defenses_first():
    ordering = _result().resistance_ordering()
    defenses = {"hermes", "f3b"}
    assert set(ordering[:2]) <= defenses | {"lzero"}
    # The unprotected baselines bring up the rear.
    assert set(ordering[-2:]) == {"narwhal", "mercury"}


def test_every_cell_aggregates_all_trials():
    result = _result()
    for key, cell in result.cells.items():
        assert cell.trials == CONFIG.trials, key
        assert 0.0 <= cell.mean_coverage <= 1.0
        assert 0.5 <= cell.mean_gamma <= 1.0

"""Integration: the paper's claims for Table I, Fig. 2 and Fig. 4 at ``--quick``
size, and a resumed run that folds to the same result and table (a cell
result a stored JSON record alters, such as an int-keyed dict, would not)."""

from repro.runner.tasks import get_figure


def check_table1(result):
    hermes, gossip, tree, rbc = map(
        result.row, ("hermes", "gossip", "simple-tree", "reliable-broadcast")
    )
    # HERMES and gossip are dissemination-fair; the fixed tree is not.
    assert max(hermes.fairness_bias, gossip.fairness_bias) < tree.fairness_bias
    # HERMES balances load; the single tree does not.
    assert hermes.load_cv < tree.load_cv
    # Reliable broadcast has the highest message complexity.
    assert rbc.messages_per_node_per_tx == max(r.messages_per_node_per_tx for r in result.rows)
    # HERMES keeps high robustness under 20% Byzantine nodes.
    assert hermes.robustness_coverage >= 0.95


def check_fig2(result):
    tree = result.row("robust-tree")
    others = [row for row in result.rows if row.structure != "robust-tree"]
    # Robust trees: the lowest latency, at the cost of the highest load imbalance.
    assert tree.avg_latency_ms <= min(row.avg_latency_ms for row in others)
    assert tree.load_stddev >= max(row.load_stddev for row in others)


def check_fig4(result):
    k, f = result.config.k, result.config.f
    assert result.entry_assignments == k * (f + 1)  # k * (f+1) entry-point slots
    # Role rotation: entry duty spread over many distinct nodes, none hogging
    # the root, and a balanced average rank across nodes.
    assert result.distinct_entry_nodes >= 15
    assert result.max_entry_repeats() <= 3
    assert result.fairness_coefficient() < 0.15
    # Every node appears in every overlay.
    assert all(len(ranks) == k for ranks in result.ranks_per_node.values())


CLAIMS = {"table1": check_table1, "fig2": check_fig2, "fig4": check_fig4}


def test_paper_claims_hold_and_a_resumed_run_prints_the_same_table(tmp_path):
    for name, check in CLAIMS.items():
        figure = get_figure(name)
        config = figure.make_config(quick=True)
        result, report = figure.run(config, results_dir=str(tmp_path))
        check(result)
        again, again_report = figure.run(config, results_dir=str(tmp_path))
        assert (report.executed, again_report.executed) == (len(figure.cells(config)), 0)
        assert again == result, name
        assert figure.format(again) == figure.format(result), name

"""``python -m repro adversary`` — run zoo strategies against a protocol.

Examples::

    # One sandwich trial against HERMES on a 100-node network
    python -m repro adversary --protocol hermes --strategy sandwich -n 100

    # The full extraction-strategy sweep against Mercury, 5 trials each
    python -m repro adversary --protocol mercury --trials 5

    # Fee-market race with a 33% coalition and a priced victim
    python -m repro adversary --protocol narwhal --strategy priority-race \\
        --fraction 0.33 --victim-fee 2.0 --fee-premium 0.5

Prints one row per (strategy, trial) with the verdict, extracted value and
fairness metrics, then per-strategy means.  For grid sweeps across protocols
and fractions use the resumable figure grid instead:
``python -m repro sweep --figure fig7`` (``fig7_adversary.FIGURE.run``).
"""

from __future__ import annotations

import argparse

from ..utils.tables import format_table

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro adversary",
        description="Run attack strategies from the zoo against one protocol.",
    )
    parser.add_argument(
        "--protocol",
        default="hermes",
        help="protocol under attack (hermes, lzero, narwhal, mercury, f3b, ...)",
    )
    parser.add_argument(
        "--strategy",
        action="append",
        dest="strategies",
        metavar="NAME",
        help="strategy to run (repeatable; default: sandwich, priority-race, "
        "censor-reorder)",
    )
    parser.add_argument(
        "-n", "--nodes", type=int, default=100, help="network size (default 100)"
    )
    parser.add_argument(
        "--fraction",
        type=float,
        default=0.2,
        help="malicious fraction (default 0.2)",
    )
    parser.add_argument(
        "--trials", type=int, default=3, help="trials per strategy (default 3)"
    )
    parser.add_argument(
        "--victim-value",
        type=float,
        default=100.0,
        help="opportunity value carried by the victim transaction (default 100)",
    )
    parser.add_argument(
        "--victim-fee", type=float, default=1.0, help="victim's fee bid (default 1)"
    )
    parser.add_argument(
        "--fee-premium",
        type=float,
        default=1.0,
        help="how far above the victim's fee strategies bid (default 1)",
    )
    parser.add_argument(
        "--background-txs",
        type=int,
        default=10,
        help="honest background transactions per trial (default 10)",
    )
    parser.add_argument(
        "--proposal-delay-ms",
        type=float,
        default=250.0,
        help="proposer seals its block this long after the victim arrives "
        "(default 250; negative disables the cutoff)",
    )
    parser.add_argument(
        "--horizon-ms",
        type=float,
        default=4_000.0,
        help="simulation horizon per trial (default 4000)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    parser.add_argument(
        "--list", action="store_true", help="list registered strategies and exit"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    from ..adversary import ValueModel, run_adversary_trial, strategy_names
    from ..experiments.harness import build_environment, protocol_factories
    from ..utils.rng import derive_rng

    args = build_parser().parse_args(argv)
    if args.list:
        for name in strategy_names():
            print(name)
        return 0

    strategies = args.strategies or ["sandwich", "priority-race", "censor-reorder"]
    unknown = sorted(set(strategies) - set(strategy_names()))
    if unknown:
        print(
            f"unknown strategies: {', '.join(unknown)} "
            f"(known: {', '.join(strategy_names())})"
        )
        return 2

    env = build_environment(num_nodes=args.nodes, seed=args.seed)
    factories = protocol_factories(
        env, hermes_overrides={"gossip_fallback_enabled": False}
    )
    if args.protocol not in factories:
        print(
            f"unknown protocol {args.protocol!r} "
            f"(known: {', '.join(sorted(factories))})"
        )
        return 2

    nodes = env.physical.nodes()
    rng = derive_rng(args.seed, "adversary-cli-pairs")
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(args.trials)]
    value_model = ValueModel(
        victim_value=args.victim_value, fee_premium=args.fee_premium
    )
    delay = None if args.proposal_delay_ms < 0 else args.proposal_delay_ms

    headers = [
        "strategy",
        "trial",
        "won",
        "censored",
        "gross",
        "net",
        "γ",
        "inversions",
        "coverage",
    ]
    rows = []
    summary: dict[str, list] = {}
    for strategy in strategies:
        for trial, (victim, proposer) in enumerate(pairs):
            result = run_adversary_trial(
                factories[args.protocol],
                nodes,
                strategy,
                args.fraction,
                victim,
                proposer,
                value_model=value_model,
                victim_fee=args.victim_fee,
                background_txs=args.background_txs,
                proposal_delay_ms=delay,
                horizon_ms=args.horizon_ms,
                seed=args.seed + trial,
            )
            rows.append(
                [
                    strategy,
                    str(trial),
                    "yes" if result.verdict.attacker_won else "no",
                    "yes" if result.verdict.victim_censored else "no",
                    f"{result.outcome.gross:.1f}",
                    f"{result.outcome.net:+.1f}",
                    f"{result.fairness.gamma:.2f}",
                    f"{result.fairness.inversion_rate:.3f}",
                    f"{result.victim_coverage:.0%}",
                ]
            )
            summary.setdefault(strategy, []).append(result)
    print(
        format_table(
            headers,
            rows,
            title=(
                f"adversary zoo vs {args.protocol}, N={args.nodes}, "
                f"{args.fraction:.0%} malicious"
            ),
        )
    )
    print()
    mean_rows = []
    for strategy, results in summary.items():
        count = len(results)
        mean_rows.append(
            [
                strategy,
                f"{sum(r.verdict.attacker_won for r in results) / count:.0%}",
                f"{sum(r.outcome.net for r in results) / count:+.1f}",
                f"{sum(r.fairness.inversion_rate for r in results) / count:.3f}",
            ]
        )
    print(
        format_table(
            ["strategy", "success", "mean net", "mean inversions"],
            mean_rows,
            title=f"means over {args.trials} trials",
        )
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

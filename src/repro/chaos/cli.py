"""``python -m repro chaos`` — run fault-injection campaigns from the shell.

Examples::

    python -m repro chaos                          # escalation vs hermes+lzero
    python -m repro chaos --scenario frontrun-burst --protocol hermes
    python -m repro chaos --scenario my_campaign.json --json
    python -m repro chaos --list-scenarios
"""

from __future__ import annotations

import argparse
import sys

from ..errors import ReproError

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description=(
            "Run a chaos scenario (timeline of crashes, censorship flips, "
            "partitions, churn) against one or more protocols while the "
            "invariant suite checks delivery, accountability and overlay "
            "connectivity online."
        ),
    )
    parser.add_argument(
        "--scenario",
        default="escalation",
        help="bundled scenario name or path to a scenario JSON file "
        "(default: escalation)",
    )
    parser.add_argument(
        "--protocol",
        action="append",
        choices=["hermes", "lzero", "narwhal", "mercury"],
        help="protocol to run (repeatable; default: hermes and lzero)",
    )
    parser.add_argument("--num-nodes", type=int, default=48)
    parser.add_argument("--f", type=int, default=1, help="per-overlay fault bound")
    parser.add_argument("--k", type=int, default=4, help="number of overlays")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json",
        action="store_true",
        help="print one canonical-JSON report per protocol instead of text",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="attach repro.obs and summarize the fault spans after each run",
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="list bundled scenarios and exit",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when any invariant fails (default: failed "
        "invariants are an experimental result, not a CLI error — baselines "
        "are expected to break under heavy adversaries)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    from .engine import run_chaos
    from .scenario import builtin_scenarios, get_scenario

    args = build_parser().parse_args(argv)

    if args.list_scenarios:
        for name, scenario in builtin_scenarios().items():
            print(f"{name:<16} {scenario.description}")
        return 0

    try:
        scenario = get_scenario(args.scenario)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    protocols = args.protocol or ["hermes", "lzero"]
    failures = 0
    for protocol in protocols:
        obs = None
        if args.trace:
            from ..obs import Observability

            obs = Observability.enabled()
        try:
            report = run_chaos(
                scenario,
                protocol=protocol,
                num_nodes=args.num_nodes,
                f=args.f,
                k=args.k,
                seed=args.seed,
                obs=obs,
            )
        except ReproError as exc:
            print(f"error ({protocol}): {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(report.dumps())
        else:
            print(report.format())
            print(f"  report hash: {report.content_hash()}")
        if obs is not None:
            spans = [s for s in obs.tracer.spans if s.name.startswith("chaos.")]
            events = [e for e in obs.tracer.events if e.name.startswith("chaos.")]
            print(
                f"  trace: {len(spans)} chaos fault spans, "
                f"{len(events)} chaos events "
                f"({len(obs.tracer.events)} trace events total)"
            )
        if not report.passed:
            failures += 1
        if not args.json:
            print()
    return 1 if failures and args.strict else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

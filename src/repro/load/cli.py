"""``python -m repro load`` — saturation sweeps from the shell.

Examples::

    python -m repro load                                  # default sweep
    python -m repro load --rate 5 --rate 20 --rate 80     # custom rates
    python -m repro load --pattern mmpp --protocol hermes --protocol lzero
    python -m repro load --capacity 32 --queue-kb 32      # tighter uplinks
    python -m repro load --no-capacity                    # infinite links
    python -m repro load --jobs 4 --results-dir results/fig6   # resumable
    python -m repro load --json                           # canonical JSON
"""

from __future__ import annotations

import argparse
import json
import sys

from ..errors import ReproError

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    from .arrival import ARRIVAL_PATTERNS

    parser = argparse.ArgumentParser(
        prog="python -m repro load",
        description=(
            "Sweep offered load across protocols under finite link capacity "
            "and report goodput, latency percentiles and the saturation knee "
            "(see docs/load.md)."
        ),
    )
    parser.add_argument(
        "--rate",
        action="append",
        type=float,
        dest="rates",
        metavar="TPS",
        help="offered rate in tx/s (repeatable; default: the fig6 sweep)",
    )
    parser.add_argument(
        "--pattern",
        choices=ARRIVAL_PATTERNS,
        default="poisson",
        help="arrival process (default: poisson)",
    )
    parser.add_argument(
        "--protocol",
        action="append",
        choices=["hermes", "lzero", "narwhal", "mercury"],
        dest="protocols",
        help="protocol to sweep (repeatable; default: all four)",
    )
    parser.add_argument("--num-nodes", type=int, default=40)
    parser.add_argument("--f", type=int, default=1, help="per-overlay fault bound")
    parser.add_argument("--k", type=int, default=3, help="number of overlays")
    parser.add_argument(
        "--zipf", type=float, default=0.0, metavar="S",
        help="Zipf skew of origin selection (0 = uniform; default 0)",
    )
    parser.add_argument(
        "--duration", type=float, default=6_000.0, metavar="MS",
        help="injection window in simulated ms (default 6000)",
    )
    parser.add_argument(
        "--capacity", type=float, default=32.0, metavar="KB_S",
        help="per-node uplink rate in KB/s (default 32; downlink is 4x)",
    )
    parser.add_argument(
        "--queue-kb", type=float, default=32.0, metavar="KB",
        help="egress queue bound in KB (default 32)",
    )
    parser.add_argument(
        "--no-capacity",
        action="store_true",
        help="leave links infinite (measures the driver without saturation)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes (default 1 = serial)"
    )
    parser.add_argument(
        "--results-dir",
        help="content-addressed result store; re-invoking resumes the sweep",
    )
    parser.add_argument(
        "--no-resume",
        dest="resume",
        action="store_false",
        help="re-execute cells even when the store already has their records",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the result as canonical JSON instead of tables",
    )
    return parser


def _sweep_config(args: argparse.Namespace):
    from ..experiments.fig6_saturation import DEFAULT_RATES, Fig6Config

    # --no-capacity keeps the hook installed but effectively infinite: the
    # sweep grid stays one content-addressed task per point either way.
    uplink = 1e9 if args.no_capacity else args.capacity
    downlink = 4e9 if args.no_capacity else args.capacity * 4
    queue = 1 << 40 if args.no_capacity else int(args.queue_kb * 1024)
    return Fig6Config(
        num_nodes=args.num_nodes,
        f=args.f,
        k=args.k,
        rates_tps=tuple(args.rates) if args.rates else DEFAULT_RATES,
        pattern=args.pattern,
        zipf_s=args.zipf,
        duration_ms=args.duration,
        protocols=tuple(args.protocols) if args.protocols else
        ("hermes", "lzero", "narwhal", "mercury"),
        uplink_kb_per_s=uplink,
        downlink_kb_per_s=downlink,
        queue_bytes=queue,
        seed=args.seed,
    )


def main(argv: list[str] | None = None) -> int:
    from ..experiments import fig6_saturation

    args = build_parser().parse_args(argv)
    config = _sweep_config(args)
    try:
        result, report = fig6_saturation.FIGURE.run(
            config,
            jobs=args.jobs,
            results_dir=args.results_dir,
            resume=args.resume,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        doc = {
            "config": {
                "num_nodes": config.num_nodes,
                "pattern": config.pattern,
                "rates_tps": list(config.rates_tps),
                "uplink_kb_per_s": config.uplink_kb_per_s,
                "seed": config.seed,
            },
            "curves": {
                protocol: [point.to_json() for point in curve]
                for protocol, curve in result.curves.items()
            },
            "knees_tps": {
                protocol: result.knee_tps(protocol) for protocol in result.curves
            },
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        print(fig6_saturation.format_result(result))
        print(
            f"\nsweep: {report.executed} executed, {report.skipped} resumed, "
            f"{report.failed} failed"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

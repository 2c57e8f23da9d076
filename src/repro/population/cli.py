"""``python -m repro population`` — sustained population load from the shell.

Examples::

    python -m repro population                            # default Fig. 8 sweep
    python -m repro population --rate 5 --rate 20         # custom rates
    python -m repro population --protocol hermes --protocol ingest
    python -m repro population --clients 1000000 --duration 120000
    python -m repro population --mempool-cap 2000 --ttl 60000
    python -m repro population --jobs 4 --results-dir results/fig8  # resumable
    python -m repro population --json                     # canonical JSON
"""

from __future__ import annotations

import argparse
import json
import sys

from ..errors import ReproError

__all__ = ["main"]

_PROTOCOL_CHOICES = ["hermes", "lzero", "narwhal", "mercury", "ingest"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro population",
        description=(
            "Sweep sustained client-population load (fee market, bounded "
            "mempools, streaming telemetry) across protocols and report "
            "goodput knees, fee trajectories and tail latency "
            "(see docs/population.md)."
        ),
    )
    parser.add_argument(
        "--rate",
        action="append",
        type=float,
        dest="rates",
        metavar="TPS",
        help="offered rate in tx/s (repeatable; default: the fig8 sweep)",
    )
    parser.add_argument(
        "--protocol",
        action="append",
        choices=_PROTOCOL_CHOICES,
        dest="protocols",
        help="protocol to sweep (repeatable; default: all four + ingest)",
    )
    parser.add_argument("--num-nodes", type=int, default=24)
    parser.add_argument("--f", type=int, default=1, help="per-overlay fault bound")
    parser.add_argument("--k", type=int, default=3, help="number of overlays")
    parser.add_argument(
        "--clients", type=int, default=1_000_000,
        help="client-population size (default 1,000,000)",
    )
    parser.add_argument(
        "--zipf", type=float, default=1.1, metavar="S",
        help="Zipf skew of client activity (0 = uniform; default 1.1)",
    )
    parser.add_argument(
        "--duration", type=float, default=60_000.0, metavar="MS",
        help="injection window in simulated ms (default 60000)",
    )
    parser.add_argument(
        "--base-fee", type=float, default=1.0, metavar="FEE",
        help="initial base fee (default 1.0)",
    )
    parser.add_argument(
        "--mempool-cap", type=int, default=2_000, metavar="TXS",
        help="per-node mempool size cap (default 2000)",
    )
    parser.add_argument(
        "--ttl", type=float, default=60_000.0, metavar="MS",
        help="mempool TTL in simulated ms (default 60000)",
    )
    parser.add_argument(
        "--service-tps", type=float, default=25.0, metavar="TPS",
        help="service rate of the simulator-free ingest protocol (default 25)",
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
    from ..experiments.fig8_sustained import (
        DEFAULT_PROTOCOLS,
        DEFAULT_RATES,
        Fig8Config,
    )

    return Fig8Config(
        num_nodes=args.num_nodes,
        f=args.f,
        k=args.k,
        rates_tps=tuple(args.rates) if args.rates else DEFAULT_RATES,
        protocols=tuple(args.protocols) if args.protocols else DEFAULT_PROTOCOLS,
        duration_ms=args.duration,
        num_clients=args.clients,
        zipf_s=args.zipf,
        initial_base_fee=args.base_fee,
        mempool_max_size=args.mempool_cap,
        mempool_ttl_ms=args.ttl,
        service_tps=args.service_tps,
        seed=args.seed,
    )


def main(argv: list[str] | None = None) -> int:
    from ..experiments import fig8_sustained

    args = build_parser().parse_args(argv)
    config = _sweep_config(args)
    try:
        result, report = fig8_sustained.FIGURE.run(
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
                "num_clients": config.num_clients,
                "rates_tps": list(config.rates_tps),
                "duration_ms": config.duration_ms,
                "mempool_max_size": config.mempool_max_size,
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
        print(fig8_sustained.format_result(result))
        print(
            f"\nsweep: {report.executed} executed, {report.skipped} resumed, "
            f"{report.failed} failed"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

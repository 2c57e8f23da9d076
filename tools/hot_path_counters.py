"""Exact hot-path counters: Python calls per simulated event, per protocol.

    python tools/hot_path_counters.py [--scale small|bench] [--seed N] [--json]

Wall time on a shared host cannot resolve a change of less than about a
quarter, but the number of Python function calls the event loop makes is
exact and repeats run to run.  This script runs fixed cells under the stdlib
``cProfile`` and folds its ``ncalls`` into:

* ``calls_per_event`` for each protocol of a Fig. 3a cell on the paper-scale
  profile (HERMES, L∅, Narwhal, Mercury, and all four together) and for an
  L∅ flood;
* per HERMES envelope receipt (one ``HermesNode._accept`` call): how many
  ``encode_piece`` and SHA-256 calls it costs;
* ``retained_bytes_per_delivery``: what the flood's ``system.run`` leaves
  allocated (``tracemalloc``, after ``simulator.clear()`` and a full
  collection; a block draw beforehand keeps NumPy's import out of it),
  divided by the deliveries it recorded — the N × T state;
* ``fig3a_peak_traced_kb``: the ``tracemalloc`` peak of the Fig. 3a cell
  run the way ``benchmarks/e2e``'s child runs it — a cold environment, the
  four systems each built, run and dropped without ``close()`` — so what a
  dropped system keeps alive shows up as an exact number of bytes.

Apart from that peak, only ``system.run`` is profiled or traced —
construction and submission are not part of the per-event path.
``--scale small`` (the default, a few seconds) is Fig. 3a at N = 60 and
the flood at N = 200, T = 20;
``--scale bench`` is the sizes of the ``fig3a-paper-n1100`` and
``flood-n2000-t80`` benchmark workloads (a few minutes).  Transaction and
message ids are reset before every run, so every count is a pure function
of the scale and the seed.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import random
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

SCALES = {
    "small": {
        "fig3a": dict(nodes=60, txs=3, horizon_ms=6_000.0, narwhal_validators=8),
        "flood": dict(nodes=200, txs=20, interval_ms=25.0, drain_ms=1_200.0),
    },
    "bench": {
        "fig3a": dict(nodes=1100, txs=10, horizon_ms=8_000.0, narwhal_validators=40),
        "flood": dict(nodes=2000, txs=80, interval_ms=25.0, drain_ms=2_000.0),
    },
}


def _profiled_run(system, until_ms: float) -> dict:
    """Run *system* to *until_ms* under cProfile; fold the call counts."""

    profiler = cProfile.Profile()
    profiler.enable()
    system.run(until_ms=until_ms)
    profiler.disable()
    calls = encode = sha256 = accepts = 0
    for (file, _line, name), (_cc, ncalls, *_rest) in pstats.Stats(profiler).stats.items():
        calls += ncalls
        if name == "encode_piece":
            encode += ncalls
        elif file == "~" and "sha256" in name:  # the C constructor, not a wrapper
            sha256 += ncalls
        elif name == "_accept":
            accepts += ncalls
    return {
        "events": system.simulator.events_processed,
        "calls": calls,
        "encode_piece": encode,
        "sha256": sha256,
        "receipts": accepts,
    }


def _reset_ids() -> None:
    from repro.mempool.transaction import reset_tx_ids
    from repro.net.events import reset_message_ids

    reset_tx_ids()
    reset_message_ids()


def _fig3a_cell(params: dict, seed: int):
    """``(factories, origins)`` of one paper-scale Fig. 3a cell."""

    from repro.baselines.narwhal import NarwhalConfig
    from repro.experiments.harness import build_environment, protocol_factories
    from repro.utils.rng import derive_rng

    env = build_environment(
        num_nodes=params["nodes"], f=1, k=10, seed=0, paper_scale=True
    )
    factories = protocol_factories(
        env,
        hermes_overrides={"gossip_fallback_enabled": False},
        narwhal_config=NarwhalConfig(num_validators=params["narwhal_validators"]),
    )
    rng = derive_rng(seed, "fig3a-origins")
    origins = [rng.choice(env.physical.nodes()) for _ in range(params["txs"])]
    return factories, origins


def fig3a_counts(params: dict, seed: int) -> dict[str, dict]:
    """Counters for the four protocols of one paper-scale Fig. 3a cell."""

    from repro.experiments.harness import PROTOCOL_NAMES
    from repro.mempool.transaction import Transaction

    factories, origins = _fig3a_cell(params, seed)
    counts = {}
    for name in PROTOCOL_NAMES:
        _reset_ids()
        with factories[name]() as system:
            system.start()
            for origin in origins:
                system.submit(origin, Transaction.create(origin=origin, created_at=0.0))
            counts[name] = _profiled_run(system, params["horizon_ms"])
    return counts


def fig3a_peak_traced_kb(params: dict, seed: int) -> float:
    """Peak KiB allocated (tracemalloc) while the Fig. 3a cell runs the way
    the benchmark's child runs it: a cold environment, then each protocol
    built, run and summarized, and dropped without ``close()`` when the next
    system is bound to the same name."""

    from repro.experiments.harness import PROTOCOL_NAMES, clear_environment_cache
    from repro.mempool.transaction import Transaction

    clear_environment_cache()
    _reset_ids()
    gc.collect()
    tracemalloc.start()
    try:
        factories, origins = _fig3a_cell(params, seed)
        for name in PROTOCOL_NAMES:
            system = factories[name]()
            system.start()
            for origin in origins:
                system.submit(origin, Transaction.create(origin=origin, created_at=0.0))
            system.run(until_ms=params["horizon_ms"])
            system.stats.latency_summary()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024


def _flood(params: dict, seed: int):
    """The L∅ flood of the ``flood-n2000-t80`` workload's shape, submissions
    scheduled; returns ``(system, until_ms)``."""

    from repro.baselines import LZeroSystem
    from repro.mempool.transaction import Transaction
    from repro.net.topology import generate_physical_network
    from repro.utils.rng import derive_rng

    _reset_ids()
    nodes, txs, interval = params["nodes"], params["txs"], params["interval_ms"]
    physical = generate_physical_network(nodes, seed=0)
    system = LZeroSystem(physical, seed=13)
    rng = derive_rng(seed, "kernel-bench", nodes)
    node_ids = system.network.node_ids()
    system.start()
    for index in range(txs):
        origin = rng.choice(node_ids)

        def submit(origin=origin, when=index * interval):
            system.submit(origin, Transaction.create(origin=origin, created_at=when))

        system.simulator.schedule(index * interval, submit)
    return system, txs * interval + params["drain_ms"]


def flood_counts(params: dict, seed: int) -> dict:
    """Counters for the flood's ``system.run``."""

    system, until_ms = _flood(params, seed)
    with system:
        return _profiled_run(system, until_ms)


def flood_retained_bytes(params: dict, seed: int) -> float:
    """Bytes the flood's ``system.run`` leaves allocated, per delivery."""

    from repro.net.sampling import BlockSampler

    BlockSampler(random.Random(0)).normals(0.0, 1.0, 1)  # imports happen here
    system, until_ms = _flood(params, seed)
    with system:
        gc.collect()
        tracemalloc.start()
        try:
            system.run(until_ms=until_ms)
            system.simulator.clear()
            gc.collect()
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        deliveries = sum(len(nodes) for nodes in system.stats.deliveries.values())
    return retained / deliveries


def counters(scale: str = "small", seed: int = 7) -> dict:
    """Every counter at *scale*, as one JSON-able dict."""

    params = SCALES[scale]
    protocols = fig3a_counts(params["fig3a"], seed)
    total_calls = sum(c["calls"] for c in protocols.values())
    total_events = sum(c["events"] for c in protocols.values())
    hermes = protocols["hermes"]
    flood = flood_counts(params["flood"], seed)
    retained = flood_retained_bytes(params["flood"], seed)
    peak_kb = fig3a_peak_traced_kb(params["fig3a"], seed)
    return {
        "scale": scale,
        "seed": seed,
        "fig3a": protocols,
        "calls_per_event": {
            **{name: c["calls"] / c["events"] for name, c in protocols.items()},
            "all four": total_calls / total_events,
            "flood": flood["calls"] / flood["events"],
        },
        "hermes_per_receipt": {
            "encode_piece": hermes["encode_piece"] / hermes["receipts"],
            "sha256": hermes["sha256"] / hermes["receipts"],
        },
        "flood": flood,
        "retained_bytes_per_delivery": retained,
        "fig3a_peak_traced_kb": peak_kb,
    }


def format_table(result: dict) -> str:
    lines = [
        f"hot-path counters, scale {result['scale']}, seed {result['seed']} "
        "(cProfile ncalls over system.run)",
        f"{'cell':<10} {'events':>10} {'calls':>12} {'calls/event':>12}",
    ]
    rows = dict(result["fig3a"], flood=result["flood"])
    for name, c in rows.items():
        lines.append(
            f"{name:<10} {c['events']:>10,} {c['calls']:>12,} "
            f"{c['calls'] / c['events']:>12.2f}"
        )
    lines.append(f"{'all four':<10} {'':>10} {'':>12} "
                 f"{result['calls_per_event']['all four']:>12.2f}")
    hermes = result["fig3a"]["hermes"]
    lines.append(
        f"HERMES: {hermes['receipts']:,} receipts, "
        f"{hermes['encode_piece']:,} encode_piece calls "
        f"({result['hermes_per_receipt']['encode_piece']:.3f}/receipt), "
        f"{hermes['sha256']:,} SHA-256 calls "
        f"({result['hermes_per_receipt']['sha256']:.3f}/receipt)"
    )
    lines.append(
        f"flood: {result['retained_bytes_per_delivery']:.1f} bytes retained "
        "per delivery (tracemalloc over system.run)"
    )
    lines.append(
        f"fig3a: {result['fig3a_peak_traced_kb']:,.1f} KiB traced peak "
        "(cold environment, four systems dropped without close())"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="small")
    parser.add_argument("--seed", type=int, default=7, help="origin-stream seed")
    parser.add_argument("--json", action="store_true", help="print JSON instead")
    args = parser.parse_args(argv)
    result = counters(args.scale, args.seed)
    print(json.dumps(result, indent=2, sort_keys=True) if args.json else format_table(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

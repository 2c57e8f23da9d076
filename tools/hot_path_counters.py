"""Exact hot-path counters: Python calls per simulated event, per protocol.

    python tools/hot_path_counters.py [--scale small|bench] [--seed N] [--json] [--imports]

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
  collection), divided by the deliveries it recorded — the N × T state;
* ``cross_bytes_per_draw``: what the cross-region pair store holds per
  kept draw (``sys.getsizeof`` of its row dict and row arrays) once the
  Fig. 3a cell's four protocols, or the flood, have run;
* ``fig3a_peak_traced_kb``: the ``tracemalloc`` peak of the Fig. 3a cell
  run the way ``benchmarks/e2e``'s child runs it — a cold environment, the
  four systems each built, run and dropped without ``close()`` — so what a
  dropped system keeps alive shows up as an exact number of bytes;
* ``fig8_hermes``: what a Fig. 8 HERMES cell (bounded fee-priced mempools,
  the TRS committee's Bracha broadcasts under sustained load) holds once it
  has run — the entries of each mempool index per resident transaction, and
  the supporter sets its delivered RBC slots still keep;
* ``imports``: for each cold entry point — the sweep CLI, the import blocks
  of the ``benchmarks/e2e`` flood and Fig. 3a children, the CLI resolving a
  Fig. 5a or Fig. 8 task — the ``repro.*`` modules a fresh interpreter loads
  and the source lines they hold (``--imports`` prints this section alone).

Apart from that peak, only ``system.run`` is profiled or traced —
construction and submission are not part of the per-event path.
``--scale small`` (the default, a few seconds) is Fig. 3a at N = 60, the
flood at N = 200, T = 20 and Fig. 8 at N = 16, 8 tx/s for 8 s;
``--scale bench`` is the sizes of the ``fig3a-paper-n1100`` and
``flood-n2000-t80`` benchmark workloads and the HERMES cell that sets the
peak of ``sweep-fig8-j1`` (a few minutes).  Transaction and
message ids are reset before every run, so every count is a pure function
of the scale and the seed.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import subprocess
import sys
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

SCALES = {
    "small": {
        "fig3a": dict(nodes=60, txs=3, horizon_ms=6_000.0, narwhal_validators=8),
        "flood": dict(nodes=200, txs=20, interval_ms=25.0, drain_ms=1_200.0),
        "fig8": dict(num_nodes=16, rate_tps=8.0, duration_ms=8_000.0, drain_ms=2_000.0,
                     num_clients=10_000),
    },
    "bench": {
        "fig3a": dict(nodes=1100, txs=10, horizon_ms=8_000.0, narwhal_validators=40),
        "flood": dict(nodes=2000, txs=80, interval_ms=25.0, drain_ms=2_000.0),
        "fig8": dict(num_nodes=24, rate_tps=24.0, duration_ms=32_000.0, drain_ms=4_000.0,
                     num_clients=1_000_000),
    },
}


#: What each cold entry point imports before it runs anything.
IMPORT_ENTRY_POINTS = {
    "cli": "import repro.runner.cli",
    "flood": """
from repro.baselines import LZeroSystem
from repro.mempool.transaction import Transaction
from repro.net.topology import generate_physical_network
from repro.utils.rng import derive_rng
""",
    "fig3a": """
from repro.baselines.narwhal import NarwhalConfig
from repro.experiments.harness import PROTOCOL_NAMES, build_environment, protocol_factories
from repro.mempool.transaction import Transaction
from repro.utils.rng import derive_rng
""",
    "cli + fig5a.trial": """
import repro.runner.cli
from repro.runner import get_task
get_task("fig5a.trial")
""",
    "cli + fig8.point": """
import repro.runner.cli
from repro.runner import get_task
get_task("fig8.point")
""",
}

_LIST_MODULES = """
for name, module in list(sys.modules.items()):
    if name == "repro" or name.startswith("repro."):
        print(module.__file__)
"""


def import_census(body: str) -> dict:
    """The ``repro.*`` modules a fresh interpreter holds after running
    *body*, and the source lines of their files."""

    script = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{body}\n{_LIST_MODULES}"
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    files = done.stdout.splitlines()
    return {
        "modules": len(files),
        "lines": sum(len(Path(file).read_bytes().splitlines()) for file in files),
    }


def imports() -> dict[str, dict]:
    return {name: import_census(body) for name, body in IMPORT_ENTRY_POINTS.items()}


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
        elif file == "~" and name.startswith("<built-in method ") and "sha256" in name:
            # The C constructor only: not a Python wrapper, and not the
            # digest/update methods of the built-in module's hash objects.
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
    """``(physical, factories, origins)`` of one paper-scale Fig. 3a cell."""

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
    return env.physical, factories, origins


def cross_bytes_per_draw(physical) -> float:
    """Bytes *physical*'s cross-region pair store holds per kept draw."""

    store = physical._cross
    held = sys.getsizeof(store.rows) + sum(map(sys.getsizeof, store.rows.values()))
    return held / len(store)


def fig3a_counts(params: dict, seed: int) -> tuple[dict[str, dict], float]:
    """Counters for the four protocols of one paper-scale Fig. 3a cell, and
    its cross-region store's bytes per kept draw after them."""

    from repro.experiments.harness import PROTOCOL_NAMES
    from repro.mempool.transaction import Transaction

    physical, factories, origins = _fig3a_cell(params, seed)
    counts = {}
    for name in PROTOCOL_NAMES:
        _reset_ids()
        with factories[name]() as system:
            system.start()
            for origin in origins:
                system.submit(origin, Transaction.create(origin=origin, created_at=0.0))
            counts[name] = _profiled_run(system, params["horizon_ms"])
    return counts, cross_bytes_per_draw(physical)


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
        _physical, factories, origins = _fig3a_cell(params, seed)
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


def flood_counts(params: dict, seed: int) -> tuple[dict, float]:
    """Counters for the flood's ``system.run``, and its cross-region store's
    bytes per kept draw."""

    system, until_ms = _flood(params, seed)
    with system:
        return _profiled_run(system, until_ms), cross_bytes_per_draw(system.network.physical)


def flood_retained_bytes(params: dict, seed: int) -> float:
    """Bytes the flood's ``system.run`` leaves allocated, per delivery."""

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


def fig8_hermes_state(params: dict) -> dict:
    """What a Fig. 8 HERMES cell holds after its run: mempool index entries
    and the supporter sets of delivered Bracha slots (the grid is the same
    for every seed, as in ``sweep-fig8-j1``)."""

    from repro.experiments.fig8_sustained import FIGURE
    from repro.experiments.harness import build_environment, protocol_factories
    from repro.load.capacity import CapacityModel
    from repro.population import ClientPopulation, PopulationDriver

    config = FIGURE.make_config(**{k: v for k, v in params.items() if k != "rate_tps"})
    env = build_environment(num_nodes=config.num_nodes, f=config.f, k=config.k,
                            seed=config.seed)
    _reset_ids()
    with protocol_factories(env)["hermes"]() as system:
        system.network.capacity = CapacityModel(config.capacity_config())
        PopulationDriver(
            system,
            ClientPopulation(config.population_config(params["rate_tps"])),
            protocol="hermes",
            fee_market=config.fee_market(),
            policy=config.mempool_policy(),
            delivery_fraction=config.delivery_fraction,
            sketch_capacity=config.sketch_capacity,
            window_ms=config.window_ms,
            target_occupancy=config.target_occupancy,
        ).run(config.duration_ms, drain_ms=config.drain_ms)
        nodes = system.nodes.values()
        pools = [node.mempool for node in nodes]
        residents = sum(map(len, pools))
        entries = {
            name: sum(len(getattr(pool, name) or ()) for pool in pools)
            for name in ("_fee_heap", "_prio_heap", "_fifo", "_ttl_queue")
        }
        slots = [
            slot
            for node in nodes
            if node.trs_member is not None
            for slot in node.trs_member._rbc._slots.values()
            if slot.delivered
        ]
        supporter_sets = sum(len(s.echoes or ()) + len(s.readies or ()) for s in slots)
    return {
        "residents": residents,
        "entries_per_resident": {
            name.strip("_"): count / residents for name, count in entries.items()
        },
        "delivered_slots": len(slots),
        "supporter_sets_on_delivered_slots": supporter_sets,
    }


def counters(scale: str = "small", seed: int = 7) -> dict:
    """Every counter at *scale*, as one JSON-able dict."""

    params = SCALES[scale]
    protocols, fig3a_cross = fig3a_counts(params["fig3a"], seed)
    total_calls = sum(c["calls"] for c in protocols.values())
    total_events = sum(c["events"] for c in protocols.values())
    hermes = protocols["hermes"]
    flood, flood_cross = flood_counts(params["flood"], seed)
    retained = flood_retained_bytes(params["flood"], seed)
    peak_kb = fig3a_peak_traced_kb(params["fig3a"], seed)
    fig8 = fig8_hermes_state(params["fig8"])
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
        "cross_bytes_per_draw": {"fig3a": fig3a_cross, "flood": flood_cross},
        "fig3a_peak_traced_kb": peak_kb,
        "fig8_hermes": fig8,
        "imports": imports(),
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
    cross = result["cross_bytes_per_draw"]
    lines.append(
        f"cross-region pair store: {cross['fig3a']:.1f} bytes per kept draw after "
        f"the Fig. 3a cell, {cross['flood']:.1f} after the flood"
    )
    lines.append(
        f"fig3a: {result['fig3a_peak_traced_kb']:,.1f} KiB traced peak "
        "(cold environment, four systems dropped without close())"
    )
    fig8 = result["fig8_hermes"]
    per = fig8["entries_per_resident"]
    lines.append(
        f"fig8 hermes: {fig8['residents']:,} mempool residents; index entries per "
        f"resident: fee heap {per['fee_heap']:.2f}, priority heap {per['prio_heap']:.2f}, "
        f"fifo {per['fifo']:.2f}, ttl queue {per['ttl_queue']:.2f}; "
        f"{fig8['supporter_sets_on_delivered_slots']:,} supporter sets on "
        f"{fig8['delivered_slots']:,} delivered RBC slots"
    )
    lines.append(format_imports(result["imports"]))
    return "\n".join(lines)


def format_imports(census: dict[str, dict]) -> str:
    lines = [f"{'imports (fresh interpreter)':<28} {'repro modules':>14} {'source lines':>13}"]
    for name, counts in census.items():
        lines.append(f"{name:<28} {counts['modules']:>14} {counts['lines']:>13,}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="small")
    parser.add_argument("--seed", type=int, default=7, help="origin-stream seed")
    parser.add_argument("--json", action="store_true", help="print JSON instead")
    parser.add_argument("--imports", action="store_true",
                        help="only the import census (a second or two)")
    args = parser.parse_args(argv)
    if args.imports:
        result = imports()
        print(json.dumps(result, indent=2) if args.json else format_imports(result))
        return 0
    result = counters(args.scale, args.seed)
    print(json.dumps(result, indent=2, sort_keys=True) if args.json else format_table(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One in-process workload, run once in a fresh interpreter.

``run.py`` starts this file as a child so that every run pays cold imports and
a cold ``build_environment`` cache and owns its peak RSS.  The result (phase
totals, simulated results and their digests, per-layer numbers, and on a
traced run the spans) is written as JSON to ``--out``.

A traced run does the same timed work and then, outside the timed region,
replays the overlay build from its public parts, times a cache hit and runs
the micro-probes; the traced flood runs its event loop in three segments.
"""

from __future__ import annotations

import time

T_ENTRY = time.perf_counter()

import argparse
import functools
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from tracing import Tracer
from workloads import PROTOCOL_LAYERS, SCALES


def simulated_result(system, summary) -> dict:
    """What one protocol run computed, in simulated units only."""

    stats = system.stats
    return {
        "events": system.simulator.events_processed,
        "deliveries": sum(len(nodes) for nodes in stats.deliveries.values()),
        "messages": sum(stats.messages_sent.values()),
        "bytes": stats.total_bytes(),
        "dropped": stats.messages_dropped,
        "latency": [summary.count, summary.mean, summary.p5, summary.p50, summary.p95],
    }


class Run:
    """Accumulates one workload run: spans, simulated results, layer numbers."""

    def __init__(self, workload: str, traced: bool) -> None:
        self.tracer = Tracer(run_id=workload, keep_spans=traced)
        self.traced = traced
        self.systems: dict[str, dict] = {}
        self.checks: list[dict] = []
        self.layers: dict[str, float] = {}
        self.run_s = 0.0

    def record(self, name: str, result: dict, expected_deliveries: int) -> None:
        """Book one lossless protocol-system run: one check of ``failed_share``."""

        self.systems[name] = result
        ok = result["deliveries"] == expected_deliveries
        self.check(name, ok,
                   f"deliveries {result['deliveries']} != expected {expected_deliveries}")

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append({"name": name, "ok": ok, "detail": "" if ok else detail})

    def book_layer(self, layer: str, result: dict) -> None:
        totals = self.tracer.totals
        run_s = totals[f"{layer}.run"]
        self.run_s += run_s
        self.layers.update({
            f"{layer}.construct_s": totals[f"{layer}.construct"],
            f"{layer}.submit_s": totals[f"{layer}.submit"],
            f"{layer}.run_s": run_s,
            f"{layer}.events": result["events"],
            f"{layer}.events_per_s": result["events"] / run_s,
            f"{layer}.messages": result["messages"],
            f"{layer}.bytes": result["bytes"],
            f"{layer}.deliveries": result["deliveries"],
        })


def summarize(run: Run, system):
    with run.tracer.span("net.stats.summarize"):
        summary = system.stats.latency_summary()
        system.stats.all_delivery_latencies()
    return summary


# ----------------------------------------------------------------------
# fig3a-n120-cold and fig3a-paper-n1100
# ----------------------------------------------------------------------


def fig3a(run: Run, params: dict, seed: int):
    """The Fig. 3a cell; returns what a traced run does after the timed region."""

    tracer = run.tracer
    with tracer.span("repro.import"):
        from repro.baselines.narwhal import NarwhalConfig
        from repro.experiments.harness import (
            PROTOCOL_NAMES, build_environment, protocol_factories,
        )
        from repro.mempool.transaction import Transaction
        from repro.utils.rng import derive_rng

    nodes = params["nodes"]
    env_args = dict(num_nodes=nodes, f=1, k=10, seed=0, paper_scale=params["paper_scale"])
    with tracer.span("experiments.harness.build_environment"):
        env = build_environment(**env_args)
    validators = params["narwhal_validators"]
    factories = protocol_factories(
        env,
        hermes_overrides={"gossip_fallback_enabled": False},
        narwhal_config=None if validators is None else NarwhalConfig(num_validators=validators),
    )
    # fig3a_latency's origin stream, drawn from the benchmark seed.
    rng = derive_rng(seed, "fig3a-origins")
    origins = [rng.choice(env.physical.nodes()) for _ in range(params["txs"])]

    means = {}
    for name in PROTOCOL_NAMES:
        layer = PROTOCOL_LAYERS[name]
        with tracer.span(f"{layer}.construct"):
            system = factories[name]()
        with tracer.span(f"{layer}.submit"):
            system.start()
            for origin in origins:
                system.submit(origin, Transaction.create(origin=origin, created_at=0.0))
        with tracer.span(f"{layer}.run"):
            system.run(until_ms=params["horizon_ms"])
        summary = summarize(run, system)
        result = simulated_result(system, summary)
        run.record(name, result, expected_deliveries=params["txs"] * nodes)
        run.book_layer(layer, result)
        means[name] = summary.mean

    run.layers["sim.lzero_hermes_ratio"] = means["lzero"] / means["hermes"]
    run.systems["fig3a"] = {
        "ordering": sorted(means, key=means.get),
        "lzero_hermes_ratio": means["lzero"] / means["hermes"],
    }
    return functools.partial(after_fig3a, run, env, env_args, params)


def after_fig3a(run: Run, env, env_args: dict, params: dict) -> None:
    """Traced run only, after the timed region: a cache hit, then the replay."""

    from repro.experiments.harness import build_environment

    with run.tracer.span("experiments.harness.cache_hit"):
        hit = build_environment(**env_args)
    run.layers["experiments.harness.cache_hit_us"] = (
        run.tracer.totals["experiments.harness.cache_hit"] * 1e6
    )
    run.check("cache-hit", hit is env, "second build_environment call missed the cache")
    replay_overlays(run, env, params)


def replay_overlays(run: Run, env, params: dict) -> None:
    """Rebuild the environment from ``build_overlay_family``'s public parts.

    Splits ``build_environment`` seconds into topology, tree build, pruning,
    annealing and validation, and proves the split is the real thing by
    requiring the replayed overlays to equal the environment's.
    """

    from repro.net.topology import generate_physical_network
    from repro.overlay.annealing import anneal
    from repro.overlay.base import RegionMeanSpace, TransportSpace
    from repro.overlay.rank import RankTracker
    from repro.overlay.robust_tree import (
        RobustTreeConfig, build_robust_tree, prune_to_minimal,
    )
    from repro.utils.rng import derive_rng

    tracer = run.tracer
    with tracer.span("overlay.replay"):
        with tracer.span("net.topology.generate"):
            physical = generate_physical_network(env.num_nodes, min_degree=4, seed=env.seed)
        paper = params["paper_scale"]
        space = RegionMeanSpace(physical) if paper else TransportSpace(physical)
        tree_config = RobustTreeConfig(layer_connect_count=env.f + 1) if paper else None
        ranks = RankTracker(physical.nodes())
        overlays = []
        for overlay_id in range(env.k):
            with tracer.span("overlay.robust_tree.build"):
                tree = build_robust_tree(
                    physical.nodes(), space, env.f, overlay_id, ranks, tree_config,
                    seed=env.seed,
                )
            if not paper:
                with tracer.span("overlay.robust_tree.prune"):
                    tree = prune_to_minimal(tree, space)
                with tracer.span("overlay.annealing.anneal"):
                    tree = anneal(tree, space, ranks,
                                  rng=derive_rng(env.seed, "anneal", overlay_id))
            with tracer.span("overlay.base.validate"):
                tree.validate(expected_nodes=physical.nodes())
            overlays.append(tree)
    for name in ("net.topology.generate", "overlay.robust_tree.build",
                 "overlay.robust_tree.prune", "overlay.annealing.anneal",
                 "overlay.base.validate"):
        run.layers[name + "_s"] = tracer.totals.get(name, 0.0)
    same = overlays == env.overlays  # dataclass equality: ids, depths, every edge
    run.check("overlay-replay", same, "replayed overlays differ from build_environment's")


# ----------------------------------------------------------------------
# flood-n2000-t80
# ----------------------------------------------------------------------


def flood(run: Run, params: dict, seed: int) -> None:
    tracer = run.tracer
    with tracer.span("repro.import"):
        from repro.baselines import LZeroSystem
        from repro.mempool.transaction import Transaction
        from repro.net.topology import generate_physical_network
        from repro.utils.rng import derive_rng

    nodes, txs, interval = params["nodes"], params["txs"], params["interval_ms"]
    layer = PROTOCOL_LAYERS["lzero"]
    with tracer.span("net.topology.generate"):
        physical = generate_physical_network(nodes, seed=0)
    with tracer.span(f"{layer}.construct"):
        system = LZeroSystem(physical, seed=13)
    with tracer.span(f"{layer}.submit"):
        rng = derive_rng(seed, "kernel-bench", nodes)
        node_ids = system.network.node_ids()
        system.start()
        for index in range(txs):
            origin = rng.choice(node_ids)
            when = index * interval

            def submit(origin=origin, when=when):
                system.submit(origin, Transaction.create(origin=origin, created_at=when))

            system.simulator.schedule(when, submit)
    horizon = txs * interval + params["drain_ms"]
    with tracer.span(f"{layer}.run"):
        if run.traced:
            # Three equal thirds of simulated time: the rates show what the
            # per-node state that accumulates over a run costs the event loop.
            marks = [0]
            for segment in (1, 2, 3):
                with tracer.span(f"net.simulator.seg{segment}"):
                    system.run(until_ms=horizon * segment / 3)
                marks.append(system.simulator.events_processed)
        else:
            system.run(until_ms=horizon)
    summary = summarize(run, system)
    result = simulated_result(system, summary)
    run.record("lzero", result, expected_deliveries=txs * nodes)
    run.book_layer(layer, result)
    run.layers["net.topology.generate_s"] = tracer.totals["net.topology.generate"]
    if run.traced:
        rates = [
            (marks[i] - marks[i - 1]) / tracer.totals[f"net.simulator.seg{i}"]
            for i in (1, 2, 3)
        ]
        for i, rate in enumerate(rates, start=1):
            run.layers[f"net.simulator.eps_seg{i}"] = rate
        run.layers["net.simulator.eps_decay"] = rates[2] / rates[0]


# ----------------------------------------------------------------------
# load-hermes-n200
# ----------------------------------------------------------------------


def load(run: Run, params: dict, seed: int) -> None:
    tracer = run.tracer
    with tracer.span("repro.import"):
        from repro.experiments.harness import build_environment, protocol_factories
        from repro.load.arrival import DeterministicArrivals
        from repro.load.capacity import CapacityConfig, CapacityModel
        from repro.load.driver import LoadDriver

    layer = PROTOCOL_LAYERS["hermes"]
    duration = params["duration_ms"]
    with tracer.span("experiments.harness.build_environment"):
        env = build_environment(params["nodes"], f=1, k=10, seed=0, optimize=False)
    with tracer.span(f"{layer}.construct"):
        system = protocol_factories(env)["hermes"]()
        system.network.capacity = CapacityModel(
            CapacityConfig(uplink_kb_per_s=128.0, downlink_kb_per_s=512.0,
                           queue_bytes=32 * 1024)
        )
    # A metronome, the seed drawing only the origins: with Poisson arrivals
    # the count and the bursts moved the work by +-15% from seed to seed.
    arrivals = DeterministicArrivals(
        rate_tps=params["injections"] * 1000.0 / duration,
        origins=env.physical.nodes(), seed=seed,
    )
    with tracer.span("load.arrival.schedule"):
        schedule = arrivals.schedule(duration)
    driver = LoadDriver(system, arrivals, protocol="hermes")
    tracer.totals[f"{layer}.submit"] = 0.0  # the driver submits inside its run
    with tracer.span(f"{layer}.run"):
        with tracer.span("load.driver.run"):
            outcome = driver.run(duration, drain_ms=params["drain_ms"])
    summary = summarize(run, system)
    result = simulated_result(system, summary)
    result["load"] = outcome.to_json()
    # Capacity drops make this run lossy, so there is no delivery count to
    # demand; the structural check is that the offered schedule went in.
    run.systems["hermes"] = result
    run.check("hermes",
              outcome.injected == len(schedule) == params["injections"] and outcome.delivered > 0,
              f"injected {outcome.injected}, delivered {outcome.delivered} "
              f"of {params['injections']}")
    run.book_layer(layer, result)
    run.layers.update({
        "load.arrival.schedule_s": tracer.totals["load.arrival.schedule"],
        "load.driver.run_s": tracer.totals["load.driver.run"],
        "load.driver.injected": outcome.injected,
        "load.driver.delivered": outcome.delivered,
        "load.driver.delivery_ratio": outcome.delivery_ratio,
        "load.capacity.drops": outcome.capacity_drops,
        "load.capacity.max_backlog_bytes": outcome.max_queue_bytes,
        "mempool.peak": outcome.mempool_peak,
    })


# ----------------------------------------------------------------------
# Micro-probes: attribute a moved end-to-end number without editing src/
# ----------------------------------------------------------------------


def probe_noop_events(count: int) -> float:
    """Events per second of the bare event list: *count* no-op events, each
    rescheduling itself, with a thousand pending at any time (a heap-sized
    queue, as in the protocol runs; no protocol state at all)."""

    from repro.net.simulator import Simulator

    simulator = Simulator()
    budget = [count]

    def tick() -> None:
        if budget[0] > 0:
            budget[0] -= 1
            simulator.schedule_call(1.0 + budget[0] % 7, tick)

    for index in range(1000):
        simulator.schedule_call(float(index % 7), tick)
    start = time.perf_counter()
    simulator.run()
    return simulator.events_processed / (time.perf_counter() - start)


def probe_gamma_draws(count: int) -> float:
    from repro.net.sampling import BlockSampler

    sampler = BlockSampler(random.Random(7))
    start = time.perf_counter()
    drawn = 0
    while drawn < count:
        drawn += len(sampler.gammas(4.0, 0.5, 4096))
    return drawn / (time.perf_counter() - start)


def probe_profiler_overhead(nodes: int, txs: int) -> float:
    """Extra run time of the kernel-throughput cell under SimulatorProfiler, in %."""

    from repro.baselines import LZeroSystem
    from repro.mempool.transaction import Transaction
    from repro.net.topology import generate_physical_network
    from repro.obs.profiler import SimulatorProfiler
    from repro.utils.rng import derive_rng

    physical = generate_physical_network(nodes, seed=0)

    def cell(profiled: bool) -> tuple[float, int]:
        system = LZeroSystem(physical, seed=13)
        if profiled:
            system.simulator.set_profiler(SimulatorProfiler())
        rng = derive_rng(11, "kernel-bench", nodes)
        origins = [rng.choice(system.network.node_ids()) for _ in range(txs)]
        system.start()
        for origin in origins:
            system.submit(origin, Transaction.create(origin=origin, created_at=0.0))
        start = time.perf_counter()
        system.run(until_ms=8_000.0)
        return time.perf_counter() - start, system.simulator.events_processed

    # Alternate the two so that drift in machine speed hits both sides.
    plain, profiled = [], []
    for _ in range(5):
        plain.append(cell(False))
        profiled.append(cell(True))
    if {events for _, events in plain} != {events for _, events in profiled}:
        raise AssertionError("the profiled event loop replayed a different event count")
    return 100.0 * (min(t for t, _ in profiled) / min(t for t, _ in plain) - 1.0)


def probe_store(records_dir: Path) -> dict[str, float]:
    """Per-record cost of the result store's write and read paths and of spec_hash."""

    import shutil

    from repro.runner.spec import spec_hash
    from repro.runner.store import ResultStore

    source = ResultStore(records_dir)
    records = list(source.records())
    scratch = records_dir.parent / (records_dir.name + "-probe")
    store = ResultStore(scratch)
    try:
        start = time.perf_counter()
        for record in records:
            store.save(record)
        saved = time.perf_counter()
        for record in records:
            store.load(record["spec_hash"])
        loaded = time.perf_counter()
        for record in records:
            spec_hash(record["spec"]["task"], record["spec"]["params"])
        hashed = time.perf_counter()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    per = 1e6 / len(records)
    return {
        "runner.store.save_us": (saved - start) * per,
        "runner.store.load_us": (loaded - saved) * per,
        "runner.spec.hash_us": (hashed - loaded) * per,
    }


def micro_probes(run: Run, smoke: bool) -> None:
    size = 20_000 if smoke else 300_000
    with run.tracer.span("probes"):
        with run.tracer.span("net.simulator.noop_probe"):
            run.layers["net.simulator.noop_events_per_s"] = probe_noop_events(size)
        with run.tracer.span("net.sampling.gamma_probe"):
            run.layers["net.sampling.gamma_draws_per_s"] = probe_gamma_draws(size)
        with run.tracer.span("obs.profiler.overhead_probe"):
            run.layers["obs.profiler.overhead_pct"] = probe_profiler_overhead(
                nodes=40 if smoke else 200, txs=4 if smoke else 30
            )


BODIES = {
    "fig3a-n120-cold": fig3a,
    "fig3a-paper-n1100": fig3a,
    "flood-n2000-t80": flood,
    "load-hermes-n200": load,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(BODIES))
    parser.add_argument("--store-probe", type=Path, metavar="RECORDS_DIR")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="bench")
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    if args.store_probe is not None:
        args.out.write_text(json.dumps(probe_store(args.store_probe)), encoding="utf-8")
        return 0

    run = Run(args.workload, traced=bool(args.traced))
    with run.tracer.span("workload"):
        after = BODIES[args.workload](run, SCALES[args.scale][args.workload], args.seed)
    t_done = time.perf_counter()
    if run.traced:
        if after is not None:
            after()
        micro_probes(run, smoke=args.scale == "smoke")
    events = sum(r["events"] for r in run.systems.values() if "events" in r)
    deliveries = sum(r["deliveries"] for r in run.systems.values() if "deliveries" in r)
    run.layers["sim.events"] = events
    run.layers["sim.deliveries"] = deliveries
    run.layers["net.stats.summarize_s"] = run.tracer.totals["net.stats.summarize"]
    run.layers["repro.import_s"] = run.tracer.totals["repro.import"]
    if "experiments.harness.build_environment" in run.tracer.totals:
        run.layers["experiments.harness.build_environment_s"] = run.tracer.totals[
            "experiments.harness.build_environment"
        ]
    args.out.write_text(json.dumps({
        "t_entry": T_ENTRY,
        "t_done": t_done,
        "t_exit": time.perf_counter(),
        "totals": run.tracer.totals,
        "events": events,
        "run_s": run.run_s,
        "checks": run.checks,
        "systems": run.systems,
        "layers": run.layers,
        "spans": run.tracer.spans,
    }), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

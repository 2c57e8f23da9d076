"""Integration: a finished cell frees itself.

Every registered task that builds a protocol system builds it in a ``with``
block, and ``close()`` cuts the node <-> network <-> simulator cycles, so
reference counting alone reclaims a cell once its record exists.  Checked
exactly, not by RSS: with the cyclic collector paused for the cell, a
``gc.collect()`` afterwards must find **zero** unreachable objects.  When it
does not, the failure message names the leaked types (a census of
``gc.garbage`` under ``DEBUG_SAVEALL``), which is usually enough to find the
cycle.

Each cell runs once first so memoized environments, lazily imported modules
and first-use caches do not count as leaks.
"""

import collections
import gc
import itertools
import math
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import pytest

from repro.baselines import LZeroSystem
from repro.core.config import HermesConfig
from repro.core.protocol import HermesSystem
from repro.errors import ConfigurationError
from repro.experiments.harness import build_environment, protocol_factories
from repro.mempool.transaction import Transaction
from repro.net.topology import generate_physical_network
from repro.runner.executor import _execute_record
from repro.runner.spec import RunSpec, canonical_json
from repro.sharding import ShardedSystem, ShardMap, ShardMapConfig

SRC = Path(__file__).resolve().parents[2] / "src"

FIG8 = {
    "rate_tps": 4.0,
    "num_nodes": 16,
    "duration_ms": 2_000.0,
    "drain_ms": 1_000.0,
    "num_clients": 10_000,
    "seed": 0,
}
FIG5A = {"fraction": 0.2, "trial": 0, "trials": 4, "num_nodes": 30, "seed": 0}
SMALL = {"num_nodes": 30, "k": 4}
FIG6 = {"rate_tps": 4.0, "num_nodes": 16, "k": 3, "duration_ms": 1_500.0,
        "drain_ms": 1_000.0}
FIG7 = {"strategy": "sandwich", "fraction": 0.2, "trial": 0, "trials": 2, **SMALL}
FIG9 = {"num_shards": 2, "protocol": "hermes", "total_nodes": 32, "k": 3,
        "duration_ms": 1_500.0, "drain_ms": 1_000.0, "trials": 1,
        "background_txs": 6}
BASELINES = ("lzero", "narwhal", "mercury")
EVERY_PROTOCOL = ("hermes",) + BASELINES + ("f3b", "gossip", "simple-tree")


def cell(task, **params):
    label = params.get("protocol", "")
    if "strategy" in params:
        label += f"-{params['strategy']}"
    return pytest.param(task, params, id=f"{task}-{label}")


CELLS = [
    *(cell("fig8.point", protocol=p, **FIG8) for p in ("hermes", *BASELINES, "ingest")),
    *(cell("fig5a.trial", protocol=p, **FIG5A) for p in ("hermes", *BASELINES)),
    *(cell("fig3a.protocol", protocol=p, transactions=3, horizon_ms=4_000.0, **SMALL)
      for p in ("hermes", *BASELINES)),
    *(cell("fig3b.protocol", protocol=p, duration_ms=6_000.0, **SMALL)
      for p in ("hermes", "narwhal")),
    *(cell("fig5b.trial", protocol=p, fraction=0.2, trial=0, trials=2, **SMALL)
      for p in ("hermes", "lzero")),
    *(cell("fig6.point", protocol=p, **FIG6) for p in ("hermes", "mercury")),
    *(cell("fig7.point", protocol=p, **FIG7) for p in ("hermes", "f3b")),
    cell("fig9.point", strategy="none", fraction=0.0, **FIG9),
    cell("fig9.point", strategy="sandwich", fraction=0.2, **FIG9),
    *(cell("chaos.run", scenario="escalation", protocol=p, num_nodes=24, k=3)
      for p in ("hermes", "lzero")),
    cell("drill.protocol", num_shards=2, shard_size=12, protocol="hermes",
         partitioned_shard=0, f=1, k=3, seed=0),
    *(cell("dissemination", protocol=p, fault_fraction=0.1, **SMALL)
      for p in EVERY_PROTOCOL),
]


def garbage_census(spec: RunSpec) -> str:
    """Rerun *spec* keeping its garbage; the ten most common leaked types."""

    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        _execute_record(spec, None)
        gc.collect()
        census = collections.Counter(
            f"{type(obj).__module__}.{type(obj).__qualname__}" for obj in gc.garbage
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return ", ".join(f"{name} x{count}" for name, count in census.most_common(10))


@pytest.fixture
def collector_paused():
    """The cyclic collector off for the test body, so no collection that
    happens to fall inside a cell reclaims part of a leak before it is
    counted (the event loop pauses the collector anyway)."""

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("task, params", CELLS)
def test_a_finished_cell_leaves_no_cyclic_garbage(task, params, collector_paused):
    spec = RunSpec(task=task, params=params)
    warm = _execute_record(spec, None)
    assert warm.ok, warm["error"]
    gc.collect()
    record = _execute_record(spec, None)
    unreachable = gc.collect()
    assert record.ok, record["error"]
    leaked = garbage_census(spec) if unreachable else ""
    assert unreachable == 0, f"{unreachable} unreachable objects after {task}: {leaked}"


def run_one(protocol: str):
    """``(system, origin_system)``: *protocol* (or a two-shard HERMES system)
    on the 30-node environment, one transaction submitted and run."""

    env = build_environment(num_nodes=30, f=1, k=4, seed=0)
    if protocol == "sharded":
        system = ShardedSystem(2, 60, protocol="hermes", k=4)
        origin_system = system.shard(0).system
    else:
        system = origin_system = protocol_factories(env)[protocol]()
    system.start()
    origin_system.submit(3, Transaction.create(origin=3, created_at=0.0))
    system.run(until_ms=2_000.0)
    return system, origin_system


def pair_draws(physical) -> dict:
    """Every per-pair draw *physical* keeps, by pair."""

    draws = {}
    for u, v in itertools.combinations(physical.nodes(), 2):
        if not physical.has_edge(u, v):
            store, at = physical._pair_slot(u, v)
            if not math.isnan(store[at]):
                draws[u, v] = store[at]
    return draws


@pytest.mark.parametrize("protocol", EVERY_PROTOCOL + ("sharded",))
def test_close_is_idempotent_and_leaves_the_environment_alone(
    protocol, collector_paused
):
    env = build_environment(num_nodes=30, f=1, k=4, seed=0)
    system, origin_system = run_one(protocol)
    delivered = dict(origin_system.stats.deliveries)
    draws = pair_draws(env.physical)
    overlays = [overlay.copy() for overlay in env.overlays]

    system.close()
    system.close()
    with system:  # a closed system still enters and exits cleanly
        pass

    # Results stay readable; the memoized environment is untouched.
    assert dict(origin_system.stats.deliveries) == delivered
    assert origin_system.simulator.pending_events() == 0
    assert pair_draws(env.physical) == draws
    assert env.overlays == overlays
    del system, origin_system
    assert gc.collect() == 0


@pytest.mark.parametrize("protocol", EVERY_PROTOCOL + ("sharded",))
def test_a_dropped_system_frees_itself_without_close(protocol, collector_paused):
    """Dropping the last reference is ``close()``: the system object is on no
    cycle, so its finalizer runs at the drop and refcounting frees the rest."""

    system, origin_system = run_one(protocol)
    network = weakref.ref(origin_system.network)
    del system, origin_system
    assert network() is None
    assert gc.collect() == 0


class Unbuildable(LZeroSystem):
    """A system whose constructor raises before it builds anything."""

    def __init__(self, physical) -> None:
        raise ConfigurationError("refused")


def tiny_physical():
    return generate_physical_network(3, min_degree=2, seed=0)


def hermes_short_of_overlays():
    env = build_environment(num_nodes=30, f=1, k=4, seed=0)
    return HermesSystem(env.physical, HermesConfig(num_overlays=4), overlays=env.overlays[:2])


@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
@pytest.mark.parametrize("build", [
    pytest.param(lambda: Unbuildable(tiny_physical()), id="before-anything"),
    pytest.param(lambda: HermesSystem(tiny_physical()), id="hermes-committee"),
    pytest.param(hermes_short_of_overlays, id="hermes-overlays"),
    pytest.param(
        lambda: ShardedSystem(2, 60, shard_map=ShardMap(ShardMapConfig(num_shards=3))),
        id="sharded-map",
    ),
    pytest.param(lambda: ShardedSystem(2, 60, protocol="paxos"), id="sharded-protocol"),
])
def test_a_constructor_that_raises_finalizes_quietly(build):
    """The finalizer of a half-built system closes only what was built."""

    with pytest.raises(ConfigurationError):
        build()
    gc.collect()


def test_a_worker_heap_stays_flat_over_repeated_cells(collector_paused):
    """The sweep-level guarantee behind a flat worker RSS, without RSS noise:
    the same cell three times in one process leaves exactly as many tracked
    objects behind as once, and the three records are the bytes a fresh
    process computes."""

    params = {"protocol": "hermes", **FIG8}
    spec = RunSpec(task="fig8.point", params=params)
    texts, counts = [], []
    for _ in range(3):
        texts.append(canonical_json(_execute_record(spec, None)))
        counts.append(len(gc.get_objects()))
    assert counts[2] == counts[0], counts

    script = textwrap.dedent(
        f"""
        import sys
        sys.path.insert(0, {str(SRC)!r})
        from repro.runner.executor import _execute_record
        from repro.runner.spec import RunSpec, canonical_json
        spec = RunSpec(task="fig8.point", params={params!r})
        sys.stdout.write(canonical_json(_execute_record(spec, None)))
        """
    )
    fresh = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert fresh.returncode == 0, fresh.stderr
    assert texts[0] == texts[1] == texts[2] == fresh.stdout

"""Shared experiment plumbing: environments, protocol factories, caching.

A physical network and its optimized overlay family are set-up that every
cell of a figure shares, so environments are memoized on their parameters —
the Fig. 3a, 5a and 5b benchmarks all reuse one family, exactly as one
deployment would.  The build itself is a fraction of a second at the
evaluation's sizes (docs/performance.md, "Overlay construction cost"); the
memo is there so a sweep pays it once per process, not once per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.config import HermesConfig
from ..core.protocol import HermesSystem
from ..baselines import (
    F3BSystem,
    GossipSystem,
    LZeroSystem,
    MercurySystem,
    NarwhalSystem,
    SimpleTreeSystem,
)
from ..net.faults import FaultPlan
from ..net.stats import NetworkStats
from ..net.topology import PhysicalNetwork, generate_physical_network
from ..obs import Observability
from ..overlay.base import Overlay
from ..overlay.rank import RankTracker
from ..overlay.robust_tree import build_overlay_family

__all__ = [
    "ExperimentEnvironment",
    "build_environment",
    "clear_environment_cache",
    "protocol_factories",
    "record_latency_metrics",
    "PROTOCOL_NAMES",
]

PROTOCOL_NAMES = ("hermes", "lzero", "narwhal", "mercury")


@dataclass
class ExperimentEnvironment:
    """Everything the experiments share: network, overlays, rank history."""

    num_nodes: int
    f: int
    k: int
    seed: int
    physical: PhysicalNetwork
    overlays: list[Overlay]
    rank_tracker: RankTracker
    build_seconds: float = 0.0

    def hermes_config(self, **overrides) -> HermesConfig:
        defaults = dict(f=self.f, num_overlays=self.k)
        defaults.update(overrides)
        return HermesConfig(**defaults)


_environment_cache: dict[
    tuple[int, int, int, int, bool, int, bool], ExperimentEnvironment
] = {}

# At or above this many nodes, build_environment defaults to the paper-scale
# construction profile (RegionMeanSpace, capped parent wiring, no annealing).
# Far above every committed small-scale experiment cell, so their outputs are
# untouched; N = 10,000 runs cross it and build in seconds instead of hours.
PAPER_SCALE_MIN_NODES = 5_000


def clear_environment_cache() -> None:
    """Drop every memoized environment (tests; long-lived worker hygiene)."""

    _environment_cache.clear()


def build_environment(
    num_nodes: int = 200,
    f: int = 1,
    k: int = 10,
    seed: int = 0,
    optimize: bool = True,
    min_degree: int = 4,
    paper_scale: bool | None = None,
) -> ExperimentEnvironment:
    """Build (or fetch from cache) a shared experiment environment.

    Every parameter that shapes the result — including ``min_degree``, which
    changes the generated physical topology — is part of the cache key.

    *paper_scale* selects the construction profile for very large networks:
    overlay construction measures candidate distances in
    :class:`~repro.overlay.base.RegionMeanSpace` (expected regional latency,
    O(1) per pair) instead of per-pair transport draws, wires each non-entry
    node to its ``f+1`` nearest previous-layer parents instead of the full
    layer, and skips the annealing pass.  ``None`` (default) auto-enables the
    profile at ``num_nodes >= PAPER_SCALE_MIN_NODES``.  The resulting family
    satisfies exactly the same robustness invariants (``Overlay.validate``
    still runs); see docs/performance.md for the cost model and the
    deviations this profile accepts.
    """

    import time

    from ..overlay.base import RegionMeanSpace
    from ..overlay.robust_tree import RobustTreeConfig

    if paper_scale is None:
        paper_scale = num_nodes >= PAPER_SCALE_MIN_NODES
    key = (num_nodes, f, k, seed, optimize, min_degree, paper_scale)
    if key in _environment_cache:
        return _environment_cache[key]
    start = time.perf_counter()
    physical = generate_physical_network(num_nodes, min_degree=min_degree, seed=seed)
    if paper_scale:
        overlays, ranks = build_overlay_family(
            physical,
            f=f,
            k=k,
            space=RegionMeanSpace(physical),
            tree_config=RobustTreeConfig(layer_connect_count=f + 1),
            optimize=False,
            seed=seed,
        )
    else:
        overlays, ranks = build_overlay_family(
            physical, f=f, k=k, optimize=optimize, seed=seed
        )
    env = ExperimentEnvironment(
        num_nodes=num_nodes,
        f=f,
        k=k,
        seed=seed,
        physical=physical,
        overlays=overlays,
        rank_tracker=ranks,
        build_seconds=time.perf_counter() - start,
    )
    _environment_cache[key] = env
    return env


def protocol_factories(
    env: ExperimentEnvironment,
    seed: int = 13,
    hermes_overrides: dict | None = None,
    obs: Observability | None = None,
    narwhal_config=None,
) -> dict[str, Callable]:
    """Factories ``(fault_plan, observe_hook) -> system`` for each protocol.

    Pass ``fault_plan=None`` / ``observe_hook=None`` for honest runs.  When
    *obs* is given, every constructed system is instrumented against it
    (tracer clocks rebind to each new system's simulator, so build and run
    systems one at a time when sharing a bundle across protocols).
    *narwhal_config* optionally replaces Narwhal's default
    :class:`~repro.baselines.narwhal.NarwhalConfig` — paper-scale runs use it
    to pin a fixed validator committee, since the default ``N/3`` validator
    set makes Narwhal's all-to-all batch sync quadratic in ``N``.
    """

    overrides = dict(hermes_overrides or {})

    def hermes(fault_plan: FaultPlan | None = None, observe_hook=None) -> HermesSystem:
        return HermesSystem(
            env.physical,
            env.hermes_config(**overrides),
            fault_plan=fault_plan,
            observe_hook=observe_hook,
            overlays=env.overlays,
            seed=seed,
            obs=obs,
        )

    def baseline(cls, **extra):
        def factory(fault_plan: FaultPlan | None = None, observe_hook=None):
            return cls(
                env.physical,
                fault_plan=fault_plan,
                observe_hook=observe_hook,
                seed=seed,
                obs=obs,
                **extra,
            )

        return factory

    narwhal_extra = {} if narwhal_config is None else {"config": narwhal_config}

    return {
        "hermes": hermes,
        "lzero": baseline(LZeroSystem),
        "narwhal": baseline(NarwhalSystem, **narwhal_extra),
        "mercury": baseline(MercurySystem),
        "f3b": baseline(F3BSystem),
        "gossip": baseline(GossipSystem),
        "simple-tree": baseline(SimpleTreeSystem),
    }


def record_latency_metrics(
    obs: Observability, stats: NetworkStats, protocol: str
) -> None:
    """Mirror a run's delivery latencies into the metrics registry.

    Fills the ``delivery.latency_ms`` histogram (labelled by protocol) from
    :meth:`NetworkStats.all_delivery_latencies` — the *same* population the
    figure scripts summarize — so the manifest's p5/p50/p95 agree exactly
    with the reported :class:`~repro.net.stats.LatencySummary`.
    """

    histogram = obs.metrics.histogram("delivery.latency_ms", protocol=protocol)
    for value in stats.all_delivery_latencies():
        histogram.observe(value)
    obs.metrics.counter("delivery.count", protocol=protocol).inc(
        sum(len(nodes) for nodes in stats.deliveries.values())
    )

"""The task registry: named run functions, safe under any start method.

A *task* is a module-level function ``params -> JSON-serializable result``
registered under a stable name.  Workers receive only ``(task name, params)``
across the process boundary and look the function up in this registry (a
forked worker finds it already loaded, a spawned one imports it fresh), so
nothing unpicklable ever travels to a worker.

Tasks must be deterministic functions of their parameters — every seed they
consume has to be part of ``params`` — because the result store addresses
records by the content hash of exactly those parameters.

Built-in tasks:

``dissemination``
    One protocol disseminating a transaction workload over a generated
    network, optionally under a byzantine fault plan.  The general-purpose
    cell for ad-hoc ``python -m repro sweep`` grids.
``table1.run`` / ``fig2.structure`` / ``fig3a.protocol`` / ``fig3b.protocol`` /
``fig4.family`` / ``fig5a.trial`` / ``fig5b.trial`` / ``fig6.point`` /
``fig7.point`` / ``fig8.point`` / ``fig9.point`` / ``chaos.run`` /
``drill.protocol`` / ``ablations.cell``
    The cells of the figures in :data:`FIGURES` (each figure module's
    ``FIGURE.run_cell``), resolved on first request.
``selftest.*``
    Tiny diagnostic tasks (echo / sleep / crash / unpicklable) used by the
    harness's own tests and by operators validating a new results directory.
"""

from __future__ import annotations

import importlib
import os
import time
from typing import Any, Callable, Mapping, NamedTuple

from ..errors import ConfigurationError

__all__ = [
    "FIGURES",
    "REPORT",
    "FigureEntry",
    "register_task",
    "get_figure",
    "get_task",
    "task_names",
    "dissemination",
]

TaskFn = Callable[[Mapping[str, Any]], Any]

_REGISTRY: dict[str, TaskFn] = {}


def register_task(name: str) -> Callable[[TaskFn], TaskFn]:
    """Register a task function under *name* (decorator)."""

    def decorate(fn: TaskFn) -> TaskFn:
        if name in _REGISTRY:
            raise ConfigurationError(f"task {name!r} is already registered")
        _REGISTRY[name] = fn
        return fn

    return decorate


class FigureEntry(NamedTuple):
    """A figure's module (under ``repro.experiments``), cell task and
    ``--list-figures`` line: listing reads these and imports no figure."""

    module: str
    task: str
    description: str


#: Every figure (each module declares one
#: :class:`repro.experiments.figure.Figure` as ``FIGURE``), imported on first
#: request, so a sweep of one figure's cells loads no other figure.
FIGURES = {
    "table1": FigureEntry("table1", "table1.run",
                          "measured comparison of dissemination approaches (paper Table I)"),
    "fig2": FigureEntry("fig2_overlays", "fig2.structure",
                        "overlay-structure latency and load spread (paper Fig. 2)"),
    "fig3a": FigureEntry("fig3a_latency", "fig3a.protocol",
                         "dissemination latency CDF across protocols (paper Fig. 3a)"),
    "fig3b": FigureEntry("fig3b_bandwidth", "fig3b.protocol",
                         "bandwidth overhead per protocol (paper Fig. 3b)"),
    "fig4": FigureEntry("fig4_roles", "fig4.family",
                        "role (rank) distribution across the overlays (paper Fig. 4)"),
    "fig5a": FigureEntry("fig5a_frontrunning", "fig5a.trial",
                         "front-running resistance vs adversary fraction (paper Fig. 5a)"),
    "fig5b": FigureEntry("fig5b_robustness", "fig5b.trial",
                         "delivery robustness under censorship (paper Fig. 5b)"),
    "ablations": FigureEntry("ablations", "ablations.cell", "design-choice ablations: k, "
                             "annealing, rank penalty, erasure batching (paper §IV, §V-B, §VIII-D)"),
    "fig6": FigureEntry("fig6_saturation", "fig6.point", "offered-load saturation "
                        "sweep under finite link capacity (extension)"),
    "fig7": FigureEntry("fig7_adversary", "fig7.point",
                        "strategy-zoo adversary grid: economics and fairness (extension)"),
    "fig8": FigureEntry("fig8_sustained", "fig8.point", "sustained million-client "
                        "population load with a fee market (extension)"),
    "fig9": FigureEntry("fig9_sharding", "fig9.point", "sharding scaling grid: "
                        "aggregate goodput and cross-shard fairness (extension)"),
    "chaos": FigureEntry("chaos_campaign", "chaos.run", "fault-injection campaigns "
                         "with online invariant checks (extension)"),
    "drill": FigureEntry("shard_drill", "drill.protocol", "cross-shard partition "
                         "drill: one committee islanded, the rest stay live (extension)"),
}

#: The paper's evaluation (§VIII) in order: ``sweep --figure all``, which is
#: also what a bare ``python -m repro`` runs.
REPORT = ("table1", "fig2", "fig3a", "fig3b", "fig4", "fig5a", "fig5b")


def get_figure(name: str):
    """The :class:`~repro.experiments.figure.Figure` registered as *name*."""

    if name not in FIGURES:
        raise ConfigurationError(
            f"unknown figure {name!r}; known figures: {', '.join(FIGURES)}"
        )
    return importlib.import_module(f"repro.experiments.{FIGURES[name].module}").FIGURE


def get_task(name: str) -> TaskFn:
    if name not in _REGISTRY:
        figure = name.partition(".")[0]
        if figure not in FIGURES or FIGURES[figure].task != name:
            raise ConfigurationError(
                f"unknown task {name!r}; known tasks: {', '.join(task_names())}"
            )
        _REGISTRY[name] = get_figure(figure).run_cell
    return _REGISTRY[name]


def task_names() -> list[str]:
    return sorted({*_REGISTRY, *(entry.task for entry in FIGURES.values())})


# ----------------------------------------------------------------------
# General-purpose dissemination cell
# ----------------------------------------------------------------------


@register_task("dissemination")
def dissemination(params: Mapping[str, Any]) -> dict[str, Any]:
    """One protocol run: workload of transactions, optional fault fraction.

    Parameters (all JSON scalars; defaults in parentheses): ``protocol``
    ('hermes'), ``num_nodes`` (60), ``f`` (1), ``k`` (4), ``transactions``
    (3), ``horizon_ms`` (6000), ``fault_fraction`` (0.0), ``behavior``
    ('drop-relay'), ``seed`` (0).

    Returns the raw per-run measurements the aggregation layer folds:
    delivery latencies, setup overheads, honest coverage, bandwidth.
    """

    from ..experiments.harness import build_environment, protocol_factories
    from ..mempool.transaction import Transaction
    from ..net.faults import Behavior, FaultPlan
    from ..utils.rng import derive_rng

    protocol = str(params.get("protocol", "hermes"))
    num_nodes = int(params.get("num_nodes", 60))
    f = int(params.get("f", 1))
    k = int(params.get("k", 4))
    transactions = int(params.get("transactions", 3))
    horizon_ms = float(params.get("horizon_ms", 6_000.0))
    fault_fraction = float(params.get("fault_fraction", 0.0))
    behavior = Behavior(str(params.get("behavior", "drop-relay")))
    seed = int(params.get("seed", 0))

    env = build_environment(num_nodes=num_nodes, f=f, k=k, seed=seed)
    factories = protocol_factories(env)
    if protocol not in factories:
        raise ConfigurationError(
            f"unknown protocol {protocol!r}; choose from {sorted(factories)}"
        )
    nodes = env.physical.nodes()
    rng = derive_rng(seed, "runner-dissemination", protocol)
    origins = [rng.choice(nodes) for _ in range(transactions)]
    plan = (
        FaultPlan.random_fraction(
            nodes, fault_fraction, behavior, seed=seed, protected=tuple(origins)
        )
        if fault_fraction > 0
        else None
    )
    items = []
    with factories[protocol](plan) as system:
        system.start()
        for origin in origins:
            tx = Transaction.create(origin=origin, created_at=0.0)
            items.append(tx.tx_id)
            system.submit(origin, tx)
        system.run(until_ms=horizon_ms)

    stats = system.stats
    honest = plan.honest_nodes(nodes) if plan is not None else list(nodes)
    coverages = []
    for item in items:
        delivered = set(stats.deliveries.get(item, {}))
        coverages.append(
            sum(1 for n in honest if n in delivered) / len(honest) if honest else 0.0
        )
    return {
        "protocol": protocol,
        "latencies": stats.all_delivery_latencies(),
        "setup_overheads": stats.setup_overheads(),
        "coverage": sum(coverages) / len(coverages) if coverages else 0.0,
        "total_bytes": stats.total_bytes(),
        "kb_per_minute": stats.bandwidth_kb_per_minute(horizon_ms),
        "messages_dropped": stats.messages_dropped,
    }


# ----------------------------------------------------------------------
# Diagnostic tasks (harness self-tests)
# ----------------------------------------------------------------------


@register_task("selftest.echo")
def _selftest_echo(params: Mapping[str, Any]) -> dict[str, Any]:
    """Return the parameters unchanged (pipeline smoke test)."""

    return dict(params)


@register_task("selftest.sleep")
def _selftest_sleep(params: Mapping[str, Any]) -> dict[str, Any]:
    """Sleep ``seconds`` then echo (exercises per-run timeouts)."""

    seconds = float(params.get("seconds", 0.0))
    time.sleep(seconds)
    return {"slept": seconds}


@register_task("selftest.crash")
def _selftest_crash(params: Mapping[str, Any]) -> dict[str, Any]:
    """Kill the executing process outright (exercises crash retry)."""

    os._exit(int(params.get("code", 17)))


@register_task("selftest.unpicklable")
def _selftest_unpicklable(params: Mapping[str, Any]) -> Any:
    """Return a value no pipe can carry (exercises the worker's result guard)."""

    return lambda: params

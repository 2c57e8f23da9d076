"""Fig. 3a — transaction dissemination latency per protocol.

Measures, for HERMES and the three baselines on one shared network, the mean
delivery latency and the 5th–95th percentile spread over a workload of
transactions from random origins.

Paper values (N = 10,000): Mercury 77.10 ms < HERMES 83.22 ms < Narwhal
106.61 ms < L∅ 172.02 ms, with L∅ the widest spread.  The reproduction
preserves the ordering and the L∅/HERMES ratio; see EXPERIMENTS.md for the
calibration discussion (our committee hand-off hops are costlier than the
paper's, so the Mercury/HERMES gap is wider).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from ..mempool.transaction import Transaction, reset_tx_ids
from ..net.events import reset_message_ids
from ..net.stats import LatencySummary, summarize_latencies
from ..obs import Observability
from ..utils.rng import derive_rng
from ..utils.tables import format_table
from .figure import Figure
from .harness import (
    PROTOCOL_NAMES,
    ExperimentEnvironment,
    build_environment,
    protocol_factories,
    record_latency_metrics,
)

__all__ = [
    "FIGURE",
    "Fig3aConfig",
    "Fig3aResult",
    "run",
    "format_result",
    "PAPER_VALUES",
    "cell_params",
    "run_cell",
    "fold",
]

# Protocol -> paper-reported average latency in ms.
PAPER_VALUES = {"mercury": 77.10, "hermes": 83.22, "narwhal": 106.61, "lzero": 172.02}


@dataclass(frozen=True, slots=True)
class Fig3aConfig:
    num_nodes: int = 200
    f: int = 1
    k: int = 10
    transactions: int = 10
    horizon_ms: float = 8_000.0
    seed: int = 0
    # Fixed Narwhal validator-committee size (None = the protocol default of
    # N/3).  Paper-scale runs must pin this: every validator relays every
    # batch to every other validator, so an N/3 committee costs O(N²)
    # messages per transaction.  See docs/performance.md.
    narwhal_validators: int | None = None

    def _narwhal_config(self):
        if self.narwhal_validators is None:
            return None
        from ..baselines.narwhal import NarwhalConfig

        return NarwhalConfig(num_validators=self.narwhal_validators)


@dataclass(frozen=True, slots=True)
class Fig3aResult:
    config: Fig3aConfig
    summaries: dict[str, LatencySummary]
    setup_overhead_ms: dict[str, float]

    def ordering(self) -> list[str]:
        """Protocols from fastest to slowest average latency."""

        return sorted(self.summaries, key=lambda name: self.summaries[name].mean)


def _workload(config: Fig3aConfig, env: ExperimentEnvironment) -> list[int]:
    """The deterministic transaction-origin workload for *config*."""

    rng = derive_rng(config.seed, "fig3a-origins")
    return [rng.choice(env.physical.nodes()) for _ in range(config.transactions)]


def cell_params(config: Fig3aConfig) -> list[dict[str, Any]]:
    """The repetition grid: one cell per protocol."""

    cells = []
    for name in PROTOCOL_NAMES:
        cell: dict[str, Any] = {
            "protocol": name,
            "num_nodes": config.num_nodes,
            "f": config.f,
            "k": config.k,
            "transactions": config.transactions,
            "horizon_ms": config.horizon_ms,
            "seed": config.seed,
        }
        # Only stamp the override when set, so existing stored sweeps keep
        # their parameter hashes (resume compatibility).
        if config.narwhal_validators is not None:
            cell["narwhal_validators"] = config.narwhal_validators
        cells.append(cell)
    return cells


def run_cell(
    params: Mapping[str, Any], *, obs: Observability | None = None
) -> dict[str, Any]:
    """Measure one protocol's workload; the ``fig3a.protocol`` runner task.

    Self-contained and fully seeded: the cell rebuilds (or fetches from the
    per-process cache) the environment and workload its parameters name, so
    a sweep of these cells reproduces the figure no matter how it is
    scheduled across processes.  With *obs* set the run is traced and
    instrumented, and the ``delivery.latency_ms`` histogram (labelled per
    protocol) is filled from the latency population the cell returns.
    """

    narwhal_validators = params.get("narwhal_validators")
    config = Fig3aConfig(
        num_nodes=int(params["num_nodes"]),
        f=int(params.get("f", 1)),
        k=int(params.get("k", 10)),
        transactions=int(params.get("transactions", 10)),
        horizon_ms=float(params.get("horizon_ms", 8_000.0)),
        seed=int(params.get("seed", 0)),
        narwhal_validators=(
            int(narwhal_validators) if narwhal_validators is not None else None
        ),
    )
    env = build_environment(
        num_nodes=config.num_nodes, f=config.f, k=config.k, seed=config.seed
    )
    factories = protocol_factories(
        env,
        hermes_overrides={"gossip_fallback_enabled": False},
        obs=obs,
        narwhal_config=config._narwhal_config(),
    )
    name = str(params["protocol"])
    with factories[name]() as system:
        # Construction rebinds the tracer clock to this system's simulator,
        # so open the per-protocol span only afterwards.
        span = obs.span("fig3a.protocol", protocol=name) if obs is not None else None
        system.start()
        for origin in _workload(config, env):
            system.submit(origin, Transaction.create(origin=origin, created_at=0.0))
        system.run(until_ms=config.horizon_ms)
    if obs is not None:
        record_latency_metrics(obs, system.stats, protocol=name)
        span.end()
    return {
        "protocol": name,
        "latencies": system.stats.all_delivery_latencies(),
        "setup_overheads": system.stats.setup_overheads(),
    }


def fold(config: Fig3aConfig, results: Iterable[Mapping[str, Any]]) -> Fig3aResult:
    """Fold the cells' results into the figure's result shape.

    The summaries are computed from each cell's raw latency population, so
    they match what ``NetworkStats.latency_summary`` derives in-process.
    """

    summaries: dict[str, LatencySummary] = {}
    overheads: dict[str, float] = {}
    for result in results:
        name = result["protocol"]
        summaries[name] = summarize_latencies(result["latencies"])
        setup = result["setup_overheads"]
        overheads[name] = sum(setup) / len(setup) if setup else 0.0
    return Fig3aResult(config=config, summaries=summaries, setup_overhead_ms=overheads)


def run(config: Fig3aConfig, *, obs: Observability) -> Fig3aResult:
    """The figure with every cell traced and instrumented by *obs*.

    The same cells :data:`FIGURE` runs, executed in this process (an
    :class:`~repro.obs.Observability` bundle cannot cross to a worker), each
    from fresh id counters as the sweep runner executes them, so the numbers
    equal ``FIGURE.run(config)``'s.
    """

    results = []
    for params in cell_params(config):
        reset_tx_ids()
        reset_message_ids()
        results.append(run_cell(params, obs=obs))
    return fold(config, results)


def format_result(result: Fig3aResult) -> str:
    rows = []
    for name in sorted(result.summaries, key=lambda n: result.summaries[n].mean):
        summary = result.summaries[name]
        rows.append(
            [
                name,
                summary.mean,
                summary.p5,
                summary.p95,
                result.setup_overhead_ms[name],
                PAPER_VALUES.get(name, float("nan")),
            ]
        )
    return format_table(
        [
            "protocol",
            "avg (ms)",
            "p5 (ms)",
            "p95 (ms)",
            "setup overhead (ms)",
            "paper avg (ms)",
        ],
        rows,
        title=(
            f"Fig. 3a — dissemination latency, N={result.config.num_nodes}, "
            f"{result.config.transactions} txs"
        ),
    )


FIGURE = Figure(
    name="fig3a",
    task="fig3a.protocol",
    config=Fig3aConfig,
    quick={"num_nodes": 80, "transactions": 4},
    cells=cell_params,
    run_cell=run_cell,
    fold=fold,
    format=format_result,
)

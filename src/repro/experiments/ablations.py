"""Ablations of the paper's design choices, one cell each.

* ``k_overlays`` (§IV): more overlays cost more overlay-distribution
  bandwidth but rotate who hears first, so dissemination gets fairer while
  latency stays in one band (each message uses one tree).
* ``annealing`` (§V-B): the optimization pipeline — Alg. 1's raw robust tree,
  the pruned tree, the pruned and annealed tree — on edge count, average
  latency and the Eq. (1) objective.
* ``rank_penalty`` (§V-B): the overlay family with and without accumulated
  rank balancing, on the Fig. 4 fairness metrics.
* ``erasure_batching`` (§VIII-D): a batch of transactions sent one by one
  through HERMES versus as Reed–Solomon shards, each over its own overlay.

Sizes and seeds are module constants, so the figure has no option and
``--quick`` runs the same four cells::

    python -m repro sweep --figure ablations
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from ..core.batching import BatchingHermesSystem
from ..core.config import HermesConfig
from ..core.protocol import HermesSystem
from ..errors import ConfigurationError, OverlayConnectivityError
from ..mempool.transaction import Transaction
from ..net.topology import generate_physical_network
from ..overlay.annealing import AnnealingConfig, anneal
from ..overlay.base import TransportSpace
from ..overlay.objective import evaluate_overlay
from ..overlay.rank import RankTracker
from ..overlay.robust_tree import build_overlay_family, build_robust_tree, prune_to_minimal
from ..utils.rng import derive_rng
from ..utils.tables import format_table
from .figure import Figure

__all__ = ["FIGURE", "ABLATIONS", "AblationsConfig", "cell_params", "run_cell", "fold",
           "format_result"]

K_OVERLAYS_N = 100
K_VALUES = (1, 4, 10)
K_OVERLAYS_TXS = 12

ANNEALING_N = 150

RANK_N = 120
RANK_K = 8

ERASURE_N = 120
ERASURE_K = 6
ERASURE_BATCH = 16
ERASURE_ORIGIN = 7


@dataclass(frozen=True, slots=True)
class AblationsConfig:
    """No field: every ablation runs at its fixed size and seeds."""


def _arrival_bias(stats, items, nodes, origins) -> float:
    """Mean over nodes of how far each node's average arrival position (0 =
    first, 1 = last) sits from the middle: 0 when nobody is systematically
    early or late."""

    positions: dict[int, list[float]] = {n: [] for n in nodes}
    for item in items:
        deliveries = dict(stats.deliveries.get(item, {}))
        deliveries.pop(origins[item], None)
        ordered = sorted(deliveries, key=lambda n: deliveries[n])
        denominator = max(len(ordered) - 1, 1)
        for position, node in enumerate(ordered):
            positions[node].append(position / denominator)
    return statistics.mean(
        abs(statistics.mean(values) - 0.5) for values in positions.values() if values
    )


def _k_overlays() -> list[dict[str, Any]]:
    physical = generate_physical_network(K_OVERLAYS_N, seed=0)
    rows = []
    for k in K_VALUES:
        overlays, _ranks = build_overlay_family(physical, f=1, k=k, seed=0)
        config = HermesConfig(f=1, num_overlays=k, gossip_fallback_enabled=False)
        rng = random.Random(3)
        with HermesSystem(physical, config, overlays=overlays, seed=5) as system:
            system.start()
            items, origins = [], {}
            for _ in range(K_OVERLAYS_TXS):
                origin = rng.choice(physical.nodes())
                tx = Transaction.create(origin=origin, created_at=0.0)
                items.append(tx.tx_id)
                origins[tx.tx_id] = origin
                system.submit(origin, tx)
            system.run(until_ms=10_000)
            rows.append({
                "k": k,
                "latency_ms": statistics.mean(system.stats.all_delivery_latencies()),
                "bias": _arrival_bias(system.stats, items, physical.nodes(), origins),
                "encoding_bytes": sum(c.size_bytes for c in system.certificates)
                * physical.num_nodes,
            })
    return rows


def _annealing() -> list[dict[str, Any]]:
    physical = generate_physical_network(ANNEALING_N, seed=0)
    space = TransportSpace(physical)
    ranks = RankTracker(physical.nodes())
    raw = build_robust_tree(physical.nodes(), space, f=1, overlay_id=0, ranks=ranks, seed=0)
    pruned = prune_to_minimal(raw, space)
    annealed = anneal(
        pruned,
        space,
        ranks,
        config=AnnealingConfig(
            initial_temperature=30.0,
            min_temperature=1.0,
            cooling_rate=0.9,
            moves_per_temperature=3,
        ),
        rng=derive_rng(0, "ablation-anneal"),
    )
    rows = []
    for stage, overlay in (("raw", raw), ("pruned", pruned), ("annealed", annealed)):
        try:
            overlay.validate(expected_nodes=physical.nodes())
            invalid = None
        except OverlayConnectivityError as error:
            invalid = str(error)
        rows.append({
            "stage": stage,
            "edges": overlay.num_edges,
            "latency_ms": statistics.mean(overlay.arrival_times(space).values()),
            "objective": evaluate_overlay(overlay, space, ranks).total,
            "invalid": invalid,
        })
    return rows


def _rank_penalty() -> list[dict[str, Any]]:
    physical = generate_physical_network(RANK_N, seed=0)
    rows = []
    for variant, balancing in (("with rank balancing", True), ("without (ablated)", False)):
        overlays, _ = build_overlay_family(
            physical, f=1, k=RANK_K, rank_balancing=balancing, seed=0
        )
        per_node_ranks: dict[int, list[int]] = {}
        entry_counts: dict[int, int] = {}
        for overlay in overlays:
            for node, depth in overlay.depth_of.items():
                per_node_ranks.setdefault(node, []).append(depth)
                if depth == 0:
                    entry_counts[node] = entry_counts.get(node, 0) + 1
        averages = [statistics.mean(ranks) for ranks in per_node_ranks.values()]
        rows.append({
            "variant": variant,
            "fairness_cv": statistics.pstdev(averages) / statistics.mean(averages),
            "max_entry_repeats": max(entry_counts.values()),
            "distinct_entries": len(entry_counts),
        })
    return rows


def _erasure_batching() -> list[dict[str, Any]]:
    physical = generate_physical_network(ERASURE_N, seed=2)
    overlays, _ranks = build_overlay_family(physical, f=1, k=ERASURE_K, seed=2)
    config = HermesConfig(f=1, num_overlays=ERASURE_K, gossip_fallback_enabled=False)
    txs = [
        Transaction.create(origin=ERASURE_ORIGIN, created_at=0.0) for _ in range(ERASURE_BATCH)
    ]
    with HermesSystem(physical, config, overlays=overlays, seed=4) as individual:
        individual.start()
        for tx in txs:
            individual.submit(ERASURE_ORIGIN, tx)
        individual.run(until_ms=12_000)
        individual_bytes = individual.stats.total_bytes()
    with BatchingHermesSystem(physical, config, overlays=overlays, seed=4) as batched:
        batched.start()
        batch = [
            Transaction.create(origin=ERASURE_ORIGIN, created_at=0.0)
            for _ in range(ERASURE_BATCH)
        ]
        batched.submit_batch(ERASURE_ORIGIN, batch)
        batched.run(until_ms=12_000)
        nodes = batched.nodes.values()
        decoded = statistics.mean(
            node.batches_decoded for node in nodes if node.node_id != ERASURE_ORIGIN
        )
        min_holders = min(sum(tx.tx_id in node.mempool for node in nodes) for tx in batch)
        batched_bytes = batched.stats.total_bytes()
    return [
        {"variant": "individual txs", "bytes": individual_bytes},
        {"variant": "erasure batch", "bytes": batched_bytes, "decoded": decoded,
         "min_holders": min_holders},
    ]


#: Cell order of the grid.
ABLATIONS: dict[str, Callable[[], list[dict[str, Any]]]] = {
    "k_overlays": _k_overlays,
    "annealing": _annealing,
    "rank_penalty": _rank_penalty,
    "erasure_batching": _erasure_batching,
}

#: Per ablation: table title, headers and the table row of one result row.
_TABLES: dict[str, tuple[str, list[str], Callable[[Mapping[str, Any]], list[Any]]]] = {
    "k_overlays": (
        f"Ablation — number of overlays k (N={K_OVERLAYS_N}, {K_OVERLAYS_TXS} txs)",
        ["k", "avg latency (ms)", "arrival bias (lower = fairer)", "encoding KB shipped"],
        lambda row: [row["k"], row["latency_ms"], row["bias"], row["encoding_bytes"] / 1024.0],
    ),
    "annealing": (
        f"Ablation — overlay optimization pipeline (N={ANNEALING_N}, f=1)",
        ["stage", "edges", "avg latency (ms)", "objective (Eq. 1)"],
        lambda row: [row["stage"], row["edges"], row["latency_ms"], row["objective"]],
    ),
    "rank_penalty": (
        f"Ablation — rank-based role balancing (N={RANK_N}, k={RANK_K}, f=1)",
        ["variant", "fairness CV", "max entry repeats", "distinct entry nodes"],
        lambda row: [row["variant"], row["fairness_cv"], row["max_entry_repeats"],
                     row["distinct_entries"]],
    ),
    "erasure_batching": (
        f"Ablation — erasure-coded batching (N={ERASURE_N}, batch={ERASURE_BATCH} txs, "
        f"f=1, k_r=2)",
        ["variant", "total KB on the wire", "batches decoded/node"],
        lambda row: [row["variant"], row["bytes"] / 1024.0,
                     f"{row['decoded']:.2f}" if "decoded" in row else "-"],
    ),
}


def cell_params(config: AblationsConfig) -> list[dict[str, Any]]:
    """One cell per ablation."""

    return [{"ablation": name} for name in ABLATIONS]


def run_cell(params: Mapping[str, Any]) -> list[dict[str, Any]]:
    """One ablation's rows; the ``ablations.cell`` runner task."""

    name = str(params["ablation"])
    if name not in ABLATIONS:
        raise ConfigurationError(f"unknown ablation {name!r}; known: {', '.join(ABLATIONS)}")
    return ABLATIONS[name]()


def fold(
    config: AblationsConfig, results: Iterable[list[dict[str, Any]]]
) -> dict[str, list[dict[str, Any]]]:
    """Ablation name → its rows."""

    return dict(zip(ABLATIONS, results))


def format_result(result: Mapping[str, list[Mapping[str, Any]]]) -> str:
    tables = []
    for name, rows in result.items():
        title, headers, table_row = _TABLES[name]
        tables.append(format_table(headers, [table_row(row) for row in rows], title=title))
    return "\n".join(tables)


FIGURE = Figure(
    name="ablations",
    task="ablations.cell",
    config=AblationsConfig,
    cells=cell_params,
    run_cell=run_cell,
    fold=fold,
    format=format_result,
)

"""Fig. 4 — role (rank) distribution across the overlay family.

The paper plots, for 200 nodes and k = 10 overlays, how often each node held
each rank (depth); rank 1 is an entry point.  The claims to verify:

* exactly ``k · (f+1)`` (node, overlay) pairs are entry points;
* ranks are widely spread — no node is consistently near the root or stuck at
  the leaves (role rotation).

We report the rank histogram, the per-node mean-rank spread, and a fairness
index (coefficient of variation of per-node average rank — lower is fairer).
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Any, Iterable, Mapping

from ..utils.tables import format_table
from .figure import Figure
from .harness import build_environment

__all__ = ["FIGURE", "Fig4Config", "Fig4Result", "format_result",
           "cell_params", "run_cell", "fold"]


@dataclass(frozen=True, slots=True)
class Fig4Config:
    num_nodes: int = 200
    f: int = 1
    k: int = 10
    seed: int = 0


@dataclass(frozen=True, slots=True)
class Fig4Result:
    config: Fig4Config
    # rank (depth + 1, matching the paper's 1-based figure) -> count of
    # (node, overlay) assignments at that rank.
    rank_histogram: dict[int, int]
    # node -> list of ranks it held across the k overlays.
    ranks_per_node: dict[int, list[int]]
    entry_assignments: int
    distinct_entry_nodes: int

    def per_node_average_rank(self) -> dict[int, float]:
        return {
            node: statistics.mean(ranks)
            for node, ranks in self.ranks_per_node.items()
        }

    def fairness_coefficient(self) -> float:
        """Coefficient of variation of per-node mean rank (lower = fairer)."""

        averages = list(self.per_node_average_rank().values())
        mean = statistics.mean(averages)
        if mean == 0:
            return 0.0
        return statistics.pstdev(averages) / mean

    def max_entry_repeats(self) -> int:
        """The most often any single node served as an entry point."""

        return max(
            (ranks.count(1) for ranks in self.ranks_per_node.values()), default=0
        )


def cell_params(config: Fig4Config) -> list[dict[str, Any]]:
    """The grid: one cell, the whole overlay family."""

    return [asdict(config)]


def run_cell(params: Mapping[str, Any]) -> dict[str, Any]:
    """Every node's ranks across the family; the ``fig4.family`` runner task.

    The ranks come as ``[node, ranks]`` pairs, not a node-keyed dict: a stored
    record gives JSON object keys back as strings, and a resumed fold must
    equal a fresh one.
    """

    config = Fig4Config(**params)
    env = build_environment(
        num_nodes=config.num_nodes, f=config.f, k=config.k, seed=config.seed
    )
    per_node: dict[int, list[int]] = {n: [] for n in env.physical.nodes()}
    for overlay in env.overlays:
        for node, depth in overlay.depth_of.items():
            per_node[node].append(depth + 1)  # the paper's figure is 1-based
    return {"ranks_per_node": [[node, ranks] for node, ranks in per_node.items()]}


def fold(config: Fig4Config, results: Iterable[Mapping[str, Any]]) -> Fig4Result:
    """The rank histogram and entry-point accounting of the one cell."""

    (result,) = results
    per_node = {node: list(ranks) for node, ranks in result["ranks_per_node"]}
    histogram = Counter(rank for ranks in per_node.values() for rank in ranks)
    return Fig4Result(
        config=config,
        rank_histogram=dict(sorted(histogram.items())),
        ranks_per_node=per_node,
        entry_assignments=histogram[1],
        distinct_entry_nodes=sum(1 for ranks in per_node.values() if 1 in ranks),
    )


def format_result(result: Fig4Result) -> str:
    from ..utils.ascii_chart import bar_chart

    rows = [
        [rank, count] for rank, count in result.rank_histogram.items()
    ]
    table = format_table(
        ["rank (1 = entry point)", "(node, overlay) assignments"],
        rows,
        title=(
            f"Fig. 4 — role distribution, N={result.config.num_nodes}, "
            f"k={result.config.k}, f={result.config.f}"
        ),
    )
    chart = bar_chart(
        {f"rank {rank}": count for rank, count in result.rank_histogram.items()},
        width=40,
    )
    lines = [
        table,
        chart,
        f"entry-point assignments: {result.entry_assignments} "
        f"(expected k*(f+1) = {result.config.k * (result.config.f + 1)})",
        f"distinct nodes serving as entry point: {result.distinct_entry_nodes}",
        f"max times one node was an entry point: {result.max_entry_repeats()}",
        f"fairness (CV of per-node mean rank, lower is fairer): "
        f"{result.fairness_coefficient():.3f}",
    ]
    return "\n".join(lines)


FIGURE = Figure(
    name="fig4",
    task="fig4.family",
    config=Fig4Config,
    quick={"num_nodes": 80},
    cells=cell_params,
    run_cell=run_cell,
    fold=fold,
    format=format_result,
)

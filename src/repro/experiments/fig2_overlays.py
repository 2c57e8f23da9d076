"""Fig. 2 — overlay-structure comparison.

For a single ``f+1``-connected instance of each structure (robust tree before
pruning, chordal ring, hypercube, random overlay) we measure:

* **dissemination latency** — mean arrival time across nodes when a message
  floods from ``f+1`` entry points over the structure's links;
* **load variance** — the standard deviation of the number of messages each
  node forwards during that flood.

Paper expectation: robust trees have the *lowest latency* but the *highest
load imbalance* of the four — the imbalance is then compensated by rotating
roles across the ``k`` overlays (Fig. 4).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from ..net.topology import PhysicalNetwork, generate_physical_network
from ..overlay.base import TransportSpace
from ..overlay.chordal_ring import build_chordal_ring
from ..overlay.hypercube import build_hypercube
from ..overlay.random_graph import build_random_connected_overlay
from ..overlay.rank import RankTracker
from ..overlay.robust_tree import build_robust_tree
from ..utils.tables import format_table
from .figure import Figure

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["FIGURE", "Fig2Config", "Fig2Row", "Fig2Result",
           "format_result", "cell_params", "run_cell", "fold"]

#: The comparison graphs, measured by a flood from ``f+1`` entry points.
_GRAPHS = {
    "chordal-ring": lambda nodes, config: build_chordal_ring(nodes, config.f),
    "hypercube": lambda nodes, config: build_hypercube(nodes),
    "random": lambda nodes, config: build_random_connected_overlay(
        nodes, config.f, seed=config.seed
    ),
}
STRUCTURES = ("robust-tree", *_GRAPHS)


@dataclass(frozen=True, slots=True)
class Fig2Config:
    num_nodes: int = 200
    f: int = 1
    seed: int = 0


@dataclass(frozen=True, slots=True)
class Fig2Row:
    structure: str
    avg_latency_ms: float
    load_stddev: float
    num_edges: int


@dataclass(frozen=True, slots=True)
class Fig2Result:
    config: Fig2Config
    rows: tuple[Fig2Row, ...]

    def row(self, structure: str) -> Fig2Row:
        for row in self.rows:
            if row.structure == structure:
                return row
        raise KeyError(structure)


def _flood_metrics(
    graph: nx.Graph,
    entries: list[int],
    physical: PhysicalNetwork,
) -> tuple[float, float]:
    """Latency and per-node forwarding load of a flood from *entries*.

    Every node forwards the message once to each neighbour (flooding), so its
    load equals its degree; arrival time is the latency-weighted shortest path
    from the nearest entry point.
    """

    import networkx as nx

    weighted = nx.Graph()
    weighted.add_nodes_from(graph.nodes)
    for u, v in graph.edges:
        weighted.add_edge(u, v, weight=physical.transport_latency(u, v))
    distances: dict[int, float] = {}
    for node_distances in (
        nx.single_source_dijkstra_path_length(weighted, entry) for entry in entries
    ):
        for node, dist in node_distances.items():
            if node not in distances or dist < distances[node]:
                distances[node] = dist
    reachable = [d for d in distances.values()]
    avg_latency = statistics.mean(reachable) if reachable else math.inf
    loads = [graph.degree[n] for n in graph.nodes]
    return avg_latency, statistics.pstdev(loads)


def cell_params(config: Fig2Config) -> list[dict[str, Any]]:
    """The grid: one cell per structure."""

    return [{"structure": name, **asdict(config)} for name in STRUCTURES]


def run_cell(params: Mapping[str, Any]) -> dict[str, Any]:
    """Build one structure and measure it; the ``fig2.structure`` runner task."""

    params = dict(params)
    structure = params.pop("structure")
    config = Fig2Config(**params)
    physical = generate_physical_network(config.num_nodes, seed=config.seed)
    node_ids = physical.nodes()
    if structure == "robust-tree":
        # Pre-pruning, measured on its directed dissemination flow.
        space = TransportSpace(physical)
        tree = build_robust_tree(
            node_ids, space, config.f, overlay_id=0, ranks=RankTracker(node_ids),
            seed=config.seed,
        )
        latency = statistics.mean(tree.arrival_times(space).values())
        load_sd = statistics.pstdev(len(kids) for kids in tree.successors.values())
        edges = tree.num_edges
    else:
        graph = _GRAPHS[structure](node_ids, config)
        latency, load_sd = _flood_metrics(graph, node_ids[: config.f + 1], physical)
        edges = graph.number_of_edges()
    return {
        "structure": structure,
        "avg_latency_ms": latency,
        "load_stddev": load_sd,
        "num_edges": edges,
    }


def fold(config: Fig2Config, results: Iterable[Mapping[str, Any]]) -> Fig2Result:
    """The cells' rows, in :data:`STRUCTURES` order."""

    return Fig2Result(config=config, rows=tuple(Fig2Row(**row) for row in results))


def format_result(result: Fig2Result) -> str:
    table = format_table(
        ["structure", "avg latency (ms)", "load stddev", "edges"],
        [
            [row.structure, row.avg_latency_ms, row.load_stddev, row.num_edges]
            for row in result.rows
        ],
        title=(
            f"Fig. 2 — overlay structures over {result.config.num_nodes} nodes "
            f"(f={result.config.f})"
        ),
    )
    note = (
        "paper expectation: robust tree lowest latency, highest load imbalance "
        "(compensated across the k overlays)"
    )
    return f"{table}\n{note}"


FIGURE = Figure(
    name="fig2",
    task="fig2.structure",
    config=Fig2Config,
    quick={"num_nodes": 80},
    cells=cell_params,
    run_cell=run_cell,
    fold=fold,
    format=format_result,
)

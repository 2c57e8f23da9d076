"""Table I — measured comparison of dissemination approaches.

The paper's Table I is qualitative; we regenerate it from measurements on the
common simulator.  For Gossip, Reliable Broadcast (Bracha among all nodes),
Simple Tree, and HERMES we measure:

* latency — mean delivery latency for a small transaction workload;
* message complexity — messages sent per node per transaction;
* load balance — coefficient of variation of per-node messages sent;
* robustness — honest coverage under 20% silently-dropping Byzantine nodes;
* dissemination fairness — per-node arrival-order bias across many
  transactions (a node that is always among the first receivers is evidence
  of unfairness);

and carry the two structural properties (accountability; the mechanism name)
from the protocol definitions.  Quantities are then classed Low/Moderate/High
relative to the four mechanisms, reproducing the paper's table shape.
"""

from __future__ import annotations

import statistics
from dataclasses import asdict, dataclass
from typing import Any, Hashable, Iterable, Mapping

from ..baselines.gossip import GossipConfig, GossipSystem
from ..baselines.simple_tree import SimpleTreeSystem
from ..core.protocol import HermesSystem
from ..mempool.transaction import Transaction
from ..net.faults import Behavior, FaultPlan
from ..net.node import Network
from ..net.simulator import Simulator
from ..rbc.bracha import BrachaNode
from ..utils.rng import derive_rng
from ..utils.tables import format_table
from .figure import Figure
from .harness import ExperimentEnvironment, build_environment

__all__ = ["FIGURE", "Table1Config", "Table1Row", "Table1Result",
           "format_result", "cell_params", "run_cell", "fold"]

# Structural facts the measurement cannot produce (from the protocols' designs).
_ACCOUNTABILITY = {
    "gossip": False,
    "reliable-broadcast": True,
    "simple-tree": False,
    "hermes": True,
}
_MECHANISM = {
    "gossip": "randomized gossip",
    "reliable-broadcast": "all-to-all quorum broadcast",
    "simple-tree": "fixed tree overlay",
    "hermes": "optimized robust tree overlays",
}


@dataclass(frozen=True, slots=True)
class Table1Config:
    num_nodes: int = 60
    f: int = 1
    k: int = 4
    transactions: int = 6
    byzantine_fraction: float = 0.20
    horizon_ms: float = 6_000.0
    seed: int = 0


@dataclass(frozen=True, slots=True)
class Table1Row:
    approach: str
    mechanism: str
    avg_latency_ms: float
    messages_per_node_per_tx: float
    load_cv: float
    fairness_bias: float
    robustness_coverage: float
    accountable: bool


@dataclass(frozen=True, slots=True)
class Table1Result:
    config: Table1Config
    rows: tuple[Table1Row, ...]

    def row(self, approach: str) -> Table1Row:
        for row in self.rows:
            if row.approach == approach:
                return row
        raise KeyError(approach)


class _RecordingBrachaNode(BrachaNode):
    """A Bracha participant that logs delivery times into the network stats."""

    def _record_delivery(self, source: int, sequence: int, payload: Hashable) -> None:
        super()._record_delivery(source, sequence, payload)
        self.network.stats.record_delivery(("rbc", sequence), self.node_id, self.now)


class _DroppingBrachaNode(_RecordingBrachaNode):
    """A Bracha participant that silently ignores all traffic (Byzantine)."""

    def on_message(self, sender: int, message) -> None:
        pass

    def broadcast(self, sequence: int, payload: Hashable) -> None:
        pass


def _run_bracha(
    env: ExperimentEnvironment, config: Table1Config, fault_plan: FaultPlan
):
    """All-node Bracha RBC dissemination of items ``("rbc", sequence)``; the stats."""

    simulator = Simulator()
    network = Network(simulator, env.physical, seed=config.seed)
    members = env.physical.nodes()
    nodes = {}
    for node_id in members:
        cls = (
            _DroppingBrachaNode
            if fault_plan.behavior_of(node_id) is not Behavior.HONEST
            else _RecordingBrachaNode
        )
        nodes[node_id] = cls(node_id, network, members, (len(members) - 1) // 3)
    rng = derive_rng(config.seed, "table1-bracha")
    for sequence in range(config.transactions):
        origin = rng.choice(members)
        # Each broadcast is an independent repetition: start it on a clean
        # simulator so sequence s cannot leak pending events into s+1.
        simulator.reset()
        network.stats.record_dissemination_start(("rbc", sequence), simulator.now)
        nodes[origin].broadcast(sequence, f"tx-{sequence}")
        simulator.run(until_ms=config.horizon_ms)
    return network.stats


def _fairness_bias(
    stats, items: list, nodes: list[int], item_origins: dict | None = None
) -> float:
    """Mean systematic arrival-order bias across nodes.

    For each item, nodes are ranked by arrival time (the item's origin is
    excluded — it trivially receives first).  A protocol is dissemination-fair
    when every node's mean normalized rank sits near 0.5; the returned value
    is the average of ``|mean rank − 0.5|`` over nodes, which approaches 0 for
    a fair protocol as the workload grows and stays large (≈0.25) for a fixed
    dissemination order.
    """

    origins = item_origins or {}
    positions: dict[int, list[float]] = {n: [] for n in nodes}
    for item in items:
        deliveries = dict(stats.deliveries.get(item, {}))
        deliveries.pop(origins.get(item), None)
        ordered = sorted(deliveries, key=lambda n: deliveries[n])
        denominator = max(len(ordered) - 1, 1)
        for position, node in enumerate(ordered):
            if node in positions:
                positions[node].append(position / denominator)
    biases = [
        abs(statistics.mean(values) - 0.5)
        for values in positions.values()
        if len(values) >= len(items) / 2
    ]
    return statistics.mean(biases) if biases else 0.0


def _measure_system(system, origins, horizon_ms):
    """One transaction from each origin: (stats, tx ids, tx id -> origin)."""

    item_origins = {}
    with system:
        system.start()
        for origin in origins:
            tx = Transaction.create(origin=origin, created_at=0.0)
            item_origins[tx.tx_id] = origin
            system.submit(origin, tx)
        system.run(until_ms=horizon_ms)
    return system.stats, list(item_origins), item_origins


def cell_params(config: Table1Config) -> list[dict[str, Any]]:
    """The grid: one cell measuring the four approaches in turn.

    Transaction ids feed the TRS overlay draw, so the approaches share one
    cell, and one id sequence, rather than each starting from fresh counters.
    """

    return [asdict(config)]


def run_cell(params: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Measure the four approaches; the ``table1.run`` runner task."""

    config = Table1Config(**params)
    env = build_environment(
        num_nodes=config.num_nodes, f=config.f, k=config.k, seed=config.seed
    )
    nodes = env.physical.nodes()
    rng = derive_rng(config.seed, "table1-origins")
    origins = [rng.choice(nodes) for _ in range(config.transactions)]
    plan = FaultPlan.random_fraction(
        nodes,
        config.byzantine_fraction,
        Behavior.DROP_RELAY,
        seed=config.seed,
        protected=tuple(origins),
    )
    honest = plan.honest_nodes(nodes)

    rows: list[Table1Row] = []

    def add_row(name: str, stats, items, item_origins=None) -> None:
        sent = [stats.messages_sent.get(n, 0) for n in nodes]
        mean_sent = statistics.mean(sent) if sent else 0.0
        latencies = [lat for item in items for lat in stats.delivery_latencies(item)]
        coverage = statistics.mean(
            len(set(stats.deliveries.get(item, {})).intersection(honest)) / len(honest)
            for item in items
        )
        rows.append(
            Table1Row(
                approach=name,
                mechanism=_MECHANISM[name],
                avg_latency_ms=statistics.mean(latencies) if latencies else 0.0,
                messages_per_node_per_tx=mean_sent / config.transactions,
                load_cv=statistics.pstdev(sent) / mean_sent if mean_sent else 0.0,
                fairness_bias=_fairness_bias(stats, items, honest, item_origins),
                robustness_coverage=coverage,
                accountable=_ACCOUNTABILITY[name],
            )
        )

    system = GossipSystem(
        env.physical, config=GossipConfig(fanout=6), fault_plan=plan, seed=config.seed
    )
    add_row("gossip", *_measure_system(system, origins, config.horizon_ms))
    items = [("rbc", sequence) for sequence in range(config.transactions)]
    add_row("reliable-broadcast", _run_bracha(env, config, plan), items)
    system = SimpleTreeSystem(env.physical, fault_plan=plan, seed=config.seed)
    add_row("simple-tree", *_measure_system(system, origins, config.horizon_ms))
    system = HermesSystem(
        env.physical,
        env.hermes_config(gossip_fallback_enabled=True),
        fault_plan=plan,
        overlays=env.overlays,
        seed=config.seed,
    )
    add_row("hermes", *_measure_system(system, origins, config.horizon_ms))

    return [asdict(row) for row in rows]


def fold(
    config: Table1Config, results: Iterable[list[Mapping[str, Any]]]
) -> Table1Result:
    """The one cell's rows, in measurement order."""

    (rows,) = results
    return Table1Result(config=config, rows=tuple(Table1Row(**row) for row in rows))


def _classify(value: float, values: list[float], reverse: bool = False) -> str:
    """Rank *value* among *values* into Low / Moderate / High."""

    ordered = sorted(values, reverse=reverse)
    position = ordered.index(value) / max(len(ordered) - 1, 1)
    if position < 1 / 3:
        return "Low"
    if position < 2 / 3:
        return "Moderate"
    return "High"


def format_result(result: Table1Result) -> str:
    latencies = [row.avg_latency_ms for row in result.rows]
    complexities = [row.messages_per_node_per_tx for row in result.rows]
    rows = []
    for row in result.rows:
        rows.append(
            [
                row.approach,
                _classify(row.avg_latency_ms, latencies),
                _classify(row.messages_per_node_per_tx, complexities),
                "yes" if row.fairness_bias < 0.15 else "no",
                "yes" if row.accountable else "no",
                "yes" if row.load_cv < 1.0 else "no",
                f"{row.robustness_coverage:.0%}",
            ]
        )
    table = format_table(
        [
            "approach",
            "latency",
            "msg complexity",
            "fair",
            "accountable",
            "load balanced",
            "robust (cov@20% byz)",
        ],
        rows,
        title=(
            f"Table I (measured) — N={result.config.num_nodes}, "
            f"{result.config.byzantine_fraction:.0%} byzantine"
        ),
    )
    detail = format_table(
        ["approach", "avg ms", "msgs/node/tx", "load CV", "fairness bias"],
        [
            [
                row.approach,
                row.avg_latency_ms,
                row.messages_per_node_per_tx,
                row.load_cv,
                row.fairness_bias,
            ]
            for row in result.rows
        ],
        title="raw measurements",
    )
    return f"{table}\n\n{detail}"


FIGURE = Figure(
    name="table1",
    task="table1.run",
    config=Table1Config,
    cells=cell_params,
    run_cell=run_cell,
    fold=fold,
    format=format_result,
)

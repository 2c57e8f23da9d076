"""Shared scaffolding for baseline protocol systems.

Every baseline follows the same lifecycle as :class:`repro.core.HermesSystem`:
construct over a :class:`PhysicalNetwork` with a :class:`FaultPlan`, ``start``,
``submit`` transactions at origin nodes, ``run`` the simulator, read
``stats``, ``close()`` (or build it in a ``with`` block).  :class:`BaseSystem`
implements that lifecycle; subclasses provide the node factory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..mempool.transaction import Transaction
from ..net.faults import Behavior, FaultPlan
from ..net.node import Deployment, Network, ProtocolNode
from ..net.simulator import Simulator
from ..net.topology import PhysicalNetwork

if TYPE_CHECKING:
    from ..obs.facade import Observability

__all__ = ["BaseSystem", "BaselineNode"]


class BaselineNode(ProtocolNode):
    """Common behaviour for baseline protocol nodes: local mempool delivery,
    Byzantine behaviour switch, and the observe hook used by attack drivers."""

    def __init__(
        self,
        node_id: int,
        network: Network,
        behavior: Behavior = Behavior.HONEST,
        observe_hook: Callable[["BaselineNode", Transaction], None] | None = None,
    ) -> None:
        super().__init__(node_id, network)
        from ..mempool.mempool import Mempool

        self.behavior = behavior
        self.observe_hook = observe_hook
        self.mempool = Mempool(owner=node_id)
        # Transactions this (malicious) node selectively refuses to forward —
        # the colluding adversary's censorship lever against a victim
        # transaction it is racing.  Attack drivers populate this through the
        # observe hook; honest nodes never touch it.
        self.censor_ids: set[int] = set()

    def censors(self, tx: Transaction) -> bool:
        return tx.tx_id in self.censor_ids

    def mark_first_transmission(self, tx: Transaction) -> None:
        """Record the paper's latency reference point for *tx*."""

        self.network.stats.record_dissemination_start(tx.tx_id, self.now)
        obs = self.network.obs
        if obs is not None:
            obs.event("tx.dispatch", tx_id=tx.tx_id, origin=self.node_id)

    def deliver_locally(
        self,
        tx: Transaction,
        record_stats: bool = True,
        sender: int | None = None,
        arrival_ms: float | None = None,
        **attrs: object,
    ) -> bool:
        """Record *tx* in the mempool (and, by default, the delivery stats).

        Protocols whose *usable* delivery lags mempool arrival (Narwhal's
        certificate) pass ``record_stats=False`` here and log the stats
        delivery themselves at the later point.  *sender* is the immediate
        predecessor the transaction arrived from (None for the origin's own
        copy); fresh remote arrivals emit a ``tx.deliver`` trace event — the
        parent edge :mod:`repro.obs.analysis` reconstructs dissemination
        trees from.  *arrival_ms* backdates the mempool arrival time (F3B
        records a transaction at its *commitment's* arrival so revealing late
        cannot reorder it); the emitted event carries it as ``arrival_ms`` so
        fairness analysis sees the same ordering the proposer uses.  Returns
        True if new.
        """

        network = self.network
        now = network.simulator.now
        if arrival_ms is not None:
            attrs["arrival_ms"] = arrival_ms
        if not self.mempool.add(tx, now if arrival_ms is None else arrival_ms):
            return False
        if record_stats:
            network.stats.record_delivery(tx.tx_id, self.node_id, now)
        obs = network.obs
        if obs is not None:
            obs.metrics.counter("mempool.insertions").inc()
            obs.metrics.gauge("mempool.depth.max").track_max(len(self.mempool))
            if sender is not None and sender != self.node_id:
                obs.event(
                    "tx.deliver",
                    tx_id=tx.tx_id,
                    node=self.node_id,
                    sender=sender,
                    **attrs,
                )
        if self.observe_hook is not None:
            self.observe_hook(self, tx)
        return True

    def submit_transaction(self, tx: Transaction) -> None:
        raise NotImplementedError

    def close(self) -> None:
        # Attack drivers' hooks close over the system that owns this node.
        self.observe_hook = None


class BaseSystem(Deployment):
    """Owns the simulator, network and node set of one baseline deployment."""

    def __init__(
        self,
        physical: PhysicalNetwork,
        fault_plan: FaultPlan | None = None,
        observe_hook: Callable[[BaselineNode, Transaction], None] | None = None,
        seed: int = 0,
        obs: Observability | None = None,
    ) -> None:
        self.physical = physical
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan.honest()
        self.observe_hook = observe_hook
        self.seed = seed
        self.simulator = Simulator()
        self.obs = obs
        self.network = Network(self.simulator, physical, seed=seed, obs=obs)
        self.nodes: dict[int, BaselineNode] = {}
        for node_id in physical.nodes():
            self.nodes[node_id] = self._make_node(
                node_id, self.fault_plan.behavior_of(node_id)
            )

    def _make_node(self, node_id: int, behavior: Behavior) -> BaselineNode:
        raise NotImplementedError

    def close(self) -> None:
        super().close()
        self.observe_hook = None

    # -- driving ----------------------------------------------------------

    def start(self) -> None:
        self.network.start_all()

    def submit(self, origin: int, tx: Transaction) -> None:
        self.network.stats.record_submission(tx.tx_id, self.simulator.now)
        if self.obs is not None:
            self.obs.event("tx.submit", tx_id=tx.tx_id, origin=origin)
        self.nodes[origin].submit_transaction(tx)

    def run(self, until_ms: float | None = None) -> float:
        return self.simulator.run(until_ms)

    @property
    def stats(self):
        return self.network.stats

    def honest_node_ids(self) -> list[int]:
        return self.fault_plan.honest_nodes(self.physical.nodes())

"""The cross-shard partition drill: one committee islanded, the rest must not care.

Sharding's resilience claim is *blast-radius containment*: a fault that takes
out one shard's TRS committee is a fault in **that shard only**.  This module
turns the claim into an executable invariant.  :func:`run_cross_shard_partition`
builds a :class:`~repro.sharding.ShardedSystem`, applies the
``cross-shard-partition`` builtin scenario's committee partition to exactly
one shard (through the same :class:`~repro.chaos.disruption.LinkDisruptor`
machinery the chaos engine uses), drives the same deterministic workload
through every shard, and snapshots per-transaction mempool coverage at each
liveness deadline.

Two things must hold:

* the **untouched shards never notice** — every one of their transactions
  reaches full coverage by its deadline exactly as in a fault-free run
  (:attr:`CrossShardPartitionReport.healthy_shards_live`, the verdict line of
  ``python -m repro sweep --figure drill``);
* the **partitioned shard degrades gracefully** — fresh TRS requests die
  against the islanded committee (there is no request retry), but
  submissions land in their origin's mempool first, the gossip fallback
  keeps spreading them among non-committee nodes, and the committee catches
  up after the heal, inside the deadline budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..chaos.disruption import LinkDisruptor
from ..chaos.scenario import get_scenario
from ..errors import ConfigurationError
from ..mempool.transaction import Transaction, reset_tx_ids
from ..net.events import reset_message_ids
from ..utils.rng import derive_rng
from .system import ShardedSystem

__all__ = [
    "ShardLiveness",
    "CrossShardPartitionReport",
    "run_cross_shard_partition",
]


@dataclass(frozen=True, slots=True)
class ShardLiveness:
    """One shard's delivery-liveness verdict under the drill."""

    shard: int
    partitioned: bool
    transactions: int
    #: Transactions at/above the scenario's ``min_coverage`` by deadline.
    delivered_by_deadline: int
    #: Worst per-transaction coverage observed at its deadline.
    min_coverage: float
    live: bool

    def to_json(self) -> dict[str, Any]:
        return {
            "shard": self.shard,
            "partitioned": self.partitioned,
            "transactions": self.transactions,
            "delivered_by_deadline": self.delivered_by_deadline,
            "min_coverage": self.min_coverage,
            "live": self.live,
        }


@dataclass(frozen=True, slots=True)
class CrossShardPartitionReport:
    """The whole drill's outcome, one liveness verdict per shard."""

    scenario: str
    protocol: str
    num_shards: int
    partitioned_shard: int
    horizon_ms: float
    per_shard: tuple[ShardLiveness, ...]

    @property
    def healthy_shards_live(self) -> bool:
        """The containment invariant: every untouched shard stayed live."""

        return all(
            entry.live for entry in self.per_shard if not entry.partitioned
        )

    @property
    def partitioned_shard_live(self) -> bool:
        """Did gossip carry even the islanded shard through its deadlines?"""

        return all(
            entry.live for entry in self.per_shard if entry.partitioned
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "protocol": self.protocol,
            "num_shards": self.num_shards,
            "partitioned_shard": self.partitioned_shard,
            "horizon_ms": self.horizon_ms,
            "healthy_shards_live": self.healthy_shards_live,
            "partitioned_shard_live": self.partitioned_shard_live,
            "per_shard": [entry.to_json() for entry in self.per_shard],
        }


def run_cross_shard_partition(
    num_shards: int = 3,
    shard_size: int = 16,
    *,
    protocol: str = "hermes",
    partitioned_shard: int = 0,
    f: int = 1,
    k: int = 4,
    seed: int = 0,
) -> CrossShardPartitionReport:
    """Partition one shard's committee; report every shard's liveness.

    The ``cross-shard-partition`` builtin scenario supplies the partition
    window, the per-shard workload and the liveness deadline.
    """

    scenario = get_scenario("cross-shard-partition")
    if not 0 <= partitioned_shard < num_shards:
        raise ConfigurationError(
            f"no shard {partitioned_shard} in a {num_shards}-shard deployment"
        )
    reset_tx_ids()
    reset_message_ids()
    system = ShardedSystem(
        num_shards,
        num_shards * shard_size,
        protocol=protocol,
        f=f,
        k=k,
        seed=seed,
    )
    partition_events = [
        event for event in scenario.events if event.kind == "committee-partition"
    ]
    submit_times = scenario.workload.submit_times()

    # Compile phase: schedule each shard's workload, the one partition, and
    # the deadline coverage snapshots, before any simulator advances.
    coverage: dict[int, dict[int, float]] = {}
    applied_partition = False
    for shard in system.shards:
        simulator = shard.system.simulator
        committee = set(shard.committee)
        if shard.shard_id == partitioned_shard and committee:
            disruptor = LinkDisruptor(
                derive_rng(seed, "cross-shard-partition", shard.shard_id)
            )
            shard.system.network.disruptor = disruptor
            for event in partition_events:
                disruptor.add_partition(
                    event.at_ms, event.heal_ms, frozenset(committee)
                )
                applied_partition = True
        rng = derive_rng(seed, "cross-shard-workload", shard.shard_id)
        pool = [n for n in shard.node_ids if n not in committee]
        if len(pool) < len(submit_times):
            raise ConfigurationError(
                f"shard {shard.shard_id}: {len(pool)} candidate origins cannot "
                f"host {len(submit_times)} distinct-origin submissions"
            )
        origins = sorted(rng.sample(pool, len(submit_times)))
        shard_coverage: dict[int, float] = {}
        coverage[shard.shard_id] = shard_coverage
        node_count = len(shard.system.nodes)
        for origin, time_ms in zip(origins, submit_times):
            tx = Transaction.create(origin=origin, created_at=time_ms)
            simulator.schedule_at(
                time_ms, lambda t=tx, s=shard.system: s.submit(t.origin, t)
            )

            def snapshot(
                tx_id: int = tx.tx_id,
                s: Any = shard.system,
                book: dict[int, float] = shard_coverage,
                total: int = node_count,
            ) -> None:
                held = sum(1 for node in s.nodes.values() if tx_id in node.mempool)
                book[tx_id] = held / total

            simulator.schedule_at(
                time_ms + scenario.liveness_deadline_ms, snapshot
            )

    with system:
        system.start()
        system.run(until_ms=scenario.horizon_ms)

    per_shard = []
    for shard in system.shards:
        book = coverage[shard.shard_id]
        delivered = sum(
            1 for cov in book.values() if cov >= scenario.min_coverage
        )
        worst = min(book.values(), default=0.0)
        per_shard.append(
            ShardLiveness(
                shard=shard.shard_id,
                partitioned=(
                    shard.shard_id == partitioned_shard and applied_partition
                ),
                transactions=len(book),
                delivered_by_deadline=delivered,
                min_coverage=worst,
                live=delivered == len(book),
            )
        )
    return CrossShardPartitionReport(
        scenario=scenario.name,
        protocol=protocol,
        num_shards=num_shards,
        partitioned_shard=partitioned_shard,
        horizon_ms=scenario.horizon_ms,
        per_shard=tuple(per_shard),
    )

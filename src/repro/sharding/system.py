"""The sharded deployment: independent per-shard systems behind one facade.

A :class:`ShardedSystem` partitions a ``total_nodes`` deployment into
``num_shards`` mirrored slices (:class:`~repro.sharding.plan.ShardPlan`) and
instantiates one complete protocol system per slice — its own simulator,
network, overlay family and (for HERMES) its own TRS committee — through the
ordinary :func:`~repro.experiments.harness.protocol_factories`.  Because
every shard has the same size and topology seed, the expensive physical
network + overlay build is paid **once** via the experiment-environment
cache, and a single-shard system is *constructed identically* to the
unsharded one (the byte-identity contract pinned by
``tests/integration/test_sharding_identity.py``).

What differs per shard:

* the protocol system seed (``SYSTEM_SEED + shard_id``), so committees,
  gossip peers and jitter streams are independent across shards;
* for HERMES with more than one shard, ``HermesConfig.shard_id`` — envelopes
  carry their shard and relays reject mis-routed traffic at admission.

Shards advance **sequentially and deterministically**: each shard's
simulator runs to the horizon before the next starts, so a sharded run is
replayable from its seeds exactly like every other run in this repository.
Cross-shard traffic enters through the
:class:`~repro.sharding.router.CrossShardRouter` (see :meth:`ShardedSystem.place`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..errors import ConfigurationError
from ..load.capacity import CapacityConfig, CapacityModel
from ..net.node import Deployment
from .map import ShardMap, ShardMapConfig
from .plan import ShardPlan
from .router import CrossShardRouter, RouteDecision

__all__ = ["Shard", "PlacedSubmission", "ShardedSystem"]

#: Shard *i*'s protocol system runs with seed ``SYSTEM_SEED + i`` (13 is the
#: harness's default system seed, so one shard is the unsharded system).
SYSTEM_SEED = 13


@dataclass
class Shard:
    """One slice of the deployment: a full protocol system plus its identity."""

    shard_id: int
    system: Any

    @property
    def committee(self) -> tuple[int, ...]:
        """The shard's TRS committee (empty for committee-free baselines)."""

        return tuple(getattr(self.system, "committee", ()))

    @property
    def node_ids(self) -> list[int]:
        """Local node ids (0..shard_size-1)."""

        return sorted(self.system.nodes)


@dataclass(frozen=True, slots=True)
class PlacedSubmission:
    """Where one client submission actually enters the sharded system."""

    shard: int
    origin_local: int
    time_ms: float
    routed: bool


class ShardedSystem(Deployment):
    """``num_shards`` independent protocol deployments over one node space.

    See the module docstring for the construction contract.  *capacity*
    installs one :class:`~repro.load.capacity.CapacityModel` per shard (each
    shard's links are accounted separately).  A submission routed to another
    shard pays one hop of the deployment's expected inter-region latency.
    """

    # Empty until the constructor builds the shards: close() skips it.
    shards: Sequence[Shard] = ()

    def __init__(
        self,
        num_shards: int,
        total_nodes: int,
        *,
        protocol: str = "hermes",
        f: int = 1,
        k: int = 4,
        seed: int = 0,
        shard_map: ShardMap | None = None,
        map_policy: str = "uniform",
        map_seed: int = 0,
        capacity: CapacityConfig | None = None,
    ) -> None:
        from ..experiments.harness import build_environment, protocol_factories

        self.plan = ShardPlan(num_shards=num_shards, total_nodes=total_nodes)
        self.protocol = protocol
        self.seed = seed
        # All shards share one mirrored environment: same size, same build
        # seed, one cache entry.  num_shards == 1 reuses the unsharded env.
        self.env = build_environment(
            num_nodes=self.plan.shard_size, f=f, k=k, seed=seed
        )
        if shard_map is None:
            shard_map = ShardMap(
                ShardMapConfig(
                    num_shards=num_shards,
                    policy=map_policy,
                    seed=map_seed,
                )
            )
        if shard_map.config.num_shards != num_shards:
            raise ConfigurationError(
                f"shard map covers {shard_map.config.num_shards} shards, "
                f"system has {num_shards}"
            )
        self.shard_map = shard_map
        # A cross-shard submission is at least one wide-area hop: the
        # deployment's expected inter-region link latency.
        self.router = CrossShardRouter(
            self.plan, hop_ms=float(self.env.physical.latency_model.parameters.inter_mean)
        )

        self.shards = []
        for sid in range(num_shards):
            # Envelope shard tags cost two wire bytes, so a single-shard
            # system stays byte-identical to the unsharded protocol.
            factories = protocol_factories(
                self.env,
                seed=SYSTEM_SEED + sid,
                hermes_overrides={"shard_id": sid} if num_shards > 1 else None,
            )
            if protocol not in factories:
                raise ConfigurationError(
                    f"unknown protocol {protocol!r}; known: {sorted(factories)}"
                )
            system = factories[protocol]()
            system.network.shard_id = sid
            if capacity is not None:
                system.network.capacity = CapacityModel(capacity)
            self.shards.append(Shard(shard_id=sid, system=system))

    # -- geometry ----------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    @property
    def total_nodes(self) -> int:
        return self.plan.total_nodes

    def shard(self, shard_id: int) -> Shard:
        return self.shards[shard_id]

    def global_node_ids(self) -> range:
        return range(self.plan.total_nodes)

    # -- submission placement ---------------------------------------------

    def place(
        self,
        time_ms: float,
        origin_global: int,
        key: Any = None,
        size_bytes: int = 250,
    ) -> PlacedSubmission:
        """Resolve one client submission to (shard, local origin, entry time).

        The shard map assigns the transaction's *key* (the client's global
        node id when no explicit key is given) to its owning shard.  A
        submission landing on the client's home shard enters directly and
        untouched; anything else pays the router's cross-shard hop and enters
        through the origin's mirror node on the target shard.
        """

        target = self.shard_map.assign(origin_global if key is None else key)
        home = self.plan.shard_of(origin_global)
        if target == home:
            return PlacedSubmission(
                shard=target,
                origin_local=self.plan.to_local(origin_global),
                time_ms=time_ms,
                routed=False,
            )
        decision: RouteDecision = self.router.route(
            time_ms, origin_global, target, size_bytes
        )
        return PlacedSubmission(
            shard=decision.shard,
            origin_local=decision.ingress_local,
            time_ms=decision.time_ms,
            routed=True,
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        for shard in self.shards:
            shard.system.start()

    def run_shard(self, shard_id: int, until_ms: float) -> float:
        """Run one shard's simulator to *until_ms*; shards run one at a time."""

        return self.shards[shard_id].system.run(until_ms=until_ms)

    def run(self, until_ms: float) -> float:
        """Run every shard to *until_ms*; returns the latest final time."""

        return max(
            self.run_shard(shard.shard_id, until_ms) for shard in self.shards
        )

    def close(self) -> None:
        """Close every shard's system (idempotent; see :class:`Deployment`)."""

        for shard in self.shards:
            shard.system.close()

    # -- aggregate accounting ---------------------------------------------

    def stats_by_shard(self) -> dict[int, Any]:
        """Each shard's :class:`~repro.net.stats.NetworkStats`."""

        return {shard.shard_id: shard.system.stats for shard in self.shards}

    def capacity_by_shard(self) -> dict[int, dict[str, float]]:
        """Per-shard wire/capacity accounting (the per-shard capacity books).

        Always reports bytes and drop counters; adds queue depth columns when
        the shard has a capacity model installed.
        """

        books: dict[int, dict[str, float]] = {}
        for shard in self.shards:
            network = shard.system.network
            stats = network.stats
            entry: dict[str, float] = {
                "bytes_sent": float(stats.total_bytes()),
                "messages_dropped": float(stats.messages_dropped),
                "capacity_drops": float(stats.capacity_drops),
            }
            capacity = network.capacity
            if capacity is not None:
                entry["max_queue_bytes"] = float(capacity.max_backlog_bytes)
            books[shard.shard_id] = entry
        return books

    def describe(self) -> dict[str, Any]:
        """JSON-ready deployment summary (for results and reports)."""

        return {
            "protocol": self.protocol,
            "num_shards": self.num_shards,
            "total_nodes": self.total_nodes,
            "shard_size": self.plan.shard_size,
            "map": self.shard_map.describe(),
            "router": self.router.describe(),
        }

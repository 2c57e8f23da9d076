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

* the protocol system seed (``system_seed + shard_id``), so committees,
  gossip peers and jitter streams are independent across shards;
* the optional fault plan / observe hook (per-shard Byzantine coalitions);
* the :class:`~repro.obs.TaggedObservability` view stamping ``shard=i`` on
  every trace event;
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
from typing import Any, Callable, Mapping, Sequence

from ..errors import ConfigurationError
from ..load.capacity import CapacityConfig, CapacityModel
from ..mempool.mempool import MempoolPolicy
from ..net.node import Deployment
from ..obs import Observability, TaggedObservability
from .map import ShardMap, ShardMapConfig
from .plan import ShardPlan
from .router import CrossShardRouter, RouteDecision

__all__ = ["Shard", "PlacedSubmission", "ShardedSystem"]


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
    shard's links are accounted separately); *mempool_policy* installs
    per-shard admission control on every node's mempool via the existing
    :class:`~repro.mempool.MempoolPolicy`; *fault_plans* / *observe_hooks*
    map shard id → the fault plan / hook for that shard's factory call.
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
        system_seed: int = 13,
        obs: Observability | None = None,
        shard_map: ShardMap | None = None,
        map_policy: str = "uniform",
        map_seed: int = 0,
        hot_threshold: int = 32,
        capacity: CapacityConfig | None = None,
        mempool_policy: MempoolPolicy | None = None,
        hermes_overrides: Mapping[str, Any] | None = None,
        fault_plans: Mapping[int, Any] | None = None,
        observe_hooks: Mapping[int, Callable] | None = None,
        cross_shard_hop_ms: float | None = None,
        narwhal_config: Any = None,
    ) -> None:
        from ..experiments.harness import build_environment, protocol_factories

        self.plan = ShardPlan(num_shards=num_shards, total_nodes=total_nodes)
        self.protocol = protocol
        self.obs = obs
        self.seed = seed
        self.system_seed = system_seed
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
                    hot_threshold=hot_threshold,
                )
            )
        if shard_map.config.num_shards != num_shards:
            raise ConfigurationError(
                f"shard map covers {shard_map.config.num_shards} shards, "
                f"system has {num_shards}"
            )
        self.shard_map = shard_map
        if cross_shard_hop_ms is None:
            # A cross-shard submission is at least one wide-area hop: use the
            # deployment's expected inter-region link latency.
            cross_shard_hop_ms = float(
                self.env.physical.latency_model.parameters.inter_mean
            )
        self.router = CrossShardRouter(self.plan, hop_ms=cross_shard_hop_ms)

        overrides = dict(hermes_overrides or {})
        fault_plans = dict(fault_plans or {})
        observe_hooks = dict(observe_hooks or {})
        self.shards = []
        for sid in range(num_shards):
            shard_obs = (
                TaggedObservability(obs, shard=sid) if obs is not None else None
            )
            shard_overrides = dict(overrides)
            if num_shards > 1:
                # Envelope shard tags cost two wire bytes, so a single-shard
                # system stays byte-identical to the unsharded protocol.
                shard_overrides.setdefault("shard_id", sid)
            factories = protocol_factories(
                self.env,
                seed=system_seed + sid,
                hermes_overrides=shard_overrides,
                obs=shard_obs,
                narwhal_config=narwhal_config,
            )
            if protocol not in factories:
                raise ConfigurationError(
                    f"unknown protocol {protocol!r}; known: {sorted(factories)}"
                )
            system = factories[protocol](
                fault_plans.get(sid), observe_hooks.get(sid)
            )
            system.network.shard_id = sid
            if capacity is not None:
                system.network.capacity = CapacityModel(capacity)
            if mempool_policy is not None:
                for node in system.nodes.values():
                    mempool = getattr(node, "mempool", None)
                    if mempool is not None:
                        mempool.install_policy(mempool_policy)
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
        """Run one shard's simulator to *until_ms* (rebinding the obs clock).

        Shards execute one at a time; with a shared observability bundle the
        tracer clock must follow the simulator that is actually advancing.
        """

        shard = self.shards[shard_id]
        if self.obs is not None:
            self.obs.attach(shard.system.simulator)
        return shard.system.run(until_ms=until_ms)

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

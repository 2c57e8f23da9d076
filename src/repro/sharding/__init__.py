"""Sharded multi-proposer dissemination: independent TRS committees per shard.

One HERMES deployment gives every proposer the same fair view of one
transaction stream — but a single committee and overlay family is a global
bottleneck: aggregate goodput is capped by one shard's capacity no matter
how many nodes join.  This package scales the system *horizontally* while
keeping the per-shard fairness guarantee intact:

* :class:`~repro.sharding.plan.ShardPlan` — equal mirrored slices of the
  global node space (``global = shard * shard_size + local``);
* :class:`~repro.sharding.map.ShardMap` — seeded, cross-process-stable
  tx→shard assignment (``uniform`` stable hashing or ``hot-key`` round-robin
  spreading of Zipf-head keys), property-tested for determinism and balance;
* :class:`~repro.sharding.router.CrossShardRouter` — deterministic ingress
  forwarding (and accounting) for submissions whose key lives off the
  client's home shard;
* :class:`~repro.sharding.system.ShardedSystem` — ``num_shards`` complete,
  independent protocol deployments (own simulator, network, overlays, TRS
  committee) behind one facade, with per-shard capacity books, per-shard
  mempool admission and shard-tagged tracing;
* :class:`~repro.sharding.workload.ShardedLoadDriver` — one global open-loop
  schedule split across shards, aggregated into the Fig. 9 goodput-scaling
  quantity;
* :func:`~repro.sharding.trial.run_sharded_adversary_trial` and
  :func:`~repro.sharding.fairness.cross_shard_fairness` — the strategy zoo
  run per shard, folded into the system-wide γ / inversion-rate verdict;
* :func:`~repro.sharding.chaos.run_cross_shard_partition` — the
  blast-radius drill: island one shard's committee, assert the others never
  notice.

``num_shards = 1`` is byte-identical to the unsharded system (golden-hash
pinned).  Both run from the shell as figures: the scaling grid
(:mod:`repro.experiments.fig9_sharding`, ``python -m repro sweep --figure
fig9``) and the drill (:mod:`repro.experiments.shard_drill`, ``python -m
repro sweep --figure drill``).  See ``docs/sharding.md``.
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "chaos": (
            "CrossShardPartitionReport",
            "ShardLiveness",
            "run_cross_shard_partition",
        ),
        "fairness": ("CrossShardFairness", "cross_shard_fairness"),
        "map": ("SHARD_POLICIES", "ShardMap", "ShardMapConfig", "shard_balance"),
        "plan": ("ShardPlan",),
        "router": ("CrossShardRouter", "RouteDecision"),
        "system": ("PlacedSubmission", "Shard", "ShardedSystem"),
        "trial": ("ShardedTrialResult", "run_sharded_adversary_trial"),
        "workload": ("ShardedLoadDriver", "ShardedLoadResult"),
    },
)

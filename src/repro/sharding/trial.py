"""Adversary trials against a sharded deployment, one strategy at a time.

Sharding changes the adversary's position: a coalition holding a fraction of
the *global* stake holds the same fraction of **each** shard (the fault plan
is drawn per shard at the same fraction), but every shard has its own TRS
committee and its own victim population, so an attack that relies on
observing the victim early has to succeed inside the victim's shard — it
cannot borrow vantage points from elsewhere.  The per-shard trials reuse the
PR 7 strategy zoo (:func:`~repro.adversary.run_adversary_trial`) completely
unchanged; this module only arranges the per-shard deployments and folds the
per-shard fairness reports through
:func:`~repro.sharding.fairness.cross_shard_fairness`.

Construction mirrors :class:`~repro.sharding.system.ShardedSystem` exactly
(shared mirrored environment, ``system_seed + shard_id`` per shard,
``HermesConfig.shard_id`` only when sharded) — but goes through the factory
contract the zoo needs, because the zoo must install the fault plan *before*
the system is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..adversary.zoo import AdversaryTrialResult, run_adversary_trial
from ..utils.rng import derive_rng
from .fairness import CrossShardFairness, cross_shard_fairness
from .plan import ShardPlan

__all__ = ["ShardedTrialResult", "run_sharded_adversary_trial"]


@dataclass(frozen=True, slots=True)
class ShardedTrialResult:
    """One strategy's outcome across every shard of one deployment."""

    strategy: str
    malicious_fraction: float
    num_shards: int
    fairness: CrossShardFairness
    #: Shards on which the adversary front-ran its victim.
    attacker_wins: int
    #: Shards on which the victim transaction was censored out of the block.
    victims_censored: int
    per_shard: Mapping[int, AdversaryTrialResult]

    def as_record(self) -> dict[str, Any]:
        """Flat JSON-friendly summary (one fig9 grid cell's fairness half)."""

        return {
            "strategy": self.strategy,
            "malicious_fraction": self.malicious_fraction,
            "num_shards": self.num_shards,
            "gamma": self.fairness.gamma,
            "inversion_rate": self.fairness.inversion_rate,
            "worst_shard": self.fairness.worst_shard,
            "attacker_wins": self.attacker_wins,
            "victims_censored": self.victims_censored,
        }


def run_sharded_adversary_trial(
    num_shards: int,
    total_nodes: int,
    *,
    strategy: str,
    malicious_fraction: float,
    protocol: str = "hermes",
    f: int = 1,
    k: int = 4,
    seed: int = 0,
    system_seed: int = 13,
    hermes_overrides: Mapping[str, Any] | None = None,
    trial_seed: int = 0,
    victim_fee: float = 0.0,
    background_txs: int = 24,
    proposal_delay_ms: float | None = None,
    horizon_ms: float = 5_000.0,
    protect_committee: bool = False,
) -> ShardedTrialResult:
    """Run *strategy* at *malicious_fraction* against every shard; aggregate.

    Each shard draws its own victim/proposer pair and its own coalition from
    ``derive_rng(trial_seed, "shard-trial", shard_id)`` — independent attacks
    on independent committees, which is the property the fig9 fairness
    columns measure.  *protect_committee* keeps each shard's TRS committee
    honest (the accountable-committee assumption; off by default so the
    coalition draw matches the unsharded fig7 trials).
    """

    from ..experiments.harness import build_environment, protocol_factories

    plan = ShardPlan(num_shards=num_shards, total_nodes=total_nodes)
    env = build_environment(num_nodes=plan.shard_size, f=f, k=k, seed=seed)
    node_ids = list(range(plan.shard_size))
    trials: dict[int, AdversaryTrialResult] = {}
    for sid in range(num_shards):
        overrides = dict(hermes_overrides or {})
        if num_shards > 1:
            overrides.setdefault("shard_id", sid)
        factories = protocol_factories(
            env, seed=system_seed + sid, hermes_overrides=overrides
        )
        factory = factories[protocol]
        rng = derive_rng(trial_seed, "shard-trial", sid)
        victim, proposer = rng.sample(node_ids, 2)
        protected: tuple[int, ...] = ()
        if protect_committee:
            with factory(None, None) as probe:
                protected = tuple(getattr(probe, "committee", ()))
        trials[sid] = run_adversary_trial(
            factory,
            node_ids,
            strategy,
            malicious_fraction,
            victim,
            proposer,
            victim_fee=victim_fee,
            background_txs=background_txs,
            proposal_delay_ms=proposal_delay_ms,
            horizon_ms=horizon_ms,
            seed=trial_seed * num_shards + sid,
            protected=protected,
        )
    fairness = cross_shard_fairness(
        {sid: trial.fairness for sid, trial in trials.items()}
    )
    return ShardedTrialResult(
        strategy=trials[0].strategy,
        malicious_fraction=malicious_fraction,
        num_shards=num_shards,
        fairness=fairness,
        attacker_wins=sum(
            1 for trial in trials.values() if trial.verdict.attacker_won
        ),
        victims_censored=sum(
            1 for trial in trials.values() if trial.verdict.victim_censored
        ),
        per_shard=trials,
    )

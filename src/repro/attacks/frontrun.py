"""Front-running adversary (paper §VIII-F).

Threat model: a fraction of nodes is malicious.  The *first* malicious node to
observe a victim transaction immediately generates an adversarial transaction
and disseminates it, racing the victim to the block proposer.  The attack
succeeds when the adversarial transaction precedes the victim's in the
proposer's block (built in local-arrival order).

How each protocol constrains the adversary:

* **HERMES** — relays only accept transactions from legitimate overlay
  predecessors carrying a valid TRS, so the adversary *must* go through the
  committee (paying the seed round-trip) and over a randomly assigned overlay
  it cannot choose.
* **L∅** — mempool commitments make out-of-band injection attributable, so the
  adversarial transaction travels through ordinary partner gossip.
* **Narwhal** — no dissemination accountability; the adversary broadcasts its
  own batch immediately (but so did the victim's origin, one hop to everyone).
* **Mercury** — no sender verification at all: the adversary injects the
  transaction *directly* to every node, skipping cluster routing entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..adversary.injection import (
    adversarial_strategy_for,
    censorship_is_deniable,
)
from ..baselines.base import BaseSystem
from ..core.protocol import HermesSystem
from ..mempool.blocks import build_block
from ..mempool.ordering import FrontRunVerdict, judge_front_running
from ..mempool.transaction import Transaction
from ..net.faults import Behavior, FaultPlan

__all__ = ["FrontRunResult", "FrontRunTrial", "run_front_running_trial"]


@dataclass(frozen=True, slots=True)
class FrontRunResult:
    """Outcome of one front-running trial."""

    verdict: FrontRunVerdict
    attacker: int | None
    observation_time: float | None
    victim_arrival_at_proposer: float | None
    adversarial_arrival_at_proposer: float | None
    #: :meth:`~repro.core.accountability.ViolationLog.summary` of the evidence
    #: the run produced, when the protocol keeps a violation log (HERMES);
    #: None for unaccountable baselines.
    violation_summary: dict | None = None

    @property
    def attack_launched(self) -> bool:
        return self.attacker is not None


@dataclass
class FrontRunTrial:
    """Mutable state shared by the observe hooks during one trial."""

    victim_tx_id: int
    attacker: int | None = None
    observation_time: float | None = None
    adversarial_tx: Transaction | None = None


def run_front_running_trial(
    system_factory: Callable[[FaultPlan, Callable], "BaseSystem | HermesSystem"],
    node_ids: list[int],
    malicious_fraction: float,
    victim: int,
    proposer: int,
    horizon_ms: float = 5_000.0,
    seed: int = 0,
    protected: tuple[int, ...] = (),
) -> FrontRunResult:
    """Run one complete front-running trial.

    *system_factory* receives the fault plan and an observe hook and must
    return a ready (unstarted) system.  The victim and proposer (and any
    *protected* ids, e.g. the TRS committee) are never corrupted.
    """

    plan = FaultPlan.random_fraction(
        node_ids,
        malicious_fraction,
        Behavior.FRONT_RUN,
        seed=seed,
        protected=(victim, proposer, *protected),
    )

    trial = FrontRunTrial(victim_tx_id=-1)
    strategy_holder: list[Callable] = []
    system_holder: list[object] = []

    def observe_hook(node, tx: Transaction) -> None:
        if node.behavior is not Behavior.FRONT_RUN:
            return
        if tx.tx_id != trial.victim_tx_id:
            return
        system = system_holder[0]
        # Every colluding observer censors the victim transaction where the
        # protocol cannot attribute it (set before the caller forwards).
        if censorship_is_deniable(system):
            node.censor_ids.add(tx.tx_id)
        # Only the first observer launches the adversarial transaction.
        if trial.attacker is not None:
            return
        trial.attacker = node.node_id
        trial.observation_time = node.now
        adversarial = Transaction.create(
            origin=node.node_id, created_at=node.now, tag="adversarial"
        )
        trial.adversarial_tx = adversarial
        strategy_holder[0](system, node, adversarial)

    with system_factory(plan, observe_hook) as system:
        system_holder.append(system)
        strategy_holder.append(adversarial_strategy_for(system))

        system.start()
        victim_tx = Transaction.create(origin=victim, created_at=0.0, tag="victim")
        trial.victim_tx_id = victim_tx.tx_id
        system.submit(victim, victim_tx)
        system.run(until_ms=horizon_ms)

    proposer_node = system.nodes[proposer]
    block = build_block(proposer_node.mempool, system.simulator.now)
    adversarial_ids = (
        [trial.adversarial_tx.tx_id] if trial.adversarial_tx is not None else []
    )
    verdict = judge_front_running(block, victim_tx.tx_id, adversarial_ids)

    def arrival(tx_id: int | None) -> float | None:
        if tx_id is None or tx_id not in proposer_node.mempool:
            return None
        return proposer_node.mempool.arrival_time(tx_id)

    violation_log = getattr(system, "violation_log", None)
    return FrontRunResult(
        verdict=verdict,
        attacker=trial.attacker,
        observation_time=trial.observation_time,
        victim_arrival_at_proposer=arrival(victim_tx.tx_id),
        adversarial_arrival_at_proposer=arrival(
            trial.adversarial_tx.tx_id if trial.adversarial_tx else None
        ),
        violation_summary=(
            violation_log.summary() if violation_log is not None else None
        ),
    )

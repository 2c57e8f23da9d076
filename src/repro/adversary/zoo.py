"""The zoo's trial runner: one strategy vs one protocol, fully scored.

:func:`run_adversary_trial` generalizes the legacy
:func:`repro.attacks.frontrun.run_front_running_trial` along three axes:

* the adversary is a pluggable :class:`~repro.adversary.agent.StrategyAgent`
  (by name or instance) instead of a hard-coded first-observer racer;
* the trial carries *background traffic*, so the proposer's block and the
  fairness metrics reflect a populated mempool rather than a two-transaction
  race;
* the outcome is scored three ways at once — the paper's binary verdict
  (:func:`~repro.mempool.ordering.judge_front_running`), extracted value
  (:meth:`~repro.adversary.economics.AttackLedger.settle`), and
  order-fairness over the honest nodes' receive orders
  (:mod:`repro.adversary.fairness`).

The legacy censorship and overload trials live here too
(:func:`run_censorship_trial`, :func:`run_overload_trial`), re-implemented on
the strategy agents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..mempool.blocks import Block, build_block
from ..mempool.ordering import FrontRunVerdict, judge_front_running
from ..mempool.transaction import Transaction
from ..net.faults import Behavior, FaultPlan
from ..utils.rng import derive_rng
from .agent import AgentContext, StrategyAgent, get_strategy
from .economics import AttackLedger, AttackOutcome, ValueModel
from .fairness import FairnessReport, fairness_report, receive_orders_from_mempools
from .strategies import FloodStrategy

__all__ = [
    "AdversaryTrialResult",
    "CensorshipResult",
    "OverloadResult",
    "run_adversary_trial",
    "run_censorship_trial",
    "run_overload_trial",
]


@dataclass(frozen=True, slots=True)
class AdversaryTrialResult:
    """Everything one trial produced, across all three scoring lenses."""

    strategy: str
    verdict: FrontRunVerdict
    outcome: AttackOutcome
    fairness: FairnessReport
    block: Block
    attacker: int | None
    #: When the launching coalition node read the victim's *content*.
    observation_time: float | None
    #: When any coalition-adjacent link first carried a victim frame
    #: (transport sighting — can precede content observation).
    first_frame_time: float | None
    victim_arrival_at_proposer: float | None
    #: Fraction of honest nodes the victim transaction reached.
    victim_coverage: float
    #: :meth:`~repro.core.accountability.ViolationLog.summary` when the
    #: protocol keeps a violation log (HERMES); None otherwise.
    violation_summary: dict | None = None

    @property
    def attack_launched(self) -> bool:
        return self.outcome.legs_launched > 0

    def as_record(self) -> dict:
        """A flat, JSON-friendly summary of the trial.

        The shape consumed by the ``adversary=`` section of
        :func:`repro.obs.analysis.report.render_report`.
        """

        return {
            "strategy": self.strategy,
            "attacker_won": bool(self.verdict.attacker_won),
            "victim_censored": bool(self.verdict.victim_censored),
            "gross": self.outcome.gross,
            "net": self.outcome.net,
            "gamma": self.fairness.gamma,
            "inversion_rate": self.fairness.inversion_rate,
            "victim_coverage": self.victim_coverage,
            "violations": (
                self.violation_summary["total"]
                if self.violation_summary is not None
                else 0
            ),
        }


def run_adversary_trial(
    system_factory: Callable[[FaultPlan, Callable], object],
    node_ids: list[int],
    strategy: str | StrategyAgent,
    malicious_fraction: float,
    victim: int,
    proposer: int,
    *,
    value_model: ValueModel | None = None,
    fee_market: object | None = None,
    victim_fee: float = 0.0,
    background_txs: int = 0,
    background_spacing_ms: float = 25.0,
    proposal_delay_ms: float | None = None,
    block_priority: bool | None = None,
    horizon_ms: float = 5_000.0,
    seed: int = 0,
    protected: tuple[int, ...] = (),
) -> AdversaryTrialResult:
    """Run one complete strategy-vs-protocol trial.

    *system_factory* receives the fault plan and an observe hook and must
    return a ready (unstarted) system — the same contract as the figure
    harness factories.  The victim, proposer and any *protected* ids (e.g.
    the TRS committee) are never corrupted.

    ``background_txs`` honest transactions are submitted every
    ``background_spacing_ms`` from deterministic honest origins, the victim's
    in the middle of the stream.  ``proposal_delay_ms`` models the proposer
    sealing its block a fixed beat after the victim arrives (late adversarial
    legs miss the cutoff); ``None`` packs everything that arrived by the
    horizon.  ``block_priority`` overrides the strategy's declared block
    policy (fee market vs arrival order).  ``fee_market`` (a
    :class:`repro.population.FeeMarket`) makes fee-bidding strategies price
    their legs against the live base fee via :meth:`AgentContext.bid_fee`
    instead of a flat premium; ``None`` (the default) reproduces the
    historical flat-premium trials exactly.
    """

    agent = get_strategy(strategy) if isinstance(strategy, str) else strategy
    plan = FaultPlan.random_fraction(
        node_ids,
        malicious_fraction,
        agent.behavior,
        seed=seed,
        protected=(victim, proposer, *protected),
    )
    coalition = frozenset(
        node_id
        for node_id in node_ids
        if plan.behavior_of(node_id) is not Behavior.HONEST
    )
    ledger = AttackLedger()
    ctx = AgentContext(
        system=None,
        coalition=coalition,
        ledger=ledger,
        value_model=value_model if value_model is not None else ValueModel(),
        target=proposer,
        fee_market=fee_market,
    )

    def observe_hook(node, tx: Transaction) -> None:
        if node.node_id in coalition:
            agent.observe(node, tx)

    with system_factory(plan, observe_hook) as system:
        ctx.system = system
        agent.attach(ctx)
        system.start()

        # -- workload: background stream with the victim in the middle ----
        honest = plan.honest_nodes(node_ids)
        rng = derive_rng(seed, "adversary-background")
        origins = [rng.choice(honest) for _ in range(background_txs)]
        before = background_txs // 2
        submissions: list[tuple[float, int, Transaction]] = []
        slot = 0
        for index, origin in enumerate(origins):
            if index == before:
                slot += 1  # leave the victim's slot open
            submissions.append(
                (
                    slot * background_spacing_ms,
                    origin,
                    Transaction.create(
                        origin=origin, created_at=slot * background_spacing_ms
                    ),
                )
            )
            slot += 1
        victim_time = before * background_spacing_ms
        victim_tx = Transaction.create(
            origin=victim, created_at=victim_time, tag="victim", fee=victim_fee
        )
        submissions.append((victim_time, victim, victim_tx))
        ctx.victim_tx_id = victim_tx.tx_id
        simulator = system.simulator
        for when, origin, tx in submissions:
            simulator.schedule_at(
                when, lambda origin=origin, tx=tx: system.submit(origin, tx)
            )

        system.run(until_ms=horizon_ms)
        agent.finalize()

    # -- scoring ----------------------------------------------------------
    proposer_node = system.nodes[proposer]
    victim_arrival = (
        proposer_node.mempool.arrival_time(victim_tx.tx_id)
        if victim_tx.tx_id in proposer_node.mempool
        else None
    )
    cutoff = (
        victim_arrival + proposal_delay_ms
        if proposal_delay_ms is not None and victim_arrival is not None
        else None
    )
    priority = agent.block_priority if block_priority is None else block_priority
    block = build_block(
        proposer_node.mempool, simulator.now, cutoff_ms=cutoff, priority=priority
    )
    verdict = judge_front_running(block, victim_tx.tx_id, ledger.adversarial_ids())
    outcome = ledger.settle(block, victim_tx.tx_id, ctx.value_model)

    interesting = [tx.tx_id for _, _, tx in submissions] + ledger.adversarial_ids()
    orders = receive_orders_from_mempools(system, nodes=honest, tx_ids=interesting)
    fairness = fairness_report(orders)

    delivered = set(system.stats.deliveries.get(victim_tx.tx_id, {}))
    coverage = (
        sum(1 for node in honest if node in delivered) / len(honest)
        if honest
        else 0.0
    )
    violation_log = getattr(system, "violation_log", None)
    return AdversaryTrialResult(
        strategy=agent.name,
        verdict=verdict,
        outcome=outcome,
        fairness=fairness,
        block=block,
        attacker=getattr(agent, "attacker", None),
        observation_time=getattr(agent, "observation_time", None),
        first_frame_time=agent.first_frame_ms.get(victim_tx.tx_id),
        victim_arrival_at_proposer=victim_arrival,
        victim_coverage=coverage,
        violation_summary=(
            violation_log.summary() if violation_log is not None else None
        ),
    )


# ----------------------------------------------------------------------
# Legacy trials, re-implemented on the strategy agents
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CensorshipResult:
    """Coverage outcome of one censorship (blackout) trial."""

    malicious_fraction: float
    honest_nodes: int
    reached: int
    #: :meth:`~repro.core.accountability.ViolationLog.summary` of the evidence
    #: the run produced, when the protocol keeps a violation log (HERMES);
    #: None for unaccountable baselines.
    violation_summary: dict | None = None

    @property
    def coverage(self) -> float:
        return self.reached / self.honest_nodes if self.honest_nodes else 0.0


def run_censorship_trial(
    system_factory: Callable[[FaultPlan], object],
    node_ids: list[int],
    malicious_fraction: float,
    sender: int,
    horizon_ms: float = 5_000.0,
    seed: int = 0,
    protected: tuple[int, ...] = (),
) -> CensorshipResult:
    """Disseminate one message under a relay blackout; measure honest coverage.

    The adversary is :class:`~repro.adversary.strategies.BlackoutStrategy` —
    its entire effect is the coalition's ``DROP_RELAY`` behaviour, so the
    fault plan (and therefore every measurement) is bit-identical to the
    pre-zoo censorship driver's.  The factory
    keeps the legacy single-argument contract (no observe hook).
    """

    agent = get_strategy("blackout")
    plan = FaultPlan.random_fraction(
        node_ids,
        malicious_fraction,
        agent.behavior,
        seed=seed,
        protected=(sender, *protected),
    )
    with system_factory(plan) as system:
        system.start()
        tx = Transaction.create(origin=sender, created_at=0.0)
        system.submit(sender, tx)
        system.run(until_ms=horizon_ms)

    honest = plan.honest_nodes(node_ids)
    delivered = set(system.stats.deliveries.get(tx.tx_id, {}))
    reached = sum(1 for node in honest if node in delivered)
    violation_log = getattr(system, "violation_log", None)
    return CensorshipResult(
        malicious_fraction=malicious_fraction,
        honest_nodes=len(honest),
        reached=reached,
        violation_summary=(
            violation_log.summary() if violation_log is not None else None
        ),
    )


@dataclass(frozen=True, slots=True)
class OverloadResult:
    """Latency with and without the flooder."""

    baseline_mean_ms: float
    attacked_mean_ms: float

    @property
    def degradation(self) -> float:
        """Multiplicative latency blow-up caused by the attack."""

        if self.baseline_mean_ms == 0:
            return float("inf")
        return self.attacked_mean_ms / self.baseline_mean_ms


def run_overload_trial(
    system_factory: Callable[[], object],
    sender: int,
    target: int,
    flood_interval_ms: float = 0.5,
    horizon_ms: float = 5_000.0,
) -> OverloadResult:
    """Measure mean delivery latency without and with a flooder on *target*.

    The attacked leg attaches a
    :class:`~repro.adversary.strategies.FloodStrategy` agent (empty
    coalition: the out-of-population flooder node is the whole attack).  The
    factory must build systems whose network has ``service_time_ms > 0``
    (otherwise nodes have infinite capacity and flooding is free).
    """

    def measure(with_flooder: bool) -> float:
        with system_factory() as system:
            if with_flooder:
                agent = FloodStrategy(target=target, interval_ms=flood_interval_ms)
                agent.attach(
                    AgentContext(
                        system=system,
                        coalition=frozenset(),
                        ledger=AttackLedger(),
                        target=target,
                    )
                )
            system.start()
            tx = Transaction.create(origin=sender, created_at=0.0)
            system.submit(sender, tx)
            system.run(until_ms=horizon_ms)
        latencies = system.stats.delivery_latencies(tx.tx_id)
        return sum(latencies) / len(latencies) if latencies else float("inf")

    return OverloadResult(
        baseline_mean_ms=measure(False), attacked_mean_ms=measure(True)
    )

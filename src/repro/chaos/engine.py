"""The chaos engine: compile a scenario onto a live system and run it.

:func:`run_chaos` is the one entry point.  It builds (or reuses, via the
experiment-environment cache) a deployment of the requested protocol, resolves
the scenario's declarative events into concrete node sets and link windows
*at compile time* with a seeded RNG — so the full fault timeline is known, and
recorded in a :class:`~repro.net.faults.TimelineFaultPlan`, before the first
simulated millisecond — then schedules the runtime side effects (behavior
flips on live nodes, disruptor windows, forgery sends, workload submissions,
invariant audits) and runs to the horizon.

Determinism contract: transaction and message id counters are rewound at the
start of every run, all randomness derives from ``(seed, scenario, protocol)``
and the report carries only simulation-clock times — the same call twice
yields byte-identical :meth:`~repro.chaos.report.ChaosReport.dumps` output.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..core.accountability import ViolationLog
from ..errors import ConfigurationError
from ..mempool.transaction import Transaction, reset_tx_ids
from ..net.events import Message, reset_message_ids
from ..net.faults import Behavior, FaultPlan, TimelineFaultPlan
from ..utils.rng import derive_rng
from .disruption import LinkDisruptor
from .invariants import InvariantSuite, adapter_for
from .report import ChaosReport
from .scenario import (
    BehaviorFlip,
    ChaosScenario,
    ChurnBurst,
    CommitteePartition,
    ForgeryInjection,
    LatencySpike,
    LossWindow,
    RegionalPartition,
    Restore,
)

if TYPE_CHECKING:
    from ..obs.facade import Observability

__all__ = ["run_chaos"]

#: Sequence numbers for forged envelopes, far above any real TRS assignment
#: in a chaos-sized run (receivers reject on the signature before sequence
#: auditing, so the value only needs to be collision-free).
_FORGED_SEQUENCE_BASE = 1_000_000


def run_chaos(
    scenario: ChaosScenario,
    protocol: str = "hermes",
    num_nodes: int = 48,
    f: int = 1,
    k: int = 4,
    seed: int = 0,
    obs: Observability | None = None,
) -> ChaosReport:
    """Run *scenario* against one deployment of *protocol* and report.

    The physical topology and overlay family come from the shared experiment
    environment cache keyed on ``(num_nodes, f, k)`` with a fixed build seed,
    so repeated chaos runs (sweeps, property tests) pay the overlay
    construction once; *seed* drives everything else — protocol randomness,
    fault-target selection and loss sampling.
    """

    from ..experiments.harness import build_environment, protocol_factories

    reset_tx_ids()
    reset_message_ids()

    env = build_environment(num_nodes=num_nodes, f=f, k=k, seed=0, optimize=True)
    factories = protocol_factories(env, seed=seed, obs=obs)
    if protocol not in factories:
        raise ConfigurationError(
            f"unknown protocol {protocol!r}; known: {sorted(factories)}"
        )

    # The system starts all-honest; every deviation is a recorded transition
    # on this timeline, applied to the live nodes at its scheduled instant.
    plan = TimelineFaultPlan.from_plan(FaultPlan.honest())
    system = factories[protocol](plan, None)
    violation_log = getattr(system, "violation_log", None)
    if violation_log is None:
        violation_log = ViolationLog()
    simulator = system.simulator
    network = system.network

    rng = derive_rng(seed, "chaos", scenario.name, protocol)
    node_ids = env.physical.nodes()

    # -- workload (compile time: ids must not depend on run interleaving) --
    committee = list(getattr(system, "committee", ()))
    submit_times = scenario.workload.submit_times()
    origin_pool = [n for n in node_ids if n not in committee]
    if len(origin_pool) < len(submit_times):
        raise ConfigurationError(
            f"{len(origin_pool)} candidate origins cannot host "
            f"{len(submit_times)} distinct-origin submissions"
        )
    origins = sorted(rng.sample(origin_pool, len(submit_times)))
    workload = [
        Transaction.create(origin=origin, created_at=time_ms)
        for origin, time_ms in zip(origins, submit_times)
    ]
    workload_ids = [tx.tx_id for tx in workload]

    # Origins and the TRS committee stay honest: liveness needs a live TRS
    # and an honest source for every measured transaction.
    protected = set(committee) | set(origins)

    # -- resolve events (compile time) -------------------------------------
    disruptor = LinkDisruptor(derive_rng(seed, "chaos-loss", scenario.name))
    network.disruptor = disruptor

    flips: list[tuple[float, int, Behavior]] = []
    forgeries: list[tuple[float, int, tuple[int, ...], Any]] = []
    windows: list[tuple[float, float, str, dict[str, Any]]] = []
    fault_log: list[dict[str, Any]] = []
    ever_deviant: set[int] = set()
    currently_deviant: set[int] = set()
    hermes_like = protocol == "hermes"

    def log_entry(event: Any, summary: str, **detail: Any) -> None:
        fault_log.append(
            {"at_ms": event.at_ms, "kind": event.kind, "summary": summary, **detail}
        )

    def pick_targets(count: int, pool_filter=None) -> list[int]:
        pool = [
            n
            for n in node_ids
            if n not in protected and n not in ever_deviant
        ]
        if pool_filter is not None:
            pool = [n for n in pool if pool_filter(n)]
        return sorted(rng.sample(pool, min(count, len(pool))))

    for event in sorted(scenario.events, key=lambda e: e.at_ms):
        if isinstance(event, BehaviorFlip):
            behavior = Behavior(event.behavior)
            if event.nodes is not None:
                chosen = sorted(set(event.nodes))
                unknown = [n for n in chosen if n not in node_ids]
                if unknown:
                    raise ConfigurationError(f"flip names unknown nodes {unknown}")
            else:
                chosen = pick_targets(max(1, round(event.fraction * len(node_ids))))
            for node in chosen:
                flips.append((event.at_ms, node, behavior))
                ever_deviant.add(node)
                currently_deviant.add(node)
            log_entry(
                event,
                f"{len(chosen)} nodes -> {behavior.value}",
                nodes=chosen,
                behavior=behavior.value,
            )
        elif isinstance(event, Restore):
            chosen = (
                sorted(currently_deviant)
                if event.nodes is None
                else sorted(set(event.nodes))
            )
            for node in chosen:
                flips.append((event.at_ms, node, Behavior.HONEST))
                currently_deviant.discard(node)
            log_entry(event, f"{len(chosen)} nodes restored to honest", nodes=chosen)
        elif isinstance(event, RegionalPartition):
            group = frozenset(
                n for n in node_ids if env.physical.region_of(n).value in event.regions
            )
            disruptor.add_partition(event.at_ms, event.heal_ms, group)
            windows.append(
                (
                    event.at_ms,
                    event.heal_ms,
                    "chaos.partition",
                    {"regions": list(event.regions), "nodes": len(group)},
                )
            )
            log_entry(
                event,
                f"regions {', '.join(event.regions)} ({len(group)} nodes) "
                f"partitioned until {event.heal_ms}ms",
                regions=list(event.regions),
                isolated=len(group),
                heal_ms=event.heal_ms,
            )
        elif isinstance(event, LatencySpike):
            disruptor.add_latency_spike(event.at_ms, event.end_ms, event.factor)
            windows.append(
                (
                    event.at_ms,
                    event.end_ms,
                    "chaos.latency_spike",
                    {"factor": event.factor},
                )
            )
            log_entry(
                event,
                f"latency x{event.factor} until {event.end_ms}ms",
                factor=event.factor,
                end_ms=event.end_ms,
            )
        elif isinstance(event, LossWindow):
            disruptor.add_loss_window(event.at_ms, event.end_ms, event.probability)
            windows.append(
                (
                    event.at_ms,
                    event.end_ms,
                    "chaos.loss_window",
                    {"probability": event.probability},
                )
            )
            log_entry(
                event,
                f"loss p={event.probability} until {event.end_ms}ms",
                probability=event.probability,
                end_ms=event.end_ms,
            )
        elif isinstance(event, CommitteePartition):
            if not committee:
                log_entry(
                    event,
                    f"committee partition skipped ({protocol} has no committee)",
                    applied=False,
                )
                continue
            group = frozenset(committee)
            disruptor.add_partition(event.at_ms, event.heal_ms, group)
            windows.append(
                (
                    event.at_ms,
                    event.heal_ms,
                    "chaos.committee_partition",
                    {"nodes": len(group)},
                )
            )
            log_entry(
                event,
                f"TRS committee ({len(group)} nodes) partitioned "
                f"until {event.heal_ms}ms",
                committee=sorted(group),
                heal_ms=event.heal_ms,
            )
        elif isinstance(event, ChurnBurst):
            chosen = pick_targets(max(1, round(event.fraction * len(node_ids))))
            recover_ms = event.at_ms + event.down_ms
            for node in chosen:
                flips.append((event.at_ms, node, Behavior.CRASH))
                if recover_ms < scenario.horizon_ms:
                    flips.append((recover_ms, node, Behavior.HONEST))
            windows.append(
                (
                    event.at_ms,
                    min(recover_ms, scenario.horizon_ms),
                    "chaos.churn",
                    {"nodes": len(chosen)},
                )
            )
            log_entry(
                event,
                f"{len(chosen)} nodes crash for {event.down_ms}ms",
                nodes=chosen,
                recover_ms=recover_ms,
            )
        elif isinstance(event, ForgeryInjection):
            if not hermes_like:
                log_entry(
                    event,
                    f"forgery injection skipped ({protocol} has no signed envelopes)",
                    applied=False,
                )
                continue
            injector = event.node
            if injector is None:
                front_runners = sorted(
                    n
                    for n in currently_deviant
                    if any(
                        t <= event.at_ms and b is Behavior.FRONT_RUN
                        for t, node, b in flips
                        if node == n
                    )
                )
                if front_runners:
                    injector = front_runners[0]
                else:
                    picked = pick_targets(1)
                    if not picked:
                        raise ConfigurationError("no node available as forger")
                    injector = picked[0]
            if injector not in ever_deviant:
                flips.append((event.at_ms, injector, Behavior.FRONT_RUN))
                ever_deviant.add(injector)
                currently_deviant.add(injector)
            victims = rng.sample(
                [n for n in node_ids if n != injector and n not in ever_deviant],
                min(event.targets, len(node_ids) - 1),
            )
            envelope = _forged_envelope(injector, event.at_ms, len(forgeries))
            forgeries.append((event.at_ms, injector, tuple(sorted(victims)), envelope))
            log_entry(
                event,
                f"node {injector} injects forged envelope to {len(victims)} peers",
                injector=injector,
                targets=sorted(victims),
            )
        else:  # pragma: no cover - registry and compiler must stay in sync
            raise ConfigurationError(f"unhandled event kind {event.kind!r}")

    # Record the resolved timeline.  Flips are sorted globally by time, which
    # guarantees the per-node non-decreasing order record_flip enforces even
    # when a churn recovery lands between two later scripted events.
    for time_ms, node, behavior in sorted(flips, key=lambda x: (x[0], x[1])):
        plan.record_flip(node, time_ms, behavior)

    # -- invariant suite ---------------------------------------------------
    adapter = adapter_for(protocol, system, workload_ids)
    eligible = [n for n in node_ids if n not in ever_deviant]
    suite = InvariantSuite(
        system,
        plan,
        adapter,
        violation_log,
        eligible_nodes=eligible,
        min_coverage=scenario.min_coverage,
        f=f,
    )
    suite.attach(scenario.horizon_ms)

    # -- schedule the runtime side effects ---------------------------------
    def apply_flip(node: int, behavior: Behavior) -> None:
        system.nodes[node].behavior = behavior
        if obs is not None:
            obs.event("chaos.flip", node=node, behavior=behavior.value)

    for time_ms, node, behavior in flips:
        simulator.schedule_at(
            time_ms, lambda n=node, b=behavior: apply_flip(n, b)
        )

    for time_ms, injector, victims, envelope in forgeries:
        suite.expect_detection(injector)
        simulator.schedule_at(
            time_ms,
            lambda i=injector, v=victims, e=envelope: _inject_forgery(
                system, i, v, e, obs
            ),
        )

    if obs is not None:
        for start_ms, end_ms, name, attrs in windows:
            simulator.schedule_at(
                start_ms,
                lambda n=name, a=attrs, e=end_ms: _open_window(obs, simulator, n, a, e),
            )

    for tx in workload:
        simulator.schedule_at(
            tx.created_at, lambda t=tx: system.submit(t.origin, t)
        )
        suite.schedule_liveness_check(
            tx.tx_id, tx.created_at + scenario.liveness_deadline_ms
        )

    # -- run ---------------------------------------------------------------
    with system:
        system.start()
        final_time = system.run(until_ms=scenario.horizon_ms)
        accountability = suite.finalize()

    stats = network.stats
    return ChaosReport(
        scenario=scenario.name,
        protocol=protocol,
        seed=seed,
        num_nodes=num_nodes,
        f=f,
        horizon_ms=scenario.horizon_ms,
        final_time_ms=final_time,
        fault_log=fault_log,
        transactions=[
            {
                "tx_id": tx.tx_id,
                "origin": tx.origin,
                "submit_ms": tx.created_at,
                "coverage": suite.liveness_coverage.get(tx.tx_id, 0.0),
            }
            for tx in workload
        ],
        invariants={name: r.to_json() for name, r in sorted(suite.results.items())},
        accountability=accountability,
        violation_summary=violation_log.summary(),
        network={
            "messages_sent": sum(stats.messages_sent.values()),
            "messages_dropped": stats.messages_dropped,
            "total_bytes": stats.total_bytes(),
            "dropped_by_partition": disruptor.dropped_by_partition,
            "dropped_by_loss": disruptor.dropped_by_loss,
        },
        reachability=suite.reachability,
    )


def _forged_envelope(injector: int, at_ms: float, index: int):
    """A dissemination envelope whose TRS can never verify."""

    from ..core.dissemination import DisseminationEnvelope

    tx = Transaction.create(origin=injector, created_at=at_ms, tag="forged")
    return DisseminationEnvelope(
        tx=tx,
        origin=injector,
        sequence=_FORGED_SEQUENCE_BASE + index,
        signature=("forged", index),
        overlay_id=0,
    )


def _inject_forgery(system, injector: int, victims, envelope, obs) -> None:
    """Push a forged envelope straight at the victims' §VI-C checks."""

    from ..core.dissemination import DISSEMINATE_KIND

    size = envelope.wire_bytes(system.backend)
    for victim in victims:
        system.network.send(injector, victim, Message(DISSEMINATE_KIND, envelope, size))
    if obs is not None:
        obs.event(
            "chaos.forgery", injector=injector, targets=len(victims), tx=envelope.tx.tx_id
        )


def _open_window(obs, simulator, name: str, attrs: dict, end_ms: float) -> None:
    """Start a detached trace span for one fault window and end it on cue."""

    span = obs.tracer.detached_span(name, **attrs)
    # Span.event (not obs.event): detached spans never join the stack, so a
    # plain tracer event here would attach to whatever ambient span is open.
    span.event(f"{name}.open", until_ms=end_ms)
    simulator.schedule_at(end_ms, span.end)

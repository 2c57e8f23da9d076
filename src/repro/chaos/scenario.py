"""Declarative chaos scenarios: timelines of fault events on the sim clock.

A :class:`ChaosScenario` describes *what the adversary and the environment do
and when*, independently of any protocol: behavior flips (honest nodes turning
into censors, front-runners or crashing), regional partitions that heal,
latency-spike and loss windows, churn bursts, and out-of-protocol forgery
injections.  The chaos engine (:mod:`repro.chaos.engine`) compiles a scenario
onto a concrete system's :class:`~repro.net.simulator.Simulator`, records the
resulting behavior timeline in a
:class:`~repro.net.faults.TimelineFaultPlan`, and attaches the invariant
monitors of :mod:`repro.chaos.invariants`.

Scenarios round-trip through JSON (``to_json`` / ``from_json`` / ``load``), so
campaigns can live in version-controlled files and travel through the
content-addressed sweep runner unchanged.  Node selections expressed as
fractions are resolved deterministically from the run seed at compile time —
the scenario itself stays protocol- and size-agnostic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Callable, ClassVar, Mapping

from ..errors import ConfigurationError
from ..net.faults import Behavior
from ..types import Region

__all__ = [
    "ChaosEvent",
    "BehaviorFlip",
    "Restore",
    "RegionalPartition",
    "LatencySpike",
    "LossWindow",
    "ChurnBurst",
    "CommitteePartition",
    "ForgeryInjection",
    "ChaosWorkload",
    "ChaosScenario",
    "builtin_scenarios",
    "get_scenario",
]

_EVENT_TYPES: dict[str, type["ChaosEvent"]] = {}


def _event(kind: str) -> Callable[[type], type]:
    """Register an event dataclass under its wire ``kind`` tag."""

    def decorate(cls: type) -> type:
        cls.kind = kind
        _EVENT_TYPES[kind] = cls
        return cls

    return decorate


@dataclass(frozen=True)
class ChaosEvent:
    """Base class: one scheduled fault event at ``at_ms`` on the sim clock."""

    kind: ClassVar[str] = ""

    at_ms: float

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise ConfigurationError(f"event time must be >= 0, got {self.at_ms}")

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"kind": self.kind}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, tuple):
                value = list(value)
            doc[spec.name] = value
        return doc

    @staticmethod
    def from_json(doc: Mapping[str, Any]) -> "ChaosEvent":
        kind = doc.get("kind")
        cls = _EVENT_TYPES.get(str(kind))
        if cls is None:
            raise ConfigurationError(
                f"unknown chaos event kind {kind!r}; known: {sorted(_EVENT_TYPES)}"
            )
        kwargs = {}
        for spec in fields(cls):
            if spec.name in doc:
                value = doc[spec.name]
                if isinstance(value, list):
                    value = tuple(value)
                kwargs[spec.name] = value
        return cls(**kwargs)

    # -- shared validation helpers --------------------------------------

    def _check_window(self, end_ms: float) -> None:
        if end_ms <= self.at_ms:
            raise ConfigurationError(
                f"window must end after it starts ({self.at_ms} -> {end_ms})"
            )


@_event("behavior-flip")
@dataclass(frozen=True)
class BehaviorFlip(ChaosEvent):
    """Flip nodes to a Byzantine behavior at ``at_ms``.

    Either list explicit ``nodes`` or give a ``fraction`` of the network; the
    compiler resolves a fraction to ``round(fraction * n)`` nodes drawn
    (seeded) from the currently-honest, unprotected population — so a ramp of
    flips escalates cumulatively.
    """

    behavior: str = Behavior.DROP_RELAY.value
    nodes: tuple[int, ...] | None = None
    fraction: float | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        Behavior(self.behavior)  # raises ValueError on an unknown behavior
        if (self.nodes is None) == (self.fraction is None):
            raise ConfigurationError("give exactly one of nodes= or fraction=")
        if self.fraction is not None and not 0.0 < self.fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in (0, 1], got {self.fraction}")


@_event("restore")
@dataclass(frozen=True)
class Restore(ChaosEvent):
    """Return nodes to honest behavior (``nodes=None`` restores every
    currently-deviant scripted node)."""

    nodes: tuple[int, ...] | None = None


@_event("partition")
@dataclass(frozen=True)
class RegionalPartition(ChaosEvent):
    """Cut the named regions off from the rest of the network.

    Every transmission crossing the partition boundary is dropped between
    ``at_ms`` and ``heal_ms``; traffic within each side flows normally.
    """

    heal_ms: float = 0.0
    regions: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        self._check_window(self.heal_ms)
        if not self.regions:
            raise ConfigurationError("partition needs at least one region")
        for name in self.regions:
            Region(name)  # raises ValueError on an unknown region


@_event("latency-spike")
@dataclass(frozen=True)
class LatencySpike(ChaosEvent):
    """Multiply every link latency by ``factor`` between ``at_ms``/``end_ms``."""

    end_ms: float = 0.0
    factor: float = 4.0

    def __post_init__(self) -> None:
        super().__post_init__()
        self._check_window(self.end_ms)
        if self.factor < 1.0:
            raise ConfigurationError(f"latency factor must be >= 1, got {self.factor}")


@_event("loss")
@dataclass(frozen=True)
class LossWindow(ChaosEvent):
    """Drop each transmission with ``probability`` between ``at_ms``/``end_ms``."""

    end_ms: float = 0.0
    probability: float = 0.2

    def __post_init__(self) -> None:
        super().__post_init__()
        self._check_window(self.end_ms)
        if not 0.0 < self.probability < 1.0:
            raise ConfigurationError(
                f"loss probability must be in (0, 1), got {self.probability}"
            )


@_event("churn")
@dataclass(frozen=True)
class ChurnBurst(ChaosEvent):
    """Crash a (seeded) fraction of honest nodes, recovering after ``down_ms``."""

    fraction: float = 0.1
    down_ms: float = 800.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in (0, 1], got {self.fraction}")
        if self.down_ms <= 0:
            raise ConfigurationError(f"down_ms must be positive, got {self.down_ms}")


@_event("committee-partition")
@dataclass(frozen=True)
class CommitteePartition(ChaosEvent):
    """Cut the system's TRS committee off from every non-committee node.

    Between ``at_ms`` and ``heal_ms`` no transmission crosses the committee
    boundary: fresh TRS requests go unanswered (the protocol has no request
    retry), and the committee's own traffic stays inside the island.  On
    committee-less baselines the event is recorded but not applied.  This is
    the single-system half of the sharded ``cross-shard-partition`` drill
    (:func:`repro.sharding.chaos.run_cross_shard_partition`), which isolates
    one shard's committee and checks that the *other* shards keep delivering.
    """

    heal_ms: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        self._check_window(self.heal_ms)


@_event("inject-forgery")
@dataclass(frozen=True)
class ForgeryInjection(ChaosEvent):
    """A node pushes a forged dissemination envelope to ``targets`` peers.

    HERMES-specific: the envelope carries an invalid threshold signature, so
    every receiver's §VI-C checks flag the injector (``BAD_SIGNATURE``).  On
    protocols without signed envelopes the event is recorded but not applied.
    ``node=None`` lets the compiler pick (preferring a node already flipped to
    ``front-run``); the injector is marked deviant on the fault timeline.
    """

    node: int | None = None
    targets: int = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.targets < 1:
            raise ConfigurationError(f"targets must be positive, got {self.targets}")


@dataclass(frozen=True)
class ChaosWorkload:
    """The honest traffic disseminated while the scenario unfolds.

    ``transactions`` submissions start at ``start_ms``, one every
    ``period_ms``, from distinct seeded origins that the compiler keeps
    honest for the whole run (so delivery-liveness is well-defined).

    When ``flash_at_ms`` is set, submissions inside the window ``[flash_at_ms,
    flash_at_ms + flash_duration_ms)`` arrive ``flash_factor`` times faster —
    the fixed-count flash-crowd shape of
    :func:`repro.load.arrival.flash_crowd_times`, still fully deterministic.
    """

    transactions: int = 6
    start_ms: float = 200.0
    period_ms: float = 500.0
    flash_at_ms: float | None = None
    flash_duration_ms: float = 1_000.0
    flash_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.transactions < 1:
            raise ConfigurationError("workload needs at least one transaction")
        if self.start_ms < 0 or self.period_ms <= 0:
            raise ConfigurationError("workload times must be positive")
        if self.flash_at_ms is not None:
            if self.flash_at_ms < 0 or self.flash_duration_ms <= 0:
                raise ConfigurationError(
                    "flash window must start >= 0 and have length > 0"
                )
            if self.flash_factor < 1.0:
                raise ConfigurationError(
                    f"flash_factor must be >= 1, got {self.flash_factor}"
                )

    def submit_times(self) -> list[float]:
        if self.flash_at_ms is None:
            return [
                self.start_ms + i * self.period_ms for i in range(self.transactions)
            ]
        from ..load.arrival import flash_crowd_times

        return flash_crowd_times(
            self.transactions,
            self.start_ms,
            self.period_ms,
            self.flash_at_ms,
            self.flash_duration_ms,
            self.flash_factor,
        )

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "transactions": self.transactions,
            "start_ms": self.start_ms,
            "period_ms": self.period_ms,
        }
        if self.flash_at_ms is not None:
            doc["flash_at_ms"] = self.flash_at_ms
            doc["flash_duration_ms"] = self.flash_duration_ms
            doc["flash_factor"] = self.flash_factor
        return doc

    @classmethod
    def from_json(cls, doc: Mapping[str, Any]) -> "ChaosWorkload":
        flash_at = doc.get("flash_at_ms")
        return cls(
            transactions=int(doc.get("transactions", 6)),
            start_ms=float(doc.get("start_ms", 200.0)),
            period_ms=float(doc.get("period_ms", 500.0)),
            flash_at_ms=None if flash_at is None else float(flash_at),
            flash_duration_ms=float(doc.get("flash_duration_ms", 1_000.0)),
            flash_factor=float(doc.get("flash_factor", 4.0)),
        )


@dataclass(frozen=True)
class ChaosScenario:
    """A named, JSON-round-trippable fault-injection campaign."""

    name: str
    description: str = ""
    horizon_ms: float = 8_000.0
    workload: ChaosWorkload = field(default_factory=ChaosWorkload)
    events: tuple[ChaosEvent, ...] = ()
    #: Per-transaction delivery deadline for the liveness invariant, measured
    #: from submission; must resolve before the horizon.
    liveness_deadline_ms: float = 4_000.0
    #: Minimum fraction of eligible (never-deviant) nodes that must hold each
    #: transaction by its deadline.
    min_coverage: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario needs a name")
        if self.horizon_ms <= 0:
            raise ConfigurationError("horizon must be positive")
        if not 0.0 < self.min_coverage <= 1.0:
            raise ConfigurationError(
                f"min_coverage must be in (0, 1], got {self.min_coverage}"
            )
        last_deadline = self.workload.submit_times()[-1] + self.liveness_deadline_ms
        if last_deadline > self.horizon_ms:
            raise ConfigurationError(
                f"last liveness deadline ({last_deadline}ms) exceeds the "
                f"horizon ({self.horizon_ms}ms); extend horizon_ms"
            )
        for event in self.events:
            if event.at_ms >= self.horizon_ms:
                raise ConfigurationError(
                    f"event at {event.at_ms}ms lies beyond the horizon"
                )

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "horizon_ms": self.horizon_ms,
            "workload": self.workload.to_json(),
            "events": [event.to_json() for event in self.events],
            "liveness_deadline_ms": self.liveness_deadline_ms,
            "min_coverage": self.min_coverage,
        }

    @classmethod
    def from_json(cls, doc: Mapping[str, Any]) -> "ChaosScenario":
        return cls(
            name=str(doc["name"]),
            description=str(doc.get("description", "")),
            horizon_ms=float(doc.get("horizon_ms", 8_000.0)),
            workload=ChaosWorkload.from_json(doc.get("workload", {})),
            events=tuple(ChaosEvent.from_json(e) for e in doc.get("events", ())),
            liveness_deadline_ms=float(doc.get("liveness_deadline_ms", 4_000.0)),
            min_coverage=float(doc.get("min_coverage", 1.0)),
        )

    @classmethod
    def load(cls, path: str) -> "ChaosScenario":
        """Read a scenario from a JSON file."""

        try:
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read scenario {path!r}: {exc}") from exc
        return cls.from_json(doc)


# ----------------------------------------------------------------------
# Bundled scenarios
# ----------------------------------------------------------------------


def _escalation() -> ChaosScenario:
    """The acceptance scenario: ramp to ~33% censors + partition + churn."""

    return ChaosScenario(
        name="escalation",
        description=(
            "Censorship ramp to one third of the network (10% -> 20% -> 33% "
            "drop-relay), a regional partition that heals, and a churn burst."
        ),
        horizon_ms=8_000.0,
        workload=ChaosWorkload(transactions=6, start_ms=200.0, period_ms=500.0),
        events=(
            BehaviorFlip(at_ms=1_000.0, behavior="drop-relay", fraction=0.10),
            RegionalPartition(at_ms=1_500.0, heal_ms=2_500.0, regions=("frankfurt",)),
            BehaviorFlip(at_ms=2_000.0, behavior="drop-relay", fraction=0.10),
            BehaviorFlip(at_ms=3_000.0, behavior="drop-relay", fraction=0.13),
            ChurnBurst(at_ms=3_500.0, fraction=0.08, down_ms=800.0),
        ),
        liveness_deadline_ms=4_000.0,
        min_coverage=1.0,
    )


def _honest() -> ChaosScenario:
    return ChaosScenario(
        name="honest",
        description="No faults at all — the invariant suite's control run.",
        horizon_ms=6_000.0,
        workload=ChaosWorkload(transactions=4, start_ms=200.0, period_ms=400.0),
        liveness_deadline_ms=4_000.0,
    )


def _partition_heal() -> ChaosScenario:
    return ChaosScenario(
        name="partition-heal",
        description="One regional partition plus a latency spike, no Byzantine nodes.",
        horizon_ms=7_000.0,
        workload=ChaosWorkload(transactions=4, start_ms=200.0, period_ms=400.0),
        events=(
            RegionalPartition(
                at_ms=600.0, heal_ms=1_800.0, regions=("singapore", "sydney")
            ),
            LatencySpike(at_ms=1_000.0, end_ms=2_200.0, factor=3.0),
        ),
        liveness_deadline_ms=5_000.0,
    )


def _frontrun_burst() -> ChaosScenario:
    return ChaosScenario(
        name="frontrun-burst",
        description=(
            "Two nodes turn front-runner and inject forged envelopes; the "
            "protocol's signature checks must attribute every forgery."
        ),
        horizon_ms=6_000.0,
        workload=ChaosWorkload(transactions=4, start_ms=200.0, period_ms=400.0),
        events=(
            BehaviorFlip(at_ms=800.0, behavior="front-run", fraction=0.05),
            ForgeryInjection(at_ms=1_200.0, targets=3),
            ForgeryInjection(at_ms=1_800.0, targets=3),
            Restore(at_ms=2_600.0),
        ),
        liveness_deadline_ms=4_000.0,
    )


def _flash_crowd() -> ChaosScenario:
    return ChaosScenario(
        name="flash-crowd",
        description=(
            "A demand spike: submissions accelerate 4x mid-run while a lossy "
            "window stresses dissemination of the burst."
        ),
        horizon_ms=8_000.0,
        workload=ChaosWorkload(
            transactions=8,
            start_ms=200.0,
            period_ms=500.0,
            flash_at_ms=1_200.0,
            flash_duration_ms=1_200.0,
            flash_factor=4.0,
        ),
        events=(LossWindow(at_ms=1_400.0, end_ms=2_200.0, probability=0.10),),
        liveness_deadline_ms=4_000.0,
        min_coverage=1.0,
    )


def _churn_storm() -> ChaosScenario:
    return ChaosScenario(
        name="churn-storm",
        description="Two churn bursts with a lossy window in between.",
        horizon_ms=8_000.0,
        workload=ChaosWorkload(transactions=5, start_ms=200.0, period_ms=500.0),
        events=(
            ChurnBurst(at_ms=900.0, fraction=0.10, down_ms=700.0),
            LossWindow(at_ms=1_500.0, end_ms=2_400.0, probability=0.15),
            ChurnBurst(at_ms=2_800.0, fraction=0.10, down_ms=700.0),
        ),
        liveness_deadline_ms=5_000.0,
        min_coverage=1.0,
    )


def _sandwich_squeeze() -> ChaosScenario:
    """The zoo's racing coalition composed with degraded network conditions.

    A front-running coalition (the behaviour the ``sandwich`` /
    ``censor-reorder`` strategies ride on) grows to ~25% while a latency
    spike stretches every link — extraction pressure is highest exactly when
    honest dissemination is slowest, so this is the window where overlay
    robustness has to carry fairness.
    """

    return ChaosScenario(
        name="sandwich-squeeze",
        description=(
            "Front-runner coalition ramp (15% -> 25%) under a 3x latency "
            "spike: extraction pressure during degraded dissemination."
        ),
        horizon_ms=8_000.0,
        workload=ChaosWorkload(transactions=6, start_ms=200.0, period_ms=500.0),
        events=(
            BehaviorFlip(at_ms=800.0, behavior="front-run", fraction=0.15),
            LatencySpike(at_ms=1_200.0, end_ms=2_600.0, factor=3.0),
            BehaviorFlip(at_ms=2_000.0, behavior="front-run", fraction=0.10),
            Restore(at_ms=3_400.0),
        ),
        liveness_deadline_ms=4_000.0,
        min_coverage=1.0,
    )


def _censor_blackout() -> ChaosScenario:
    """The zoo's withholding coalition composed with a regional blackout.

    Drop-relay censors (the ``blackout`` strategy's behaviour) accumulate
    while one region is partitioned away — the adversary's best moment to
    suppress a transaction is while legitimate redundancy is already down a
    region.  Liveness must still hold via the surviving overlay paths.
    """

    return ChaosScenario(
        name="censor-blackout",
        description=(
            "Censor coalition ramp (15% -> 25% drop-relay) while a region "
            "is partitioned away and a lossy window stresses what remains."
        ),
        horizon_ms=8_000.0,
        workload=ChaosWorkload(transactions=6, start_ms=200.0, period_ms=500.0),
        events=(
            BehaviorFlip(at_ms=900.0, behavior="drop-relay", fraction=0.15),
            RegionalPartition(at_ms=1_200.0, heal_ms=2_400.0, regions=("tokyo",)),
            BehaviorFlip(at_ms=1_800.0, behavior="drop-relay", fraction=0.10),
            LossWindow(at_ms=2_600.0, end_ms=3_200.0, probability=0.10),
            Restore(at_ms=3_600.0),
        ),
        liveness_deadline_ms=4_500.0,
        min_coverage=1.0,
    )


def _cross_shard_partition() -> ChaosScenario:
    """One committee islanded mid-run; gossip must carry liveness until heal.

    While the committee is cut off, fresh TRS requests die (there is no
    request retry) — but every submission lands in its origin's mempool
    first, so the gossip fallback keeps spreading it among non-committee
    nodes and catches the committee up after the heal.  The sharded drill
    (:func:`repro.sharding.chaos.run_cross_shard_partition`) applies this
    scenario's event to *one* shard of a :class:`~repro.sharding.ShardedSystem`
    and additionally asserts the untouched shards never notice.
    """

    return ChaosScenario(
        name="cross-shard-partition",
        description=(
            "The TRS committee is partitioned from the rest of the network "
            "for 1.7s mid-run; delivery liveness must survive on gossip "
            "until the heal catches the committee up."
        ),
        horizon_ms=8_000.0,
        workload=ChaosWorkload(transactions=6, start_ms=200.0, period_ms=500.0),
        events=(CommitteePartition(at_ms=900.0, heal_ms=2_600.0),),
        liveness_deadline_ms=4_500.0,
        min_coverage=1.0,
    )


_BUILTINS: dict[str, Callable[[], ChaosScenario]] = {
    "censor-blackout": _censor_blackout,
    "cross-shard-partition": _cross_shard_partition,
    "sandwich-squeeze": _sandwich_squeeze,
    "escalation": _escalation,
    "honest": _honest,
    "partition-heal": _partition_heal,
    "frontrun-burst": _frontrun_burst,
    "flash-crowd": _flash_crowd,
    "churn-storm": _churn_storm,
}


def builtin_scenarios() -> dict[str, ChaosScenario]:
    """Fresh instances of every bundled scenario, keyed by name."""

    return {name: make() for name, make in sorted(_BUILTINS.items())}


def get_scenario(name_or_path: str) -> ChaosScenario:
    """Resolve a bundled scenario name or a path to a scenario JSON file."""

    maker = _BUILTINS.get(name_or_path)
    if maker is not None:
        return maker()
    if name_or_path.endswith(".json"):
        return ChaosScenario.load(name_or_path)
    raise ConfigurationError(
        f"unknown scenario {name_or_path!r}; bundled: {sorted(_BUILTINS)} "
        "(or pass a path to a *.json scenario file)"
    )

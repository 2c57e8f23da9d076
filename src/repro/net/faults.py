"""Fault and adversary planning.

A :class:`FaultPlan` decides *which* nodes misbehave and *how*; protocol
implementations consult it when constructing their node actors.  Keeping the
plan separate from the protocols lets every experiment inject the same
adversary into HERMES and each baseline.

Plans answer two kinds of query:

* :meth:`FaultPlan.behavior_of` — the *static* assignment used when nodes are
  constructed (every existing experiment);
* :meth:`FaultPlan.behavior_at` — the behavior at a given simulation time.
  For a plain :class:`FaultPlan` the answer never changes; a
  :class:`TimelineFaultPlan` (built by :mod:`repro.chaos` when it compiles a
  scenario onto the simulator) additionally records mid-run behavior flips so
  invariant checkers can ask "was node 17 Byzantine when this happened?".
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..errors import ConfigurationError
from ..utils.rng import derive_rng

__all__ = ["Behavior", "FaultPlan", "TimelineFaultPlan"]


class Behavior(enum.Enum):
    """How a node deviates from the protocol."""

    HONEST = "honest"
    CRASH = "crash"  # never sends anything
    DROP_RELAY = "drop-relay"  # receives but never forwards (censorship)
    FRONT_RUN = "front-run"  # forwards, but injects adversarial transactions
    EQUIVOCATE = "equivocate"  # sends conflicting protocol messages


@dataclass
class FaultPlan:
    """Assignment of behaviours to node ids (everyone else is honest)."""

    behaviors: dict[int, Behavior] = field(default_factory=dict)

    @classmethod
    def honest(cls) -> "FaultPlan":
        return cls()

    @classmethod
    def random_fraction(
        cls,
        node_ids: Sequence[int],
        fraction: float,
        behavior: Behavior,
        seed: int = 0,
        protected: Iterable[int] = (),
    ) -> "FaultPlan":
        """Mark a random *fraction* of *node_ids* with *behavior*.

        Nodes in *protected* (e.g. the designated sender or the block
        proposer) are never corrupted.  The Byzantine count is capped at
        ``floor(n/3)`` to respect the global fault bound of §IV.
        """

        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in [0, 1], got {fraction}")
        eligible = [n for n in node_ids if n not in set(protected)]
        target = int(round(fraction * len(node_ids)))
        cap = len(node_ids) // 3
        count = min(target, cap, len(eligible))
        rng = derive_rng(seed, "fault-plan", behavior.value)
        chosen = rng.sample(eligible, count) if count else []
        return cls(behaviors={n: behavior for n in chosen})

    def behavior_of(self, node_id: int) -> Behavior:
        return self.behaviors.get(node_id, Behavior.HONEST)

    def behavior_at(self, node_id: int, time_ms: float) -> Behavior:
        """Behavior of *node_id* at simulation time *time_ms*.

        A static plan never changes its mind; time-varying subclasses
        (:class:`TimelineFaultPlan`) override this.
        """

        return self.behavior_of(node_id)

    def is_byzantine(self, node_id: int) -> bool:
        return self.behavior_of(node_id) is not Behavior.HONEST

    def ever_byzantine(self, node_id: int) -> bool:
        """True when *node_id* deviates at any point of the run."""

        return self.is_byzantine(node_id)

    def byzantine_nodes(self) -> list[int]:
        return sorted(self.behaviors)

    def honest_nodes(self, node_ids: Iterable[int]) -> list[int]:
        """Nodes that are honest for the *whole* run (never corrupted)."""

        return sorted(n for n in node_ids if not self.ever_byzantine(n))

    def count(self) -> int:
        return len(self.behaviors)


@dataclass
class TimelineFaultPlan(FaultPlan):
    """A fault plan whose behavior assignments change over simulation time.

    ``behaviors`` (inherited) holds the *initial* assignment — what protocols
    see when they construct their nodes — and ``transitions`` records every
    scheduled flip as ``node -> [(time_ms, Behavior), ...]`` sorted by time.
    The chaos controller appends a transition whenever it compiles a behavior
    flip onto the simulator, so the plan is a faithful written record of what
    the adversary did and when — exactly what the invariant monitors audit
    against.
    """

    transitions: dict[int, list[tuple[float, Behavior]]] = field(
        default_factory=dict
    )

    @classmethod
    def from_plan(cls, plan: FaultPlan) -> "TimelineFaultPlan":
        """Wrap a static plan as the t = 0 state of a timeline."""

        return cls(behaviors=dict(plan.behaviors))

    def record_flip(self, node_id: int, time_ms: float, behavior: Behavior) -> None:
        """Append a behavior transition (times must be non-decreasing)."""

        history = self.transitions.setdefault(node_id, [])
        if history and time_ms < history[-1][0]:
            raise ConfigurationError(
                f"transition at {time_ms}ms precedes recorded {history[-1][0]}ms"
            )
        history.append((time_ms, behavior))

    def behavior_at(self, node_id: int, time_ms: float) -> Behavior:
        """The behavior in force at *time_ms* (last transition wins)."""

        history = self.transitions.get(node_id)
        if not history:
            return self.behavior_of(node_id)
        index = bisect.bisect_right([t for t, _ in history], time_ms)
        if index == 0:
            return self.behavior_of(node_id)
        return history[index - 1][1]

    def ever_byzantine(self, node_id: int) -> bool:
        if self.is_byzantine(node_id):
            return True
        return any(
            behavior is not Behavior.HONEST
            for _, behavior in self.transitions.get(node_id, ())
        )

    def deviant_nodes(self) -> list[int]:
        """Every node that misbehaves at some point of the timeline."""

        candidates = set(self.behaviors) | set(self.transitions)
        return sorted(n for n in candidates if self.ever_byzantine(n))

    def byzantine_at(self, node_ids: Iterable[int], time_ms: float) -> list[int]:
        """Nodes whose behavior at *time_ms* is not honest."""

        return sorted(
            n
            for n in node_ids
            if self.behavior_at(n, time_ms) is not Behavior.HONEST
        )

"""The structured, deterministic outcome of one chaos campaign.

A :class:`ChaosReport` carries everything a reader (or a sweep aggregator)
needs: the run configuration, the resolved fault log (what actually happened
to whom and when), per-transaction delivery coverage, the four invariant
outcomes, the accountability verdict and the violation-log digest.

Determinism contract: every field derives from the simulation clock and
seeded randomness — no wall-clock times, no unsorted sets.  ``dumps`` uses
sorted keys, so the same ``(scenario, protocol, seed)`` triple always
produces byte-identical JSON; ``content_hash`` is the sha256 of those bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from ..utils.digest import sha256

__all__ = ["ChaosReport"]


@dataclass(frozen=True, slots=True)
class ChaosReport:
    """Deterministic record of one scenario run against one protocol."""

    scenario: str
    protocol: str
    seed: int
    num_nodes: int
    f: int
    horizon_ms: float
    final_time_ms: float
    #: Resolved fault events in schedule order: what the compiler actually
    #: did (which concrete nodes flipped, which links were windowed, ...).
    fault_log: list[dict[str, Any]] = field(default_factory=list)
    #: Per-transaction record: origin, submit time, eligible-node coverage.
    transactions: list[dict[str, Any]] = field(default_factory=list)
    #: Invariant name -> {"status", "checks", "violations"}.
    invariants: dict[str, Any] = field(default_factory=dict)
    #: The accountability verdict (attribution/false-accusation accounting).
    accountability: dict[str, Any] = field(default_factory=dict)
    #: ``ViolationLog.summary()`` of the system's evidence log.
    violation_summary: dict[str, Any] = field(default_factory=dict)
    #: Network-level counters (messages, drops, disruption counts).
    network: dict[str, Any] = field(default_factory=dict)
    #: Informational reachability timeline from the connectivity probes.
    reachability: list[dict[str, Any]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every applicable invariant held."""

        return all(
            doc.get("status") in ("pass", "n/a") for doc in self.invariants.values()
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "protocol": self.protocol,
            "seed": self.seed,
            "num_nodes": self.num_nodes,
            "f": self.f,
            "horizon_ms": self.horizon_ms,
            "final_time_ms": self.final_time_ms,
            "passed": self.passed,
            "fault_log": self.fault_log,
            "transactions": self.transactions,
            "invariants": self.invariants,
            "accountability": self.accountability,
            "violation_summary": self.violation_summary,
            "network": self.network,
            "reachability": self.reachability,
        }

    def dumps(self) -> str:
        """Canonical JSON: sorted keys, stable separators."""

        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        return sha256(self.dumps().encode("utf-8")).hexdigest()

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "ChaosReport":
        return cls(
            scenario=doc["scenario"],
            protocol=doc["protocol"],
            seed=doc["seed"],
            num_nodes=doc["num_nodes"],
            f=doc["f"],
            horizon_ms=doc["horizon_ms"],
            final_time_ms=doc["final_time_ms"],
            fault_log=list(doc.get("fault_log", ())),
            transactions=list(doc.get("transactions", ())),
            invariants=dict(doc.get("invariants", {})),
            accountability=dict(doc.get("accountability", {})),
            violation_summary=dict(doc.get("violation_summary", {})),
            network=dict(doc.get("network", {})),
            reachability=list(doc.get("reachability", ())),
        )

    # -- human rendering -------------------------------------------------

    def format(self) -> str:
        """A terminal-friendly multi-line summary."""

        lines = [
            f"chaos report: scenario={self.scenario} protocol={self.protocol} "
            f"seed={self.seed} nodes={self.num_nodes} f={self.f}",
            f"  verdict: {'PASS' if self.passed else 'FAIL'} "
            f"(final time {self.final_time_ms:.1f}ms)",
            "  invariants:",
        ]
        for name in sorted(self.invariants):
            doc = self.invariants[name]
            line = f"    {name:<22} {doc['status']:<5} ({doc['checks']} checks)"
            lines.append(line)
            for violation in doc.get("violations", ())[:4]:
                lines.append(f"      ! {violation['detail']}")
        acct = self.accountability
        if acct:
            lines.append(
                "  accountability: "
                f"{len(acct.get('attributed', ()))}/"
                f"{len(acct.get('observed_deviants', ()))} observed deviants "
                f"attributed, {len(acct.get('false_accusations', ()))} false "
                "accusations"
            )
        summary = self.violation_summary
        if summary:
            kinds = ", ".join(
                f"{kind}={count}" for kind, count in summary.get("by_kind", {}).items()
            )
            lines.append(
                f"  violations: total={summary.get('total', 0)}"
                + (f" ({kinds})" if kinds else "")
            )
        if self.fault_log:
            lines.append("  fault log:")
            for entry in self.fault_log:
                lines.append(f"    {entry['at_ms']:>8.1f}ms  {entry['summary']}")
        if self.transactions:
            covered = sum(1 for t in self.transactions if t["coverage"] >= 1.0)
            lines.append(
                f"  workload: {len(self.transactions)} txs, "
                f"{covered} reached full eligible coverage"
            )
        net = self.network
        if net:
            lines.append(
                "  network: "
                f"sent={net.get('messages_sent', 0)} "
                f"dropped={net.get('messages_dropped', 0)} "
                f"partition_drops={net.get('dropped_by_partition', 0)} "
                f"loss_drops={net.get('dropped_by_loss', 0)}"
            )
        return "\n".join(lines)

"""Receiver-side sequence auditing (§VI-C).

The committee already refuses to mint seeds for out-of-order sequence numbers
(sender-side enforcement, :mod:`repro.trs.committee`).  Receivers additionally
audit what they *observe*: for each origin they track which sequence numbers
have arrived, and flag the origin when a gap persists beyond a timeout —
evidence that the origin skipped (or selectively withheld) a message.

Messages are never delayed by auditing: holding deliveries hostage to
sequencing would hand the adversary a censorship lever, the opposite of
dissemination fairness.
"""

from __future__ import annotations

__all__ = ["SequenceAuditor"]


class SequenceAuditor:
    """Tracks per-origin sequence continuity for one receiving node.

    Per origin it keeps the highest sequence number observed and, only while
    one is open, the gaps below it (missing number -> time first noticed).
    That is all of what has arrived: every number skipped when the highest
    jumps becomes a gap and leaves only on arrival, so the observed set is
    always ``{0..highest}`` minus the gaps.
    """

    def __init__(self, gap_timeout_ms: float) -> None:
        if gap_timeout_ms <= 0:
            raise ValueError(f"gap_timeout_ms must be positive, got {gap_timeout_ms}")
        self.gap_timeout_ms = gap_timeout_ms
        self._highest: dict[int, int] = {}
        self._gaps: dict[int, dict[int, float]] = {}

    def observe(self, origin: int, sequence: int, now: float) -> bool:
        """Record that *origin*'s message *sequence* arrived.

        Returns ``False`` for duplicates (already observed), ``True``
        otherwise.  Newly implied gaps start their timeout clock at *now*.
        """

        if sequence < 0:
            raise ValueError(f"sequence must be non-negative, got {sequence}")
        highest = self._highest.get(origin, -1)
        if sequence > highest:
            if sequence > highest + 1:
                gaps = self._gaps.setdefault(origin, {})
                for missing in range(highest + 1, sequence):
                    gaps[missing] = now
            self._highest[origin] = sequence
            return True
        gaps = self._gaps.get(origin)
        if gaps is None or sequence not in gaps:
            return False
        del gaps[sequence]
        if not gaps:
            del self._gaps[origin]
        return True

    def expired_gaps(self, origin: int, now: float) -> list[int]:
        """Sequence numbers from *origin* missing for longer than the timeout."""

        return sorted(
            seq
            for seq, first_noticed in self._gaps.get(origin, {}).items()
            if now - first_noticed >= self.gap_timeout_ms
        )

    def origins_with_expired_gaps(self, now: float) -> list[int]:
        return sorted(origin for origin in self._gaps if self.expired_gaps(origin, now))

    def pending_gaps(self, origin: int) -> list[int]:
        return sorted(self._gaps.get(origin, ()))

    def highest_seen(self, origin: int) -> int:
        return self._highest.get(origin, -1)

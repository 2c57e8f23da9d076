"""Shared value types used across the HERMES reproduction.

These are deliberately small, immutable building blocks: node identifiers,
geographic regions for the latency model, and a few protocol-level aliases.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NewType

NodeId = NewType("NodeId", int)
OverlayId = NewType("OverlayId", int)
SeqNum = NewType("SeqNum", int)
Milliseconds = float
Bytes = int


class Region(enum.Enum):
    """The nine geographic regions used by the paper's latency model."""

    NEW_YORK = "new-york"
    SINGAPORE = "singapore"
    FRANKFURT = "frankfurt"
    SYDNEY = "sydney"
    TOKYO = "tokyo"
    IRELAND = "ireland"
    OHIO = "ohio"
    CALIFORNIA = "california"
    LONDON = "london"

    # Enum equality is identity, so identity hashing agrees with it and runs
    # in C: Enum.__hash__ is a Python frame per (region, region) dict key.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


ALL_REGIONS: tuple[Region, ...] = tuple(Region)


@dataclass(frozen=True, slots=True)
class NodeDescriptor:
    """Static facts about a node: its identifier and where it lives."""

    node_id: int
    region: Region

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError(f"node_id must be non-negative, got {self.node_id}")


@dataclass(frozen=True, slots=True)
class LatencySample:
    """A single measured dissemination latency, in milliseconds."""

    node_id: int
    latency_ms: float


def validate_fault_parameters(n: int, f: int) -> None:
    """Check the classical ``n >= 3f + 1`` Byzantine fault-tolerance bound.

    Raises :class:`~repro.errors.ConfigurationError` when violated.
    """

    from .errors import ConfigurationError

    if n <= 0:
        raise ConfigurationError(f"network size must be positive, got n={n}")
    if f < 0:
        raise ConfigurationError(f"fault bound must be non-negative, got f={f}")
    if n < 3 * f + 1:
        raise ConfigurationError(
            f"n={n} cannot tolerate f={f} Byzantine nodes (requires n >= 3f+1 = {3 * f + 1})"
        )

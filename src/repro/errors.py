"""Exception hierarchy for the HERMES reproduction.

Every error raised by this library derives from :class:`ReproError`, so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish configuration mistakes from protocol violations detected at
runtime.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A parameter combination is invalid (e.g. ``n < 3f + 1``)."""


class CryptoError(ReproError):
    """Base class for failures in the cryptographic substrate."""


class InvalidSignatureError(CryptoError):
    """A signature or proof failed verification."""


class ThresholdNotReachedError(CryptoError):
    """Fewer than ``threshold`` valid partial signatures were supplied."""


class ShareError(CryptoError):
    """A secret share is malformed or inconsistent with the public commitments."""


class TopologyError(ReproError):
    """The physical network or an overlay violates a structural requirement."""


class OverlayConnectivityError(TopologyError):
    """An overlay does not provide the required ``f+1``-connectivity."""


class ProtocolViolationError(ReproError):
    """A node detected a protocol violation by a peer.

    Instances carry the accused node and a human-readable reason so that
    accountability layers can log and act on them.
    """

    def __init__(self, accused: int, reason: str) -> None:
        super().__init__(f"node {accused}: {reason}")
        self.accused = accused
        self.reason = reason


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly."""


class SweepExecutionError(ReproError):
    """The sweep runner could not execute a run (see ``repro.runner``)."""


class TraceReadError(ReproError):
    """A JSONL trace or bench record is malformed or has an unsupported
    version (see ``repro.obs.analysis``)."""

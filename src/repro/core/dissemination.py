"""HERMES wire messages.

The :class:`DisseminationEnvelope` travels with every transaction: it binds
the transaction to its origin's sequence number, the committee's threshold
signature (the TRS), and the overlay the seed selected.  Every relay can — and
does — re-verify all three.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.backend import CryptoBackend
from ..mempool.transaction import Transaction
from ..trs.committee import trs_binding

__all__ = [
    "ACK_KIND",
    "DISSEMINATE_KIND",
    "ROUTE_KIND",
    "GOSSIP_DIGEST_KIND",
    "GOSSIP_REQUEST_KIND",
    "GOSSIP_TXS_KIND",
    "DisseminationEnvelope",
]

DISSEMINATE_KIND = "hermes-disseminate"
ROUTE_KIND = "hermes-route"
ACK_KIND = "hermes-ack"
GOSSIP_DIGEST_KIND = "hermes-gossip-digest"
GOSSIP_REQUEST_KIND = "hermes-gossip-request"
GOSSIP_TXS_KIND = "hermes-gossip-txs"

# Envelope framing beyond the transaction and signature: origin, sequence,
# overlay id, and the 32-byte digest.
_ENVELOPE_EXTRA_BYTES = 48
# Shard tag (repro.sharding): a uint16 shard id, present only on sharded
# deployments so the unsharded wire format is untouched.
_SHARD_TAG_BYTES = 2


@dataclass(frozen=True, slots=True)
class DisseminationEnvelope:
    """A transaction plus everything needed to verify its dissemination."""

    tx: Transaction
    origin: int
    sequence: int
    signature: object
    overlay_id: int
    #: Which shard's committee sealed this envelope (None on unsharded
    #: deployments).  A relay configured for shard ``s`` rejects envelopes
    #: tagged for any other shard at admission — mis-routed traffic cannot
    #: leak across committees.
    shard_id: int | None = None
    # H(m) and the binding, hashed once at construction: every relay
    # re-verifies each copy it receives, and the fields it hashes are frozen.
    _binding: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        binding = trs_binding(self.origin, self.sequence, self.tx.digest())
        object.__setattr__(self, "_binding", binding)

    def binding(self) -> bytes:
        """The committee-signed byte string this envelope claims a seed for."""

        return self._binding

    def verify(self, backend: CryptoBackend, num_overlays: int) -> bool:
        """Check the TRS signature and that it really selects this overlay."""

        if not backend.verify_combined(self._binding, self.signature):
            return False
        return (
            backend.seed_from_signature(self.signature, num_overlays)
            == self.overlay_id
        )

    def wire_bytes(self, backend: CryptoBackend) -> int:
        size = self.tx.size_bytes + backend.threshold_sig_size + _ENVELOPE_EXTRA_BYTES
        if self.shard_id is not None:
            size += _SHARD_TAG_BYTES
        return size

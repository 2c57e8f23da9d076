"""Committee-member side of TRS generation (Algorithm 4, steps 2–3).

Each committee member embeds a :class:`TrsCommitteeMember` component.  On a
seed request it injects the ``(requester, i, H(m))`` binding into the
committee's Bracha RBC; once the binding is *delivered* (agreed despite up to
``f`` Byzantine members), it produces a partial threshold signature and
returns it to the requester.

Sequence-number discipline: the committee only serves sequence number ``i``
for a requester after having served ``0 .. i-1`` (out-of-order requests are
parked).  This is what later forces senders to transmit skipped messages
before new ones (§VI-C) — the committee simply won't mint seeds for gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from ..crypto.backend import CryptoBackend
from ..crypto.hashing import encode_for_hash
from ..net.events import Message
from ..net.node import ProtocolNode
from ..rbc.bracha import BrachaContext

__all__ = [
    "TRS_REQUEST_KIND",
    "TRS_PARTIAL_KIND",
    "TrsCommitteeMember",
    "trs_binding",
]

TRS_REQUEST_KIND = "trs-request"
TRS_PARTIAL_KIND = "trs-partial"

# Payload bytes: sequence number + 32-byte digest (+ requester id).
_REQUEST_PAYLOAD_BYTES = 44


def trs_binding(requester: int, sequence: int, digest: bytes) -> bytes:
    """Canonical byte string the committee signs for one seed."""

    return encode_for_hash("trs-binding", requester, sequence, digest)


@dataclass
class _RequesterState:
    """Per-requester sequencing state at one committee member."""

    next_expected: int = 0
    parked: dict[int, bytes] = field(default_factory=dict)
    served: set[int] = field(default_factory=set)


class TrsCommitteeMember:
    """TRS logic embedded in a committee member's protocol node."""

    def __init__(
        self,
        node: ProtocolNode,
        committee: Sequence[int],
        f: int,
        backend: CryptoBackend,
        enforce_sequencing: bool = True,
    ) -> None:
        self._node = node
        self.committee = tuple(sorted(set(committee)))
        self.f = f
        self._backend = backend
        self._enforce_sequencing = enforce_sequencing
        self._requesters: dict[int, _RequesterState] = {}
        self._rbc = BrachaContext(
            node, self.committee, f, on_deliver=self._on_agreed, kind_prefix="trs-rbc"
        )

    def close(self) -> None:
        """Drop the RBC context, whose delivery callback is this member."""

        self._rbc = None

    # -- dispatch ---------------------------------------------------------

    def handles(self, kind: str) -> bool:
        return kind == TRS_REQUEST_KIND or self._rbc.handles(kind)

    def handle(self, sender: int, message: Message) -> bool:
        """Process a TRS-related message; False when the kind is foreign."""

        if message.kind == TRS_REQUEST_KIND:
            requester, sequence, digest = message.payload
            if requester != sender:
                return True  # a relayed request is a protocol violation; drop
            self._on_request(requester, sequence, digest)
            return True
        return self._rbc.handle(sender, message)

    # -- protocol -----------------------------------------------------------

    def _on_request(self, requester: int, sequence: int, digest: bytes) -> None:
        state = self._requesters.setdefault(requester, _RequesterState())
        if sequence in state.served or sequence in state.parked:
            return
        if self._enforce_sequencing and sequence > state.next_expected:
            # Gap: the requester skipped sequence numbers. Park until filled.
            state.parked[sequence] = digest
            return
        self._admit(requester, sequence, digest, state)

    def _admit(
        self, requester: int, sequence: int, digest: bytes, state: _RequesterState
    ) -> None:
        self._rbc.inject(requester, sequence, digest)
        if sequence == state.next_expected:
            state.next_expected += 1
            # Drain any parked requests that are now in order.
            while state.next_expected in state.parked:
                parked_digest = state.parked.pop(state.next_expected)
                self._rbc.inject(requester, state.next_expected, parked_digest)
                state.next_expected += 1

    def _on_agreed(self, requester: int, sequence: int, payload: Hashable) -> None:
        """RBC delivered the binding: sign and reply (Alg. 4 step 3)."""

        digest = payload if isinstance(payload, bytes) else bytes(payload)
        state = self._requesters.setdefault(requester, _RequesterState())
        state.served.add(sequence)
        binding = trs_binding(requester, sequence, digest)
        partial = self._backend.partial_sign(self._node.node_id, binding)
        reply = Message(
            TRS_PARTIAL_KIND,
            (sequence, digest, partial),
            self._backend.partial_size,
        )
        if requester == self._node.node_id:
            # The committee member requested a seed itself.
            self._node.on_message(self._node.node_id, reply)
        else:
            self._node.send(requester, reply)

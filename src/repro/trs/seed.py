"""Sender side of TRS generation (Algorithm 4, steps 1 and 4).

The :class:`TrsClient` sends ``(i, H(m))`` to every committee member, collects
their partial signatures, verifies each one publicly, combines ``2f+1`` of
them into the unique threshold signature, and hands the resulting
:class:`TrsResult` (signature + selected overlay) to its owner's callback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..crypto.backend import CryptoBackend
from ..errors import ThresholdNotReachedError
from ..net.events import Message
from ..net.node import ProtocolNode
from .committee import TRS_PARTIAL_KIND, TRS_REQUEST_KIND, trs_binding

__all__ = ["TrsClient", "TrsResult"]


@dataclass(frozen=True, slots=True)
class TrsResult:
    """A minted seed: the combined signature and the overlay it selects."""

    sequence: int
    digest: bytes
    signature: object
    overlay_id: int


@dataclass
class _PendingRequest:
    digest: bytes
    callback: Callable[[TrsResult], None]
    partials: list[object] = field(default_factory=list)
    contributors: set[int] = field(default_factory=set)
    done: bool = False


class TrsClient:
    """Requests and assembles threshold random seeds for one sender node."""

    def __init__(
        self,
        node: ProtocolNode,
        committee: Sequence[int],
        f: int,
        backend: CryptoBackend,
        num_overlays: int,
    ) -> None:
        if num_overlays < 1:
            raise ValueError(f"need at least one overlay, got {num_overlays}")
        self._node = node
        self.committee = tuple(sorted(set(committee)))
        self.f = f
        self._backend = backend
        self._num_overlays = num_overlays
        self._next_sequence = 0
        self._pending: dict[int, _PendingRequest] = {}

    @property
    def next_sequence(self) -> int:
        return self._next_sequence

    # -- requesting -------------------------------------------------------

    def request(
        self, digest: bytes, callback: Callable[[TrsResult], None]
    ) -> int:
        """Ask the committee for the seed of this sender's next message.

        Returns the sequence number assigned to the request.  *callback* fires
        exactly once, when ``2f+1`` valid partials have been combined.
        """

        sequence = self._next_sequence
        self._next_sequence += 1
        self._pending[sequence] = _PendingRequest(digest=digest, callback=callback)
        request = Message(
            TRS_REQUEST_KIND, (self._node.node_id, sequence, digest), 44
        )
        for member in self.committee:
            if member == self._node.node_id:
                # Committee members may send too; loop the request back.
                self._node.on_message(self._node.node_id, request)
            else:
                self._node.send(member, request)
        return sequence

    # -- partial collection -------------------------------------------------

    def handles(self, kind: str) -> bool:
        return kind == TRS_PARTIAL_KIND

    def handle(self, sender: int, message: Message) -> bool:
        if message.kind != TRS_PARTIAL_KIND:
            return False
        if sender not in self.committee:
            return True  # partials from non-members are violations; ignore
        sequence, digest, partial = message.payload
        pending = self._pending.get(sequence)
        if pending is None or pending.done or digest != pending.digest:
            return True
        if sender in pending.contributors:
            return True
        binding = trs_binding(self._node.node_id, sequence, digest)
        if not self._backend.verify_partial(binding, partial):
            return True  # invalid partial: attributable misbehaviour, ignore
        pending.contributors.add(sender)
        pending.partials.append(partial)
        if len(pending.partials) >= 2 * self.f + 1:
            self._combine(sequence, pending)
        return True

    def _combine(self, sequence: int, pending: _PendingRequest) -> None:
        binding = trs_binding(self._node.node_id, sequence, pending.digest)
        try:
            signature = self._backend.combine(binding, pending.partials)
        except ThresholdNotReachedError:
            return  # keep collecting; more partials may arrive
        pending.done = True
        overlay_id = self._backend.seed_from_signature(signature, self._num_overlays)
        result = TrsResult(
            sequence=sequence,
            digest=pending.digest,
            signature=signature,
            overlay_id=overlay_id,
        )
        pending.callback(result)

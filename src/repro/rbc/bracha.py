"""Bracha reliable broadcast (Information & Computation, 1987).

For ``n >= 3f + 1`` participants the protocol guarantees, despite ``f``
Byzantine members:

* **Validity** — a payload broadcast by a correct source is delivered by all
  correct members;
* **Consistency** — no two correct members deliver different payloads for the
  same ``(source, sequence)`` slot;
* **Totality** — if one correct member delivers, all correct members do.

Message flow per slot: the source SENDs its payload; members ECHO the first
payload they see; on ``2f+1`` matching ECHOs *or* ``f+1`` matching READYs a
member sends READY; on ``2f+1`` matching READYs it delivers.

:class:`BrachaContext` is an embeddable component — protocol nodes own one and
feed it messages — so the TRS committee can run RBC inside HERMES nodes, while
:class:`BrachaNode` is a standalone actor for direct testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

from ..net.events import Message
from ..net.node import Network, ProtocolNode

__all__ = ["BrachaContext", "BrachaNode"]

# Payload sizes for bandwidth accounting: a slot id plus a 32-byte digest.
_RBC_PAYLOAD_BYTES = 48


@dataclass(slots=True)
class _SlotState:
    """Per-(source, sequence) protocol state at one member.

    A delivered slot keeps only its verdict: delivery implies ``echoed`` and
    ``readied`` (``f+1`` READYs come before ``2f+1``), so no later ECHO or
    READY can change what the member sends or delivers, and the supporter
    maps are dropped (``None``) at delivery.
    """

    echoed: bool = False
    readied: bool = False
    delivered: bool = False
    echoes: dict[Hashable, set[int]] | None = field(default_factory=dict)
    readies: dict[Hashable, set[int]] | None = field(default_factory=dict)
    # First local activity on the slot, for the rbc.round_ms metric.
    opened_ms: float | None = None


class BrachaContext:
    """Bracha RBC among a fixed member set, embedded in a protocol node.

    Parameters
    ----------
    node:
        The owning protocol node (used for sending and identity).
    members:
        The ``3f+1`` participants (must include the owner).
    f:
        Fault bound.
    on_deliver:
        Callback ``(source, sequence, payload)`` invoked exactly once per slot.
    kind_prefix:
        Namespace for the message kinds, so several RBC contexts can coexist
        on one node.
    """

    def __init__(
        self,
        node: ProtocolNode,
        members: Sequence[int],
        f: int,
        on_deliver: Callable[[int, int, Hashable], None],
        kind_prefix: str = "rbc",
    ) -> None:
        if node.node_id not in members:
            raise ValueError("the owning node must be a committee member")
        if len(members) < 3 * f + 1:
            raise ValueError(
                f"{len(members)} members cannot tolerate f={f} (need 3f+1)"
            )
        self._node = node
        self.members = tuple(sorted(set(members)))
        self.f = f
        self._on_deliver = on_deliver
        self._prefix = kind_prefix
        self._slots: dict[tuple[int, int], _SlotState] = {}

    # -- message kinds --------------------------------------------------

    @property
    def send_kind(self) -> str:
        return f"{self._prefix}-send"

    @property
    def echo_kind(self) -> str:
        return f"{self._prefix}-echo"

    @property
    def ready_kind(self) -> str:
        return f"{self._prefix}-ready"

    def handles(self, kind: str) -> bool:
        return kind in (self.send_kind, self.echo_kind, self.ready_kind)

    # -- protocol -------------------------------------------------------

    def broadcast(self, sequence: int, payload: Hashable) -> None:
        """Act as source for slot ``(self, sequence)``."""

        body = (self._node.node_id, sequence, payload)
        message = Message(self.send_kind, body, _RBC_PAYLOAD_BYTES)
        for member in self.members:
            if member == self._node.node_id:
                self._on_send(self._node.node_id, body)
            else:
                self._node.send(member, message)

    def inject(self, source: int, sequence: int, payload: Hashable) -> None:
        """Enter the echo phase for an externally received payload.

        The TRS flow (Alg. 4) starts with a *non-member* source sending
        ``(i, H(m))`` to every committee member; each member then treats that
        request as the SEND of slot ``(source, i)`` and echoes it.
        """

        state = self._slot(source, sequence)
        if state.echoed:
            return
        state.echoed = True
        self._multicast(self.echo_kind, (source, sequence, payload))

    def handle(self, sender: int, message: Message) -> bool:
        """Process an RBC message; returns False when the kind is foreign."""

        if sender not in self.members:
            return message.kind in (self.send_kind, self.echo_kind, self.ready_kind)
        if message.kind == self.send_kind:
            self._on_send(sender, message.payload)
        elif message.kind == self.echo_kind:
            self._on_echo(sender, message.payload)
        elif message.kind == self.ready_kind:
            self._on_ready(sender, message.payload)
        else:
            return False
        return True

    # -- internals ------------------------------------------------------

    def _slot(self, source: int, sequence: int) -> _SlotState:
        state = self._slots.get((source, sequence))
        if state is None:
            state = _SlotState(opened_ms=self._node.now)
            self._slots[(source, sequence)] = state
        return state

    def _multicast(self, kind: str, body: object) -> None:
        message = Message(kind, body, _RBC_PAYLOAD_BYTES)
        for member in self.members:
            if member == self._node.node_id:
                # Loopback: handle our own echo/ready immediately.
                if kind == self.echo_kind:
                    self._on_echo(self._node.node_id, body)
                else:
                    self._on_ready(self._node.node_id, body)
            else:
                self._node.send(member, message)

    def _on_send(self, sender: int, body: object) -> None:
        source, sequence, payload = body
        if sender != source:
            return  # only the source may originate SEND for its slot
        state = self._slot(source, sequence)
        if state.echoed:
            return
        state.echoed = True
        self._multicast(self.echo_kind, (source, sequence, payload))

    def _on_echo(self, sender: int, body: object) -> None:
        source, sequence, payload = body
        state = self._slot(source, sequence)
        if state.delivered:
            return
        supporters = state.echoes.setdefault(payload, set())
        supporters.add(sender)
        if len(supporters) >= 2 * self.f + 1:
            self._maybe_ready(source, sequence, payload, state)

    def _on_ready(self, sender: int, body: object) -> None:
        source, sequence, payload = body
        state = self._slot(source, sequence)
        if state.delivered:
            return
        supporters = state.readies.setdefault(payload, set())
        supporters.add(sender)
        if len(supporters) >= self.f + 1:
            self._maybe_ready(source, sequence, payload, state)
        # The READY that _maybe_ready loops back to this member may already
        # have delivered the slot.
        if len(supporters) >= 2 * self.f + 1 and not state.delivered:
            state.delivered = True
            state.echoes = state.readies = None
            obs = getattr(self._node.network, "obs", None)
            if obs is not None and state.opened_ms is not None:
                # Local view of the round: first slot activity → delivery.
                obs.metrics.histogram("rbc.round_ms", context=self._prefix).observe(
                    self._node.now - state.opened_ms
                )
            self._on_deliver(source, sequence, payload)

    def _maybe_ready(
        self, source: int, sequence: int, payload: Hashable, state: _SlotState
    ) -> None:
        if state.readied:
            return
        state.readied = True
        # Echo amplification: a member that never saw the SEND still echoes
        # once the payload is attested, preserving totality.
        if not state.echoed:
            state.echoed = True
            self._multicast(self.echo_kind, (source, sequence, payload))
        self._multicast(self.ready_kind, (source, sequence, payload))


class BrachaNode(ProtocolNode):
    """A standalone RBC participant, for tests and the RBC micro-benchmarks."""

    def __init__(
        self, node_id: int, network: Network, members: Sequence[int], f: int
    ) -> None:
        super().__init__(node_id, network)
        self.delivered: list[tuple[int, int, Hashable]] = []
        self.context = BrachaContext(
            self, members, f, on_deliver=self._record_delivery
        )

    def _record_delivery(self, source: int, sequence: int, payload: Hashable) -> None:
        self.delivered.append((source, sequence, payload))

    def broadcast(self, sequence: int, payload: Hashable) -> None:
        self.context.broadcast(sequence, payload)

    def on_message(self, sender: int, message: Message) -> None:
        self.context.handle(sender, message)

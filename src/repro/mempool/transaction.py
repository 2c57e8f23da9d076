"""Transactions: the unit of dissemination.

The paper's experiments use 250-byte transactions.  A transaction carries an
origin node, a creation time, and an optional *victim/adversarial* tag used
only by the front-running experiments (it does not exist on the wire).

``fee`` is the priority bid a sender attaches for fee-market ordering
(:meth:`repro.mempool.mempool.Mempool.in_priority_order`); it defaults to
``0.0``, in which case it is absent from :meth:`Transaction.digest` so every
fee-less run stays byte-identical to the pre-fee protocol.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..crypto.hashing import hash_bytes

__all__ = ["Transaction", "TX_SIZE_BYTES", "reset_tx_ids"]

TX_SIZE_BYTES = 250

_tx_counter = itertools.count()


def reset_tx_ids(start: int = 0) -> None:
    """Rewind the global transaction-id counter.

    Transaction ids feed ``digest()`` and therefore the TRS overlay draw, so
    a run's measurements depend on the counter state it started from.  The
    sweep runner (:mod:`repro.runner`) resets the counter before every run,
    making each cell a pure function of its parameters regardless of what
    else executed in the same process.  Only call this between *independent*
    simulations — ids must stay unique within one running system.
    """

    global _tx_counter
    _tx_counter = itertools.count(start)


@dataclass(frozen=True, slots=True)
class Transaction:
    """An application transaction.

    ``payload`` carries opaque application bytes when a protocol layer needs
    real content on the wire (e.g. erasure-coded batch shards); plain
    experiment transactions leave it empty and are sized by ``size_bytes``.
    """

    tx_id: int
    origin: int
    created_at: float
    size_bytes: int = TX_SIZE_BYTES
    tag: str = ""
    payload: bytes = b""
    #: Priority bid for fee-market ordering; 0.0 = no bid (arrival order).
    fee: float = 0.0

    @classmethod
    def create(
        cls,
        origin: int,
        created_at: float,
        size_bytes: int = TX_SIZE_BYTES,
        tag: str = "",
        payload: bytes = b"",
        fee: float = 0.0,
    ) -> "Transaction":
        return cls(
            tx_id=next(_tx_counter),
            origin=origin,
            created_at=created_at,
            size_bytes=size_bytes,
            tag=tag,
            payload=payload,
            fee=fee,
        )

    def digest(self) -> bytes:
        """``H(m)`` — the hash bound by the TRS and checked by relays.

        A zero fee is omitted from the hash input, so transactions created
        before the fee field existed (and every experiment that leaves fees
        off) keep their exact historical digests — the golden-hash pins in
        ``tests/integration`` depend on this.
        """

        if self.fee:
            return hash_bytes(
                "tx",
                self.tx_id,
                self.origin,
                self.size_bytes,
                self.payload,
                repr(self.fee),
            )
        return hash_bytes("tx", self.tx_id, self.origin, self.size_bytes, self.payload)

    @property
    def is_adversarial(self) -> bool:
        return self.tag == "adversarial"

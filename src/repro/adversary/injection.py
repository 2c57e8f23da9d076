"""Per-protocol injection and censorship levers.

Every strategy in the zoo eventually has to *act*: put an adversarial
transaction on the wire, or suppress a victim's.  What it is allowed to do
differs per protocol, and those differences are the paper's point (§VIII-F):

* **HERMES** — relays only accept transactions from legitimate overlay
  predecessors carrying a valid TRS, so the adversary *must* go through the
  committee (paying the seed round-trip) and over a randomly assigned overlay
  it cannot choose.
* **L∅** — mempool commitments make out-of-band injection attributable, so the
  adversarial transaction travels through ordinary partner gossip.
* **Narwhal** — no dissemination accountability; the adversary broadcasts its
  own batch immediately.
* **Mercury** — no sender verification at all: the adversary injects the
  transaction *directly* to every cluster landmark, skipping cluster routing.
* **F3B** — injection is ordinary commit-then-reveal, but the adversary's
  *reaction time* is what the defense attacks: by the time content is
  observable, every honest node has already locked the victim's position.

These helpers started life in :mod:`repro.attacks.frontrun` and moved here
when the strategy zoo became their primary consumer; the Fig. 5a driver
imports them from here.
"""

from __future__ import annotations

from typing import Callable

from ..baselines.f3b import F3BSystem
from ..baselines.lzero import LZeroSystem
from ..baselines.mercury import MERCURY_TX_KIND, MercurySystem
from ..core.protocol import HermesSystem
from ..mempool.transaction import Transaction
from ..net.events import Message

__all__ = [
    "adversarial_strategy_for",
    "censorship_is_deniable",
    "default_adversarial_submit",
    "mercury_direct_injection",
]


def default_adversarial_submit(system, node, tx: Transaction) -> None:
    """Submit through the protocol (what accountability forces)."""

    node.submit_transaction(tx)


def mercury_direct_injection(system: MercurySystem, node, tx: Transaction) -> None:
    """Target Mercury's critical cluster nodes directly.

    Mercury performs no sender verification, so the adversary pushes its
    transaction straight to every cluster landmark (the relays every cluster's
    traffic funnels through) in addition to its own peers — skipping the
    cluster routing the victim's transaction has to take.
    """

    system.network.stats.record_dissemination_start(tx.tx_id, system.simulator.now)
    node.deliver_locally(tx)
    message = Message(MERCURY_TX_KIND, tx, tx.size_bytes)
    targets = set(node.peers) | set(system.landmarks)
    for peer in targets:
        if peer != node.node_id:
            node.send(peer, message)


def adversarial_strategy_for(system) -> Callable:
    """The fastest injection the protocol's checks still permit."""

    if isinstance(system, MercurySystem):
        return mercury_direct_injection
    return default_adversarial_submit


def censorship_is_deniable(system) -> bool:
    """Whether a colluding relay can suppress the victim tx without exposure.

    A rational adversary only censors where it cannot be attributed:

    * **HERMES** — relays must prove they forwarded along the signed overlay
      (§I: nodes "prove adherence to the mempool's dissemination policies");
      every receiver knows its f+1 predecessors, so a silent predecessor is
      identified and excluded.  No deniable censorship.
    * **L∅** — mempool commitments and witnessing uncover selective forwarding
      with high probability.  No deniable censorship.
    * **F3B** — commits are indistinguishable ciphertexts, so *targeted*
      pre-reveal censorship is impossible outright; post-reveal suppression is
      deniable but too late to change positions.  Treated as non-deniable
      because the lever the zoo models (withhold the victim's frames before
      the proposer sees them) does not exist.
    * **Narwhal / Mercury / plain gossip** — no relay accountability at all.
    """

    return not isinstance(system, (LZeroSystem, HermesSystem, F3BSystem))

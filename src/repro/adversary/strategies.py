"""The built-in strategy zoo.

Five strategies spanning the attack surface the paper (§VIII) and the
defenses it compares against care about:

* :class:`SandwichStrategy` — the canonical DeFi extraction: a leading leg
  racing ahead of the victim plus a trailing leg behind it.  Full value only
  on a complete sandwich.
* :class:`PriorityRaceStrategy` — outbid instead of outrun: launch a copy
  with ``victim.fee + fee_premium`` and let a fee-market proposer
  (``priority`` blocks) do the reordering.  Dissemination speed stops
  mattering; the bid does — and the bid is subtracted from the profit.
* :class:`CensorReorderStrategy` — the coalition withholds the victim's
  frames (where the protocol cannot attribute it) while its first observer
  pushes a replacement.  This is exactly the composed adversary of the
  legacy :func:`repro.attacks.frontrun.run_front_running_trial`.
* :class:`BlackoutStrategy` — no extraction at all: every coalition node
  silently drops relayed traffic (``DROP_RELAY``).  The zoo measures honest
  coverage; this is the legacy censorship trial (fig5b) as a strategy.
* :class:`FloodStrategy` — infrastructure attack: an out-of-population
  flooder directs junk at one relay (the proposer by default), degrading
  every delivery that routes through it.  The legacy overload trial as a
  strategy.

Each strategy acts through :meth:`AgentContext.inject` / ``censor``, so the
per-protocol levers (Mercury direct injection, HERMES committee path,
accountability gating) apply uniformly — a strategy never special-cases a
protocol.
"""

from __future__ import annotations

from ..mempool.transaction import Transaction
from ..net.events import Message
from ..net.faults import Behavior
from ..net.node import ProtocolNode
from .agent import StrategyAgent, register_strategy

__all__ = [
    "BlackoutStrategy",
    "CensorReorderStrategy",
    "FlooderNode",
    "FloodStrategy",
    "PriorityRaceStrategy",
    "SandwichStrategy",
]


class _FirstObserverStrategy(StrategyAgent):
    """Shared scaffolding: trigger once, on the first coalition sighting."""

    def __init__(self) -> None:
        super().__init__()
        self.attacker: int | None = None
        self.observation_time: float | None = None

    def on_observe(self, node, tx: Transaction) -> None:
        ctx = self.ctx
        if not ctx.is_victim(tx):
            return
        self.on_victim_everywhere(node, tx)
        if self.attacker is not None:
            return
        self.attacker = node.node_id
        self.observation_time = node.now
        self.on_victim_first(node, tx)

    def on_victim_everywhere(self, node, tx: Transaction) -> None:
        """Every coalition node's reaction to seeing the victim's content."""

    def on_victim_first(self, node, tx: Transaction) -> None:
        """The first observer's reaction (launch legs here)."""


@register_strategy
class SandwichStrategy(_FirstObserverStrategy):
    """Lead ahead of the victim, trail behind it, capture the spread.

    The leading leg launches the instant any coalition node reads the
    victim's content, bidding ``victim.fee + fee_premium`` (on arrival-order
    proposers the bid buys nothing but is still paid if included — sandwiches
    are not free).  The trailing leg launches ``trail_delay_ms`` later with
    no bid: it *wants* to be behind the victim.
    """

    name = "sandwich"

    def __init__(self, trail_delay_ms: float = 150.0) -> None:
        super().__init__()
        if trail_delay_ms < 0:
            raise ValueError(f"trail_delay_ms must be >= 0, got {trail_delay_ms}")
        self.trail_delay_ms = trail_delay_ms

    def on_victim_first(self, node, tx: Transaction) -> None:
        ctx = self.ctx
        lead = Transaction.create(
            origin=node.node_id,
            created_at=node.now,
            tag="adversarial",
            fee=ctx.bid_fee(tx.fee),
        )
        ctx.inject(node, lead, role="lead")

        def launch_trail() -> None:
            trail = Transaction.create(
                origin=node.node_id, created_at=node.now, tag="adversarial"
            )
            ctx.inject(node, trail, role="trail")

        node.schedule(self.trail_delay_ms, launch_trail)


@register_strategy
class PriorityRaceStrategy(_FirstObserverStrategy):
    """Outbid the victim on a fee market instead of outrunning it.

    Declares :attr:`block_priority`, so the zoo's proposer packs the block by
    descending fee — the race is decided by ``victim.fee + fee_premium``
    arriving *at all* before the proposal cutoff, not by arriving first.
    Against fast dissemination this almost always succeeds; the defense story
    moves entirely into economics (the premium is paid win or lose-to-cutoff)
    and fairness metrics.
    """

    name = "priority-race"
    block_priority = True

    def on_victim_first(self, node, tx: Transaction) -> None:
        ctx = self.ctx
        race = Transaction.create(
            origin=node.node_id,
            created_at=node.now,
            tag="adversarial",
            fee=ctx.bid_fee(tx.fee),
        )
        ctx.inject(node, race, role="race")


@register_strategy
class CensorReorderStrategy(_FirstObserverStrategy):
    """Withhold the victim's frames coalition-wide while pushing a rival.

    Censorship arms on *every* coalition node the moment any of them reads
    the victim's content (colluders share knowledge), but only where the
    protocol cannot attribute suppression — against HERMES and L∅ the
    censor half is a no-op and the strategy degrades to a plain race.
    """

    name = "censor-reorder"

    def on_victim_everywhere(self, node, tx: Transaction) -> None:
        # Arm this node (and, on first sighting, the whole coalition —
        # re-arming is idempotent for the rest).
        self.ctx.censor(tx)

    def on_victim_first(self, node, tx: Transaction) -> None:
        push = Transaction.create(
            origin=node.node_id, created_at=node.now, tag="adversarial"
        )
        self.ctx.inject(node, push, role="push")


@register_strategy
class BlackoutStrategy(StrategyAgent):
    """Indiscriminate relay blackout: the legacy censorship trial.

    The coalition's entire effect is its :attr:`behavior` — every malicious
    node runs ``DROP_RELAY`` and silently consumes what it should forward.
    No injection, no targeting; success is measured as the complement of
    honest coverage, not extracted value.
    """

    name = "blackout"
    behavior = Behavior.DROP_RELAY


_JUNK_KIND = "overload-junk"
_JUNK_BYTES = 250


class FlooderNode(ProtocolNode):
    """Sends junk to one target at a fixed rate.

    Registered with an id outside the protocol population, so it participates
    in no overlay — pure background pressure on the target's inbox.
    """

    def __init__(
        self, node_id: int, network, target: int, interval_ms: float
    ) -> None:
        super().__init__(node_id, network)
        if interval_ms <= 0:
            raise ValueError(f"interval_ms must be positive, got {interval_ms}")
        self.target = target
        self.interval_ms = interval_ms

    def on_start(self) -> None:
        self._flood()

    def _flood(self) -> None:
        self.send(self.target, Message(_JUNK_KIND, None, _JUNK_BYTES))
        self.schedule(self.interval_ms, self._flood)

    def on_message(self, sender: int, message: Message) -> None:
        pass  # the flooder ignores everything


@register_strategy
class FloodStrategy(StrategyAgent):
    """Overwhelm one relay with junk traffic: the legacy overload trial.

    Spawns a :class:`FlooderNode` against ``target`` (the trial's proposer
    when unset) at attach time.  Only bites when the network models per-node
    service time (``Network.service_time_ms > 0``) — with infinite-capacity
    nodes, flooding is free for the defender too.  Coalition nodes otherwise
    behave honestly: the flooder is the whole attack.
    """

    name = "flood"
    behavior = Behavior.HONEST

    def __init__(self, target: int | None = None, interval_ms: float = 0.5) -> None:
        super().__init__()
        self.target = target
        self.interval_ms = interval_ms
        self.flooder: FlooderNode | None = None

    def on_attach(self) -> None:
        ctx = self.ctx
        target = self.target if self.target is not None else ctx.target
        if target is None:
            raise ValueError("FloodStrategy needs a target (or a trial proposer)")
        network = ctx.system.network
        flooder_id = max(network.node_ids()) + 1
        self.flooder = FlooderNode(
            flooder_id, network, target, interval_ms=self.interval_ms
        )

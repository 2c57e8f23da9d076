"""Differential tests for the transport's one transmission body.

``Network.send_many(src, dsts, m)`` hoists everything that cannot change
within a fan-out and draws jitter from a buffered block of normals.  Each
test here holds it against a slow reference: the same sends made one at a
time on a twin network, and ``LossModel.jitter_factor`` on a twin
``random.Random``.  Identity is exact — the same floats, the same events in
the same order, the same generator states.
"""

import random

import pytest

from repro.chaos import LinkDisruptor
from repro.errors import SimulationError
from repro.load.capacity import CapacityConfig, CapacityModel
from repro.net.channel import LossModel
from repro.net.events import Message
from repro.net.node import JITTER_BLOCK, Network, ProtocolNode
from repro.net.simulator import Simulator
from repro.utils.rng import derive_rng

NODES = range(8)


class Logger(ProtocolNode):
    """Appends ``(time, src, dst, msg_id)`` to a log shared by the network."""

    def __init__(self, node_id, network, log):
        super().__init__(node_id, network)
        self.log = log

    def on_message(self, sender, message):
        self.log.append((self.now, sender, self.node_id, message.msg_id))


def _configure(network, hook, taps):
    if hook == "taps":
        network.on_send = lambda src, dst, message, t: taps.append(("send", src, dst, t))
        network.on_receive = lambda src, dst, message, t: taps.append(("recv", src, dst, t))
    elif hook == "capacity":
        network.capacity = CapacityModel(
            CapacityConfig(uplink_kb_per_s=4.0, downlink_kb_per_s=8.0, queue_bytes=900)
        )
    elif hook == "disruptor":
        disruptor = LinkDisruptor(random.Random(5))
        disruptor.add_partition(0.0, 40.0, frozenset({3}))
        disruptor.add_loss_window(10.0, 80.0, 0.3)
        disruptor.add_latency_spike(20.0, 120.0, 3.0)
        network.disruptor = disruptor


def _build(physical, hook):
    loss = LossModel(loss_probability=0.25) if hook == "loss" else None
    service = 2.5 if hook == "service" else 0.0
    network = Network(
        Simulator(), physical, loss_model=loss, service_time_ms=service, seed=11
    )
    log, taps = [], []
    for node_id in NODES:
        Logger(node_id, network, log)
    _configure(network, hook, taps)
    return network, log, taps


def _drive(network, fan_outs, batched):
    """Replay *fan_outs* — ``(at_ms, src, dsts, message)`` — on *network*."""

    def fire(src, dsts, message):
        if batched:
            network.send_many(src, dsts, message)
        else:
            for dst in dsts:
                network.send(src, dst, message)

    for at_ms, src, dsts, message in fan_outs:
        network.simulator.schedule_at(at_ms, lambda s=src, d=dsts, m=message: fire(s, d, m))
    network.simulator.run()


def _fan_outs(count=60):
    rng = random.Random(3)
    out = []
    for index in range(count):
        src = rng.choice(NODES)
        dsts = rng.sample([n for n in NODES if n != src], rng.randint(1, 6))
        out.append((index * 2.0, src, dsts, Message("k", index, rng.randint(50, 400))))
    return out


@pytest.mark.parametrize(
    "hook", ["plain", "capacity", "disruptor", "loss", "service", "taps"]
)
def test_send_many_equals_sends_one_at_a_time(physical40, hook):
    fan_outs = _fan_outs()
    runs = {}
    for batched in (True, False):
        network, log, taps = _build(physical40, hook)
        _drive(network, fan_outs, batched)
        runs[batched] = (network, log, taps)
    (fast, fast_log, fast_taps), (slow, slow_log, slow_taps) = runs[True], runs[False]
    assert fast_log == slow_log and fast_log  # (time, src, dst, msg_id), in order
    assert fast_taps == slow_taps
    if hook == "taps":
        assert {tap[0] for tap in fast_taps} == {"send", "recv"}
    assert fast.stats == slow.stats
    assert fast.simulator.events_processed == slow.simulator.events_processed
    assert fast._rng.getstate() == slow._rng.getstate()
    if hook == "disruptor":
        assert fast.disruptor._rng.getstate() == slow.disruptor._rng.getstate()
        assert fast.disruptor.dropped_by_partition == slow.disruptor.dropped_by_partition > 0
        assert fast.disruptor.dropped_by_loss == slow.disruptor.dropped_by_loss > 0
    if hook in ("capacity", "loss"):
        assert fast.stats.messages_dropped + fast.stats.capacity_drops > 0


def test_jitter_factors_equal_the_reference_across_a_block_boundary(physical40):
    """Every inline factor is ``LossModel.jitter_factor`` on a twin rng."""

    model = LossModel(jitter_sigma=0.2)
    network = Network(Simulator(), physical40, loss_model=model, seed=4)
    for node_id in (0, 1):
        Logger(node_id, network, [])
    count = JITTER_BLOCK + 904  # crosses into the second block
    messages = [Message("k", i, 10) for i in range(count)]
    network.send_many(0, [1] * (count // 2), messages[0])
    for message in messages[count // 2:]:
        network.send(0, 1, message)
    twin = derive_rng(4, "network")
    base = network.base_latency(0, 1)
    proc = network.processing_delay_ms
    expected = [
        0.0 + (base * 1.0 * model.jitter_factor(twin) + proc) for _ in range(count)
    ]
    pending = sorted(network.simulator._queue, key=lambda event: event[1])
    assert [event[0] for event in pending] == expected
    # The buffer drew whole blocks ahead; the twin catches up to match.
    for _ in range(2 * JITTER_BLOCK - count):
        model.jitter_factor(twin)
    assert network._rng.getstate() == twin.getstate()


def test_unknown_destination_raises_after_earlier_sends(physical40):
    network, _log, _taps = _build(physical40, "plain")
    with pytest.raises(SimulationError, match="unknown node 99"):
        network.send_many(0, [1, 99, 2], Message("k", None, 5))
    assert network.stats.messages_sent[0] == 1
    assert network.simulator.pending_events() == 1

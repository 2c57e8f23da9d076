"""Unit tests for the network transport layer and protocol-node API."""

import pytest

from repro.errors import SimulationError
from repro.net.channel import LossModel
from repro.net.events import ENVELOPE_OVERHEAD_BYTES, Message
from repro.net.node import Network, ProtocolNode
from repro.net.simulator import Simulator


class Recorder(ProtocolNode):
    """Collects every message it receives with the arrival time."""

    def __init__(self, node_id, network):
        super().__init__(node_id, network)
        self.received = []
        self.started = False

    def on_start(self):
        self.started = True

    def on_message(self, sender, message):
        self.received.append((sender, message.payload, self.now))


@pytest.fixture()
def network(physical40):
    return Network(Simulator(), physical40, seed=3)


class TestRegistration:
    def test_duplicate_registration_rejected(self, network):
        Recorder(0, network)
        with pytest.raises(SimulationError):
            Recorder(0, network)

    def test_unknown_destination_rejected(self, network):
        node = Recorder(0, network)
        with pytest.raises(SimulationError):
            node.send(99, Message("k", None, 1))

    def test_node_lookup(self, network):
        node = Recorder(0, network)
        assert network.node(0) is node
        with pytest.raises(SimulationError):
            network.node(42)

    def test_start_all_invokes_hooks(self, network):
        nodes = [Recorder(i, network) for i in range(3)]
        network.start_all()
        network.simulator.run()
        assert all(node.started for node in nodes)


class TestDelivery:
    def test_message_arrives_after_latency(self, network):
        a, b = Recorder(0, network), Recorder(1, network)
        a.send(1, Message("k", "hello", 10))
        network.simulator.run()
        assert len(b.received) == 1
        sender, payload, when = b.received[0]
        assert sender == 0 and payload == "hello"
        base = network.base_latency(0, 1)
        assert when == pytest.approx(base, rel=0.3)

    def test_send_many_delivers_one_message_to_each_destination(self, network):
        a = Recorder(0, network)
        b, c = Recorder(1, network), Recorder(2, network)
        message = Message("k", "x", 5)
        network.send_many(0, [2, 1], message)
        network.simulator.run()
        assert not a.received
        assert [r[:2] for r in b.received + c.received] == [(0, "x"), (0, "x")]
        assert network.stats.messages_sent[0] == 2
        assert network.stats.bytes_sent[0] == 2 * message.wire_size()

    def test_bandwidth_accounting_includes_envelope(self, network):
        a, _b = Recorder(0, network), Recorder(1, network)
        a.send(1, Message("k", None, 10))
        assert network.stats.bytes_sent[0] == 10 + ENVELOPE_OVERHEAD_BYTES

    def test_lossy_link_drops(self, physical40):
        network = Network(
            Simulator(), physical40, loss_model=LossModel(loss_probability=1.0), seed=1
        )
        a, b = Recorder(0, network), Recorder(1, network)
        a.send(1, Message("k", "x", 5))
        network.simulator.run()
        assert not b.received
        assert network.stats.messages_dropped == 1

    def test_latency_stable_between_same_pair(self, network):
        a, b = Recorder(0, network), Recorder(1, network)
        base = network.base_latency(0, 1)
        assert network.base_latency(0, 1) == base
        assert network.base_latency(1, 0) == base


class TestServiceTime:
    def test_queueing_delays_messages(self, physical40):
        network = Network(
            Simulator(), physical40, service_time_ms=10.0, seed=1
        )
        a, b = Recorder(0, network), Recorder(1, network)
        for _ in range(5):
            a.send(1, Message("k", "x", 1))
        network.simulator.run()
        arrival_times = [when for (_s, _p, when) in b.received]
        # Successive handling must be spaced by the service time.
        gaps = [b2 - b1 for b1, b2 in zip(arrival_times, arrival_times[1:])]
        assert all(gap >= 10.0 - 1e-9 for gap in gaps)


class TestMessage:
    def test_unique_ids(self):
        assert Message("a", None, 1).msg_id != Message("a", None, 1).msg_id

    def test_wire_size(self):
        assert Message("a", None, 100).wire_size() == 100 + ENVELOPE_OVERHEAD_BYTES

"""Unit tests for Bracha reliable broadcast."""

import pytest

from repro.net.node import Network
from repro.net.simulator import Simulator
from repro.rbc.bracha import BrachaContext, BrachaNode


@pytest.fixture()
def rbc_setup(physical40):
    """7 members (f = 2) on the shared physical network."""

    simulator = Simulator()
    network = Network(simulator, physical40, seed=2)
    members = list(range(7))
    nodes = {i: BrachaNode(i, network, members, f=2) for i in members}
    return simulator, network, nodes


class Silent(BrachaNode):
    """A Byzantine member that never participates."""

    def on_message(self, sender, message):
        pass


class Equivocator(BrachaNode):
    """A Byzantine source that sends different payloads to different members."""

    def broadcast_two_faced(self, sequence):
        from repro.net.events import Message

        for index, member in enumerate(self.context.members):
            payload = "left" if index % 2 == 0 else "right"
            body = (self.node_id, sequence, payload)
            if member == self.node_id:
                continue
            self.send(member, Message(self.context.send_kind, body, 48))


class TestValidity:
    def test_all_correct_members_deliver(self, rbc_setup):
        simulator, _network, nodes = rbc_setup
        nodes[0].broadcast(0, "payload")
        simulator.run()
        for node in nodes.values():
            assert (0, 0, "payload") in node.delivered

    def test_delivery_exactly_once(self, rbc_setup):
        simulator, _network, nodes = rbc_setup
        nodes[0].broadcast(0, "payload")
        simulator.run()
        for node in nodes.values():
            assert len(node.delivered) == 1

    def test_multiple_slots_independent(self, rbc_setup):
        simulator, _network, nodes = rbc_setup
        nodes[0].broadcast(0, "a")
        nodes[3].broadcast(0, "b")
        nodes[0].broadcast(1, "c")
        simulator.run()
        for node in nodes.values():
            assert len(node.delivered) == 3


class TestFaultTolerance:
    def test_delivers_despite_f_silent_members(self, physical40):
        simulator = Simulator()
        network = Network(simulator, physical40, seed=2)
        members = list(range(7))
        nodes = {}
        for i in members:
            cls = Silent if i in (5, 6) else BrachaNode  # f = 2 silent
            nodes[i] = cls(i, network, members, f=2)
        nodes[0].broadcast(0, "x")
        simulator.run()
        for i in range(5):
            assert (0, 0, "x") in nodes[i].delivered

    def test_consistency_under_equivocation(self, physical40):
        """No two correct members deliver different payloads."""

        simulator = Simulator()
        network = Network(simulator, physical40, seed=2)
        members = list(range(7))
        nodes = {}
        for i in members:
            cls = Equivocator if i == 0 else BrachaNode
            nodes[i] = cls(i, network, members, f=2)
        nodes[0].broadcast_two_faced(0)
        simulator.run()
        payloads = {
            payload
            for i in range(1, 7)
            for (_s, _q, payload) in nodes[i].delivered
        }
        assert len(payloads) <= 1

    def test_totality(self, physical40):
        """If one correct member delivers, all correct members deliver."""

        simulator = Simulator()
        network = Network(simulator, physical40, seed=2)
        members = list(range(7))
        nodes = {}
        for i in members:
            cls = Equivocator if i == 0 else BrachaNode
            nodes[i] = cls(i, network, members, f=2)
        nodes[0].broadcast_two_faced(0)
        simulator.run()
        delivered_counts = [len(nodes[i].delivered) for i in range(1, 7)]
        assert len(set(delivered_counts)) == 1


class TestValidation:
    def test_owner_must_be_member(self, physical40):
        network = Network(Simulator(), physical40, seed=2)
        with pytest.raises(ValueError):
            BrachaNode(10, network, members=[0, 1, 2, 3], f=1)

    def test_membership_bound(self, physical40):
        network = Network(Simulator(), physical40, seed=2)
        with pytest.raises(ValueError):
            BrachaNode(0, network, members=[0, 1, 2], f=1)  # needs 4

    def test_non_source_send_ignored(self, rbc_setup):
        """A member relaying a forged SEND for another source is ignored."""

        from repro.net.events import Message

        simulator, _network, nodes = rbc_setup
        # Node 1 claims node 0 sent "fake".
        body = (0, 0, "fake")
        nodes[1].send(2, Message(nodes[1].context.send_kind, body, 48))
        simulator.run()
        assert not nodes[2].delivered

    def test_non_member_messages_ignored(self, rbc_setup, physical40):
        simulator, network, nodes = rbc_setup
        outsider = BrachaNode(20, network, members=[20, 21, 22, 23], f=1)
        from repro.net.events import Message

        outsider.send(0, Message(nodes[0].context.echo_kind, (0, 0, "x"), 48))
        simulator.run()
        assert not nodes[0].delivered

    def test_inject_enters_echo_phase(self, rbc_setup):
        simulator, _network, nodes = rbc_setup
        nodes[0].context.inject(99, 0, "external")  # source 99 is not a member
        for i in range(1, 7):
            nodes[i].context.inject(99, 0, "external")
        simulator.run()
        for node in nodes.values():
            assert (99, 0, "external") in node.delivered


class TestDeliveredSlot:
    """A delivered slot keeps only its verdict: late ECHOs and READYs, for
    its payload or an equivocating one, change nothing observable."""

    def test_late_echoes_and_readies_are_inert(self, rbc_setup):
        from repro.net.events import Message

        simulator, network, nodes = rbc_setup
        nodes[0].broadcast(0, "payload")
        simulator.run()
        sent = []
        network.on_send = lambda src, dst, message, now: sent.append((src, dst))
        context = nodes[3].context
        for kind in (context.echo_kind, context.ready_kind):
            for payload in ("payload", "forged"):
                for sender in context.members:
                    nodes[3].on_message(sender, Message(kind, (0, 0, payload), 48))
        simulator.run()
        assert sent == []
        assert nodes[3].delivered == [(0, 0, "payload")]
        state = context._slots[(0, 0)]
        assert state.delivered and state.echoes is None and state.readies is None

    def test_no_delivered_slot_holds_supporters(self, rbc_setup):
        simulator, _network, nodes = rbc_setup
        for sequence in range(3):
            nodes[sequence].broadcast(sequence, f"p{sequence}")
        simulator.run()
        for node in nodes.values():
            assert len(node.delivered) == 3
            slots = node.context._slots.values()
            assert all(s.echoes is None and s.readies is None for s in slots)

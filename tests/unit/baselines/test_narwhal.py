"""Unit tests for the Narwhal baseline."""

import pytest

from repro.baselines.narwhal import NarwhalConfig, NarwhalSystem
from repro.errors import ConfigurationError
from repro.mempool.transaction import Transaction
from repro.net.faults import Behavior, FaultPlan


def run_tx(system, origin=0, horizon=6_000):
    system.start()
    tx = Transaction.create(origin=origin, created_at=0.0)
    system.submit(origin, tx)
    system.run(until_ms=horizon)
    return tx


class TestStructure:
    def test_validator_set_size(self, physical40):
        system = NarwhalSystem(physical40, seed=4)
        assert len(system.validators) == max(4, 40 // 3)

    def test_explicit_validator_count(self, physical40):
        system = NarwhalSystem(
            physical40, config=NarwhalConfig(num_validators=6), seed=4
        )
        assert len(system.validators) == 6

    def test_every_non_validator_subscribes(self, physical40):
        system = NarwhalSystem(physical40, seed=4)
        subscribed = set()
        for validator, subs in system._subscribers.items():
            subscribed.update(subs)
        non_validators = set(physical40.nodes()) - set(system.validators)
        assert non_validators <= subscribed

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            NarwhalConfig(num_validators=0)
        with pytest.raises(ConfigurationError):
            NarwhalConfig(subscriptions_per_node=0)
        with pytest.raises(ConfigurationError):
            NarwhalConfig(ack_quorum_fraction=0)


class TestAckQuorum:
    def test_certifies_at_the_quorum_th_distinct_validator_ack(self, physical40):
        """Subscriber and repeated acks never count toward the quorum."""

        system = NarwhalSystem(physical40, config=NarwhalConfig(num_validators=8), seed=4)
        origin = system.nodes[system.validators[0]]
        tx = Transaction.create(origin=origin.node_id, created_at=0.0)
        origin._broadcast_batch(tx)
        state = origin._origin_state[tx.tx_id]
        quorum = int(0.5 * 8) + 1  # the origin's own availability is the +1
        others = [v for v in system.validators if v != origin.node_id]
        subscriber = next(n for n in physical40.nodes() if n not in system.validator_set)
        origin._on_ack(subscriber, tx.tx_id)
        for validator in others[: quorum - 2]:
            origin._on_ack(validator, tx.tx_id)
            origin._on_ack(validator, tx.tx_id)
        assert not state.certified and state.validator_acks == quorum - 2
        origin._on_ack(others[quorum - 2], tx.tx_id)
        assert state.certified


class TestDissemination:
    def test_mempool_coverage(self, physical40):
        system = NarwhalSystem(physical40, seed=4)
        tx = run_tx(system)
        mempool_holders = sum(
            1 for node in system.nodes.values() if tx.tx_id in node.mempool
        )
        assert mempool_holders == 40

    def test_certified_delivery_recorded(self, physical40):
        system = NarwhalSystem(physical40, seed=4)
        tx = run_tx(system)
        # Stats deliveries require batch + certificate.
        assert len(system.stats.deliveries[tx.tx_id]) == 40
        for node in system.nodes.values():
            assert tx.tx_id in node.certified_ids

    def test_mempool_arrival_precedes_certified_delivery(self, physical40):
        system = NarwhalSystem(physical40, seed=4)
        tx = run_tx(system)
        for node_id, when in system.stats.deliveries[tx.tx_id].items():
            node = system.nodes[node_id]
            assert node.mempool.arrival_time(tx.tx_id) <= when

    def test_batch_delay_applies_to_honest_senders(self, physical40):
        system = NarwhalSystem(
            physical40, config=NarwhalConfig(batch_delay_ms=100.0), seed=4
        )
        tx = run_tx(system)
        assert system.stats.send_times[tx.tx_id] >= 100.0

    def test_front_runner_skips_batch_delay(self, physical40):
        plan = FaultPlan(behaviors={0: Behavior.FRONT_RUN})
        system = NarwhalSystem(
            physical40,
            config=NarwhalConfig(batch_delay_ms=100.0),
            fault_plan=plan,
            seed=4,
        )
        tx = run_tx(system, origin=0)
        assert system.stats.send_times[tx.tx_id] == 0.0


class TestRobustness:
    def test_byzantine_validators_starve_their_subscribers(self, physical40):
        plan = FaultPlan.random_fraction(
            physical40.nodes(), 0.33, Behavior.DROP_RELAY, seed=9, protected=[0]
        )
        system = NarwhalSystem(physical40, fault_plan=plan, seed=4)
        tx = run_tx(system)
        coverage = system.stats.coverage(tx.tx_id, system.honest_node_ids())
        assert coverage < 1.0  # some subscribers depend only on byz validators
        assert coverage > 0.5

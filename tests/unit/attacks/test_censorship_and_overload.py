"""Unit tests for censorship trials and targeted overload."""

import pytest

from repro.adversary import FlooderNode, run_censorship_trial, run_overload_trial
from repro.baselines.gossip import GossipConfig, GossipSystem
from repro.baselines.simple_tree import SimpleTreeSystem


class TestCensorshipTrial:
    def test_honest_network_full_coverage(self, physical40):
        result = run_censorship_trial(
            lambda plan: GossipSystem(physical40, fault_plan=plan, seed=7),
            physical40.nodes(),
            malicious_fraction=0.0,
            sender=0,
            horizon_ms=4_000,
        )
        assert result.coverage == 1.0
        assert result.honest_nodes == 40

    def test_coverage_decreases_with_censors(self, physical40):
        low = run_censorship_trial(
            lambda plan: GossipSystem(
                physical40, config=GossipConfig(fanout=3), fault_plan=plan, seed=7
            ),
            physical40.nodes(),
            malicious_fraction=0.33,
            sender=0,
            horizon_ms=4_000,
            seed=3,
        )
        assert low.coverage < 1.0

    def test_sender_protected(self, physical40):
        result = run_censorship_trial(
            lambda plan: GossipSystem(physical40, fault_plan=plan, seed=7),
            physical40.nodes(),
            malicious_fraction=0.33,
            sender=0,
            horizon_ms=2_000,
            seed=3,
        )
        assert result.reached >= 1  # the sender at least holds its own tx


class TestOverload:
    def test_flooder_validates_interval(self, physical40):
        from repro.net.node import Network
        from repro.net.simulator import Simulator

        network = Network(Simulator(), physical40, seed=1)
        with pytest.raises(ValueError):
            FlooderNode(100, network, target=0, interval_ms=0.0)

    def test_overload_degrades_single_tree(self, physical40):
        """Flooding the tree root delays everyone behind it."""

        order = physical40.nodes()

        def factory():
            from repro.net.node import Network
            from repro.net.simulator import Simulator

            system = SimpleTreeSystem(physical40, seed=8)
            # Rebuild network with queueing enabled.
            system.network.service_time_ms = 0.4
            return system

        result = run_overload_trial(
            factory,
            sender=order[10],
            target=order[0],  # the tree root
            flood_interval_ms=0.5,
            horizon_ms=8_000,
        )
        assert result.attacked_mean_ms > result.baseline_mean_ms
        assert result.degradation > 1.0

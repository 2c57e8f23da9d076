"""The zoo's censorship trial keeps the pre-zoo driver's behaviour.

Fig. 5b's censorship trial started life as a standalone driver and now runs
the strategy zoo's ``blackout`` agent; these pin that the migration kept its
fault plans and its honest-network coverage.
"""

from repro.adversary import zoo


class TestLegacyEquivalence:
    def test_censorship_trial_matches_blackout_fault_plans(self, physical40):
        """The migrated trial must draw the exact legacy fault plans."""

        from repro.adversary import get_strategy
        from repro.net.faults import FaultPlan

        blackout = get_strategy("blackout")
        nodes = physical40.nodes()
        legacy_plan = FaultPlan.random_fraction(
            nodes, 0.33, blackout.behavior, seed=3, protected=(0,)
        )
        again = FaultPlan.random_fraction(
            nodes, 0.33, blackout.behavior, seed=3, protected=(0,)
        )
        assert [legacy_plan.behavior_of(n) for n in nodes] == [
            again.behavior_of(n) for n in nodes
        ]

    def test_censorship_trial_still_runs(self, physical40):
        from repro.baselines.gossip import GossipSystem

        result = zoo.run_censorship_trial(
            lambda plan: GossipSystem(physical40, fault_plan=plan, seed=7),
            physical40.nodes(),
            malicious_fraction=0.0,
            sender=0,
            horizon_ms=3_000,
        )
        assert result.coverage == 1.0

"""Property-based tests: batch serialization, fault plans, RBC."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batching import deserialize_batch, serialize_batch
from repro.mempool.transaction import Transaction
from repro.net.faults import Behavior, FaultPlan


class TestBatchSerializationProperties:
    @given(
        specs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**30),  # origin
                st.floats(min_value=0, max_value=1e7, allow_nan=False),
                st.integers(min_value=1, max_value=2000),  # size
                st.text(max_size=12),  # tag
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, specs):
        txs = [
            Transaction.create(origin=o, created_at=c, size_bytes=s, tag=t)
            for (o, c, s, t) in specs
        ]
        restored = deserialize_batch(serialize_batch(txs))
        assert len(restored) == len(txs)
        for original, copy in zip(txs, restored):
            assert copy.tx_id == original.tx_id
            assert copy.origin == original.origin
            assert copy.size_bytes == original.size_bytes
            assert copy.tag == original.tag
            # created_at survives at millisecond resolution.
            assert abs(copy.created_at - original.created_at) <= 0.001

    @given(
        count=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=20, deadline=None)
    def test_padding_reaches_nominal_size(self, count):
        txs = [Transaction.create(origin=0, created_at=0.0) for _ in range(count)]
        assert len(serialize_batch(txs)) >= 250 * count


class TestFaultPlanProperties:
    @given(
        n=st.integers(min_value=3, max_value=120),
        fraction=st.floats(min_value=0, max_value=1),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_cap_and_protection(self, n, fraction, seed):
        nodes = list(range(n))
        protected = nodes[: min(3, n)]
        plan = FaultPlan.random_fraction(
            nodes, fraction, Behavior.DROP_RELAY, seed=seed, protected=protected
        )
        assert plan.count() <= n // 3
        assert not any(plan.is_byzantine(p) for p in protected)
        assert len(plan.honest_nodes(nodes)) + plan.count() == n


class TestBrachaRandomFaults:
    @given(
        fault_seed=st.integers(min_value=0, max_value=2**16),
        source=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=10, deadline=None)
    def test_any_f_silent_subset_preserves_validity(self, fault_seed, source):
        """7 members, any 2 silent, honest source: everyone honest delivers."""

        from repro.net.node import Network
        from repro.net.simulator import Simulator
        from repro.net.topology import generate_physical_network
        from repro.rbc.bracha import BrachaNode

        physical = generate_physical_network(10, seed=1)
        simulator = Simulator()
        network = Network(simulator, physical, seed=2)
        members = list(range(7))
        rng = random.Random(fault_seed)
        silent = set(rng.sample([m for m in members if m != source], 2))

        class Silent(BrachaNode):
            def on_message(self, sender, message):
                pass

        nodes = {
            m: (Silent if m in silent else BrachaNode)(m, network, members, f=2)
            for m in members
        }
        nodes[source].broadcast(0, "payload")
        simulator.run()
        for member in members:
            if member not in silent:
                assert (source, 0, "payload") in nodes[member].delivered

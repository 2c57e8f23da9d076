"""L∅'s O(Δ) first-commit index against its slow reference, and what it costs.

An :class:`LZeroNode` no longer keeps one id-set snapshot per reconciliation
round; it keeps ``first_committed_at`` (tx id -> time of the first round that
committed it), fed from fresh deliveries.  The reference is what it replaced:
a test-side tap snapshots ``known_ids()`` at every round and
:func:`first_commitment_round` folds the snapshots.  The two must agree on
every node under any interleaving of arrivals and rounds — including bounded
mempools that evict or expire a transaction and admit it again later.
"""

import gc
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mempool.mempool as mempool_module
from repro.baselines.lzero import LZeroConfig, LZeroSystem
from repro.baselines.lzero import audit_block_order, first_commitment_round
from repro.mempool.blocks import Block
from repro.mempool.mempool import MempoolPolicy
from repro.mempool.transaction import Transaction
from repro.net.faults import Behavior, FaultPlan
from repro.net.topology import generate_physical_network
from repro.utils.rng import derive_rng

PHYSICAL8 = generate_physical_network(8, min_degree=3, seed=4)


def tap_rounds(node, on_round):
    """Call ``on_round(node)`` right before each reconciliation round *node*
    actually performs (a crashed node's tick commits nothing)."""

    original = node._reconcile_round

    def tapped():
        if node.behavior is not Behavior.CRASH:
            on_round(node)
        original()

    node._reconcile_round = tapped  # on_start and every re-schedule read this


def run_tapped(policy, submissions, fault_plan=None, until_ms=2_600.0, seed=3):
    """Run a small L∅ system; returns (system, per-node round snapshots,
    per-(node, tx) admission counts)."""

    system = LZeroSystem(
        PHYSICAL8,
        config=LZeroConfig(fanout=2, reconcile_period_ms=120.0),
        fault_plan=fault_plan,
        seed=seed,
    )
    snapshots = {node_id: [] for node_id in system.nodes}
    admissions: dict[tuple[int, int], int] = {}

    def count_admission(node, tx):
        key = (node.node_id, tx.tx_id)
        admissions[key] = admissions.get(key, 0) + 1

    for node in system.nodes.values():
        node.observe_hook = count_admission
        if policy is not None:
            node.mempool.install_policy(policy)
        tap_rounds(
            node,
            lambda n: snapshots[n.node_id].append((n.now, n.mempool.known_ids())),
        )
    system.start()
    for when, origin, fee in submissions:
        tx = Transaction.create(origin=origin, created_at=when, fee=fee)
        system.simulator.schedule_at(when, lambda o=origin, t=tx: system.submit(o, t))
    system.run(until_ms=until_ms)
    return system, snapshots, admissions


def assert_index_equals_reference(system, snapshots):
    for node_id, node in system.nodes.items():
        taken = snapshots[node_id]
        ever_committed = set().union(*(ids for _when, ids in taken))
        reference = {
            tx_id: first_commitment_round(taken, tx_id) for tx_id in ever_committed
        }
        assert node.first_committed_at == reference


submissions_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1_500.0, allow_nan=False),
        st.sampled_from(PHYSICAL8.nodes()),
        st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0, 8.0]),
    ),
    min_size=1,
    max_size=14,
)

policies_strategy = st.one_of(
    st.none(),
    st.builds(
        MempoolPolicy,
        max_size=st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
        ttl_ms=st.one_of(st.none(), st.floats(min_value=60.0, max_value=700.0)),
    ),
)


class TestFirstCommitIndex:
    @given(
        submissions=submissions_strategy,
        policy=policies_strategy,
        crashed=st.sets(st.sampled_from(PHYSICAL8.nodes()), max_size=2),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_snapshot_reference(self, submissions, policy, crashed, seed):
        plan = FaultPlan({node: Behavior.CRASH for node in crashed})
        system, snapshots, _ = run_tapped(policy, submissions, plan, seed=seed)
        assert_index_equals_reference(system, snapshots)

    def test_first_commit_wins_across_evict_and_readmit(self):
        """A bounded, expiring pool drops transactions that reconciliation
        then brings back; the index must keep each one's *first* round."""

        rng = derive_rng(11, "readmit")
        submissions = [
            (40.0 * i, rng.choice(PHYSICAL8.nodes()), float(rng.randrange(1, 9)))
            for i in range(12)
        ]
        policy = MempoolPolicy(max_size=4, ttl_ms=300.0)
        system, snapshots, admissions = run_tapped(policy, submissions)
        nodes = system.nodes.values()
        assert sum(n.mempool.evicted for n in nodes) > 0
        assert sum(n.mempool.expired for n in nodes) > 0
        readmitted = [key for key, count in admissions.items() if count > 1]
        assert readmitted, "scenario must re-admit a dropped transaction"
        recommitted = [
            (node_id, tx_id)
            for node_id, tx_id in readmitted
            if sum(tx_id in ids for _when, ids in snapshots[node_id]) > 1
        ]
        assert recommitted, "a re-admitted transaction must be committed again"
        assert_index_equals_reference(system, snapshots)

    def test_audit_verdicts_equal_the_snapshot_audit(self):
        """Same evidence from the index as from replaying the snapshots."""

        submissions = [(250.0 * i, origin, 0.0) for i, origin in enumerate((0, 3, 5, 6))]
        system, snapshots, _ = run_tapped(None, submissions)
        for node_id, node in system.nodes.items():
            order = [tx.tx_id for tx in node.mempool.in_arrival_order()]
            reference = {
                tx_id: when
                for tx_id in order
                if (when := first_commitment_round(snapshots[node_id], tx_id)) is not None
            }
            assert len(order) == len(submissions)
            for tx_ids in (order, order[::-1], order[1:] + order[:1]):
                block = Block(proposer=node_id, created_at=node.now, tx_ids=tuple(tx_ids))
                evidence = audit_block_order(node.first_committed_at, block)
                assert evidence == audit_block_order(reference, block)
                # Submissions are two rounds apart: only the honest order is clean.
                assert bool(evidence) == (tx_ids != order)


class TestCommitmentStateCost:
    """Exact work counters on a smoke flood (N = 60, T = 12)."""

    NODES, TXS = 60, 12

    def test_state_is_bounded_by_what_nodes_know(self, monkeypatch):
        id_sets: list[tuple[int, ...]] = []

        def counting_tuple(iterable=()):
            built = tuple(iterable)
            id_sets.append(built)
            return built

        # The mempool module's only tuple construction is known_ids().
        monkeypatch.setattr(mempool_module, "tuple", counting_tuple, raising=False)

        physical = generate_physical_network(self.NODES, seed=0)
        system = LZeroSystem(physical, seed=13)
        rounds = {"changed": 0, "unchanged": 0}
        last_size = dict.fromkeys(system.nodes, -1)  # nothing built yet

        def check_round(node, original):
            changed = len(node.mempool) != last_size[node.node_id]
            last_size[node.node_id] = len(node.mempool)
            before = len(id_sets)
            original()
            built = len(id_sets) - before
            assert built <= 1 if changed else built == 0
            rounds["changed" if changed else "unchanged"] += 1

        for node in system.nodes.values():
            original = node._reconcile_round
            node._reconcile_round = lambda n=node, o=original: check_round(n, o)
        rng = derive_rng(7, "kernel-bench", self.NODES)
        system.start()
        for index in range(self.TXS):
            origin = rng.choice(system.network.node_ids())
            when = index * 25.0
            system.simulator.schedule(
                when,
                lambda o=origin, w=when: system.submit(
                    o, Transaction.create(origin=o, created_at=w)
                ),
            )
        system.run(until_ms=self.TXS * 25.0 + 1_200.0)

        assert rounds["changed"] > 0 and rounds["unchanged"] > 0
        assert len(id_sets) <= rounds["changed"]
        retained = sum(
            len(node.first_committed_at) + len(node._delivered_since_round)
            for node in system.nodes.values()
        )
        assert retained <= self.NODES * self.TXS
        assert all(
            len(node.first_committed_at) == self.TXS for node in system.nodes.values()
        )
        # No node keeps a per-round id set: of every id tuple built during
        # the run at most each mempool's memo is still referenced from
        # outside this test (id_sets, the loop variable and getrefcount's
        # argument hold three references; () is a shared singleton).
        gc.collect()
        alive = sum(bool(ids) and sys.getrefcount(ids) > 3 for ids in id_sets)
        assert 0 < alive <= self.NODES

"""A stateful hypothesis test of :class:`Mempool` against a dict-based model.

The pool keeps its first-arrival times as a column aligned with its sorted
ids; the model keeps ``{tx_id: (tx, arrival)}``.  Any interleaving of adds,
duplicate adds, reads, policy installs on a populated pool, fee-ranked
eviction, TTL expiry and ``pop_next`` must leave the two agreeing on the
contents, every arrival time, both service orders, the id tuple and the
commitment — so the column cannot drift from the ids it belongs to.

Simulated time only moves forward, as in a run.  The model's FIFO is a log
of ``(arrival, id)`` admissions read with the pool's lazy-deletion rule (an
entry is live while its id is resident with that arrival), because that is
the order ``pop_next`` serves.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.crypto.hashing import hash_bytes
from repro.mempool import Mempool, MempoolPolicy, Transaction

FEES = (0.0, 1.0, 2.0, 2.0, 5.0)
tx_ids = st.integers(min_value=0, max_value=14)
steps = st.sampled_from((0.0, 0.0, 1.0, 7.0, 45.0))
policies = st.builds(
    MempoolPolicy,
    max_size=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    ttl_ms=st.one_of(st.none(), st.sampled_from((20.0, 60.0))),
    min_fee=st.sampled_from((0.0, 0.0, 1.0)),
)


def make_tx(tx_id: int) -> Transaction:
    return Transaction(tx_id=tx_id, origin=0, created_at=0.0, fee=FEES[tx_id % len(FEES)])


class MempoolMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.pool = Mempool(owner=0)
        self.now = 0.0
        self.model: dict[int, tuple[Transaction, float]] = {}
        self.fifo: list[tuple[float, int]] = []
        self.policy: MempoolPolicy | None = None
        self.drops = {"evicted": 0, "expired": 0, "rejected": 0}

    # -- the model ---------------------------------------------------------

    def live(self, entry: tuple[float, int]) -> bool:
        arrival, tx_id = entry
        return tx_id in self.model and self.model[tx_id][1] == arrival

    def sweep(self) -> None:
        cutoff = self.now - self.policy.ttl_ms
        for tx_id in [i for i, (_, arrival) in self.model.items() if arrival <= cutoff]:
            del self.model[tx_id]
            self.drops["expired"] += 1

    def model_add(self, tx: Transaction) -> bool:
        if tx.tx_id in self.model:
            return False
        policy = self.policy
        if policy is not None:
            if policy.ttl_ms is not None:
                self.sweep()
            if tx.fee < policy.min_fee:
                self.drops["rejected"] += 1
                return False
            while policy.max_size is not None and len(self.model) >= policy.max_size:
                victim = min(
                    self.model, key=lambda i: (self.model[i][0].fee, -self.model[i][1], i)
                )
                if tx.fee <= self.model[victim][0].fee:
                    self.drops["rejected"] += 1
                    return False
                del self.model[victim]
                self.drops["evicted"] += 1
            self.fifo.append((self.now, tx.tx_id))
        self.model[tx.tx_id] = (tx, self.now)
        return True

    # -- rules -------------------------------------------------------------

    @rule(tx_id=tx_ids, step=steps)
    def add(self, tx_id, step):
        self.now += step
        tx = make_tx(tx_id)
        assert self.pool.add(tx, self.now) == self.model_add(tx)

    @rule(policy=policies)
    def install_policy(self, policy):
        self.pool.install_policy(policy)
        self.policy = policy
        self.fifo = sorted((arrival, i) for i, (_, arrival) in self.model.items())

    @precondition(lambda self: self.policy is not None)
    @rule(step=steps)
    def expire(self, step):
        self.now += step
        before = self.drops["expired"]
        if self.policy.ttl_ms is not None:
            self.sweep()
        assert self.pool.expire(self.now) == self.drops["expired"] - before

    @precondition(lambda self: self.policy is not None)
    @rule(priority=st.booleans())
    def pop_next(self, priority):
        served = self.pool.pop_next(priority=priority)
        if priority:
            expected = min(
                self.model,
                key=lambda i: (-self.model[i][0].fee, self.model[i][1], i),
                default=None,
            )
        else:
            while self.fifo and not self.live(self.fifo[0]):
                self.fifo.pop(0)
            expected = self.fifo.pop(0)[1] if self.fifo else None
        if expected is None:
            assert served is None
            return
        tx, arrival = self.model.pop(expected)
        assert served == (tx, arrival)

    @rule(tx_id=tx_ids)
    def read(self, tx_id):
        if tx_id in self.model:
            tx, arrival = self.model[tx_id]
            assert self.pool.get(tx_id) is tx
            assert self.pool.arrival_time(tx_id) == arrival
        else:
            assert self.pool.get(tx_id) is None
            try:
                self.pool.arrival_time(tx_id)
            except KeyError:
                pass
            else:
                raise AssertionError(f"arrival_time({tx_id}) of a non-resident")

    # -- what must hold after every step -------------------------------------

    @invariant()
    def agrees_with_the_model(self):
        pool, model = self.pool, self.model
        assert len(pool) == len(model)
        assert set(pool.ids) == set(model)
        assert all(pool.arrival_time(i) == arrival for i, (_, arrival) in model.items())
        by_arrival = sorted(model, key=lambda i: (model[i][1], i))
        assert [tx.tx_id for tx in pool.in_arrival_order()] == by_arrival
        by_priority = sorted(model, key=lambda i: (-model[i][0].fee, model[i][1], i))
        assert [tx.tx_id for tx in pool.in_priority_order()] == by_priority
        assert pool.known_ids() == tuple(sorted(model))
        assert pool.commitment() == hash_bytes("mempool-commitment", *sorted(model))
        assert {reason: getattr(pool, reason) for reason in self.drops} == self.drops


TestMempoolAgainstModel = MempoolMachine.TestCase
TestMempoolAgainstModel.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)

"""The policy-mode :class:`Mempool` against its four-eager-index predecessor.

The pool builds its fee heap and its priority heap from the residents the
first time something reads them, and keeps only the FIFO and (with a TTL)
the expiry queue from the moment a policy is installed.  The reference model
below is the earlier design restated: all four lazy-deletion indexes pushed on
every admission from ``install_policy`` on, compacted at 4x the live set.
Both are driven through the same random sequence of adds (fee ties, re-adds
after eviction or expiry, backdated arrivals), priority and FIFO pops, TTL
sweeps and policy installs on a populated pool; every step must return the
same value and leave the same contents, arrival times, order, commitment,
drop counters and ``on_drop`` calls.
"""

from __future__ import annotations

import heapq
from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import hash_bytes
from repro.mempool import Mempool, MempoolPolicy, Transaction

FEES = (0.0, 1.0, 2.0, 2.0, 5.0, 1.0)
TXS = {
    tx_id: Transaction(tx_id=tx_id, origin=0, created_at=0.0, fee=FEES[tx_id % len(FEES)])
    for tx_id in range(16)
}


class EagerIndexPool:
    """The policy machinery with all four indexes kept eagerly."""

    def __init__(self) -> None:
        self.txs: dict[int, Transaction] = {}
        self.arrival: dict[int, float] = {}
        self.policy: MempoolPolicy | None = None
        self.on_drop = None
        self.evicted = self.expired = self.rejected = 0
        self.fee_heap = self.prio_heap = self.fifo = self.ttl_queue = None

    def add(self, tx: Transaction, now: float) -> bool:
        if tx.tx_id in self.txs:
            return False
        if self.policy is not None and not self._admit(tx, now):
            return False
        self.txs[tx.tx_id] = tx
        self.arrival[tx.tx_id] = now
        if self.policy is not None:
            self._index(tx, now)
        return True

    def _admit(self, tx: Transaction, now: float) -> bool:
        policy = self.policy
        if policy.ttl_ms is not None:
            self._sweep_expired(now, policy.ttl_ms)
        if tx.fee < policy.min_fee:
            self._count_drop("rejected", tx)
            return False
        if policy.max_size is None:
            return True
        while len(self.txs) >= policy.max_size:
            victim_id = self._cheapest_resident()
            if victim_id is None:
                break
            victim = self.txs[victim_id]
            if tx.fee <= victim.fee:
                self._count_drop("rejected", tx)
                return False
            heapq.heappop(self.fee_heap)
            self._discard(victim_id)
            self._count_drop("evicted", victim)
        return True

    def _cheapest_resident(self) -> int | None:
        heap = self.fee_heap
        while heap:
            _, neg_arrival, tx_id = heap[0]
            if self.arrival.get(tx_id) == -neg_arrival:
                return tx_id
            heapq.heappop(heap)
        return None

    def _index(self, tx: Transaction, now: float) -> None:
        heapq.heappush(self.fee_heap, (tx.fee, -now, tx.tx_id))
        heapq.heappush(self.prio_heap, (-tx.fee, now, tx.tx_id))
        self.fifo.append((now, tx.tx_id))
        if self.policy.ttl_ms is not None:
            self.ttl_queue.append((now, tx.tx_id))
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        live = self.arrival.get
        bound = 4 * len(self.txs) + 64
        if len(self.fee_heap) > bound:
            self.fee_heap = [e for e in self.fee_heap if live(e[2]) == -e[1]]
            heapq.heapify(self.fee_heap)
        if len(self.prio_heap) > bound:
            self.prio_heap = [e for e in self.prio_heap if live(e[2]) == e[1]]
            heapq.heapify(self.prio_heap)
        if len(self.fifo) > bound:
            self.fifo = deque(e for e in self.fifo if live(e[1]) == e[0])
        if len(self.ttl_queue) > bound:
            self.ttl_queue = deque(e for e in self.ttl_queue if live(e[1]) == e[0])

    def _discard(self, tx_id: int) -> None:
        del self.txs[tx_id]
        del self.arrival[tx_id]

    def _count_drop(self, reason: str, tx: Transaction) -> None:
        setattr(self, reason, getattr(self, reason) + 1)
        if self.on_drop is not None:
            self.on_drop(reason, tx)

    def _sweep_expired(self, now: float, ttl_ms: float) -> None:
        cutoff = now - ttl_ms
        queue = self.ttl_queue
        while queue:
            arrival, tx_id = queue[0]
            if arrival > cutoff:
                break
            queue.popleft()
            if self.arrival.get(tx_id) == arrival:
                victim = self.txs[tx_id]
                self._discard(tx_id)
                self._count_drop("expired", victim)

    def expire(self, now: float) -> int:
        if self.policy is None or self.policy.ttl_ms is None:
            return 0
        before = self.expired
        self._sweep_expired(now, self.policy.ttl_ms)
        return self.expired - before

    def pop_next(self, *, priority: bool = False):
        if self.policy is None:
            raise RuntimeError("pop_next requires a mempool with a policy installed")
        if priority:
            while self.prio_heap:
                _, arrival, tx_id = heapq.heappop(self.prio_heap)
                if self.arrival.get(tx_id) == arrival:
                    tx = self.txs[tx_id]
                    self._discard(tx_id)
                    return tx, arrival
            return None
        while self.fifo:
            arrival, tx_id = self.fifo.popleft()
            if self.arrival.get(tx_id) == arrival:
                tx = self.txs[tx_id]
                self._discard(tx_id)
                return tx, arrival
        return None

    def install_policy(self, policy: MempoolPolicy, on_drop=None) -> None:
        self.policy = policy
        self.on_drop = on_drop
        self.fee_heap, self.prio_heap = [], []
        self.fifo, self.ttl_queue = deque(), deque()
        for tx_id, arrival in sorted(self.arrival.items(), key=lambda kv: (kv[1], kv[0])):
            self._index(self.txs[tx_id], arrival)


policies = st.builds(
    MempoolPolicy,
    max_size=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    ttl_ms=st.one_of(st.none(), st.sampled_from((15.0, 40.0))),
    min_fee=st.sampled_from((0.0, 0.0, 1.0)),
)
# Absolute times, so arrivals and sweeps are backdated as often as not.
times = st.sampled_from((0.0, 5.0, 10.0, 20.0, 30.0, 40.0, 60.0, 90.0))
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(min_value=0, max_value=15), times),
        st.tuples(st.just("add"), st.integers(min_value=0, max_value=15), times),
        st.tuples(st.just("pop"), st.booleans()),
        st.tuples(st.just("expire"), times),
        st.tuples(st.just("install"), policies),
    ),
    max_size=70,
)


def _call(fn, *args, **kwargs):
    """``("ok", value)`` or ``("raised", exception type and message)``."""

    try:
        return "ok", fn(*args, **kwargs)
    except RuntimeError as exc:
        return "raised", (type(exc), str(exc))


def _assert_same_state(pool: Mempool, ref: EagerIndexPool) -> None:
    assert len(pool) == len(ref.txs)
    assert set(pool.ids) == set(ref.txs)
    assert {i: pool.arrival_time(i) for i in pool.ids} == ref.arrival
    by_arrival = sorted(ref.arrival, key=lambda i: (ref.arrival[i], i))
    assert [tx.tx_id for tx in pool.in_arrival_order()] == by_arrival
    by_fee = sorted(ref.arrival, key=lambda i: (-ref.txs[i].fee, ref.arrival[i], i))
    assert [tx.tx_id for tx in pool.in_priority_order()] == by_fee
    assert pool.known_ids() == tuple(sorted(ref.txs))
    assert pool.commitment() == hash_bytes("mempool-commitment", *sorted(ref.txs))
    assert (pool.evicted, pool.expired, pool.rejected) == (
        ref.evicted,
        ref.expired,
        ref.rejected,
    )


@settings(max_examples=400, deadline=None)
@given(operations)
# FIFO service pops a stale entry (4, served by fee) off the FIFO's front, but
# it still blocks the TTL queue: the backdated 7 behind it must not expire.
# One queue shared by FIFO and TTL gets this wrong.
@example(
    [
        ("install", MempoolPolicy(ttl_ms=15.0)),
        ("add", 4, 30.0),
        ("add", 1, 40.0),
        ("add", 7, 5.0),
        ("pop", True),
        ("pop", False),
        ("expire", 25.0),
    ]
)
def test_lazy_heaps_match_the_eager_indexes(ops):
    pool, ref = Mempool(owner=0), EagerIndexPool()
    pool_drops: list[tuple[str, int]] = []
    ref_drops: list[tuple[str, int]] = []
    for op in ops:
        kind = op[0]
        if kind == "add":
            tx = TXS[op[1]]
            assert pool.add(tx, op[2]) == ref.add(tx, op[2]), op
        elif kind == "pop":
            assert _call(pool.pop_next, priority=op[1]) == _call(ref.pop_next, priority=op[1])
        elif kind == "expire":
            assert pool.expire(op[1]) == ref.expire(op[1])
        else:
            pool.install_policy(op[1], lambda reason, tx: pool_drops.append((reason, tx.tx_id)))
            ref.install_policy(op[1], lambda reason, tx: ref_drops.append((reason, tx.tx_id)))
        assert pool_drops == ref_drops
        _assert_same_state(pool, ref)
    # Drain both, alternating the service order: the queues left agree too.
    if ref.policy is not None:
        priority = True
        while (served := pool.pop_next(priority=priority)) is not None:
            assert served == ref.pop_next(priority=priority)
            priority = not priority
        assert ref.pop_next(priority=priority) is None
        _assert_same_state(pool, ref)

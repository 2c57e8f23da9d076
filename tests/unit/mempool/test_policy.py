"""Admission control, eviction, TTL expiry, and the policy=None regression."""

import pytest

from repro.mempool import Mempool, MempoolPolicy, Transaction


def tx(tx_id, fee=0.0, origin=0):
    return Transaction(tx_id=tx_id, origin=origin, created_at=0.0, fee=fee)


class TestPolicyValidation:
    def test_field_floors(self):
        with pytest.raises(ValueError):
            MempoolPolicy(max_size=0)
        with pytest.raises(ValueError):
            MempoolPolicy(ttl_ms=0.0)
        with pytest.raises(ValueError):
            MempoolPolicy(min_fee=-1.0)

    def test_unbounded_predicate(self):
        assert MempoolPolicy().is_unbounded
        assert not MempoolPolicy(max_size=10).is_unbounded
        assert not MempoolPolicy(ttl_ms=100.0).is_unbounded
        assert not MempoolPolicy(min_fee=0.5).is_unbounded


class TestDefaultPolicyIsUnbounded:
    """The conservative-default regression: MempoolPolicy() must behave
    byte-identically to the historical policy=None mempool."""

    def test_identical_contents_order_and_commitment(self):
        bare = Mempool(owner=0)
        governed = Mempool(owner=0)
        governed.install_policy(MempoolPolicy())
        txs = [tx(i, fee=float((i * 7) % 5)) for i in range(200)]
        for i, t in enumerate(txs):
            now = float(i % 13)
            assert bare.add(t, now) == governed.add(t, now)
        assert len(bare) == len(governed) == 200
        assert bare.known_ids() == governed.known_ids()
        assert bare.commitment() == governed.commitment()
        assert bare.in_arrival_order() == governed.in_arrival_order()
        assert bare.in_priority_order() == governed.in_priority_order()
        assert governed.evicted == governed.expired == governed.rejected == 0

    def test_first_arrival_still_wins(self):
        governed = Mempool(owner=0)
        governed.install_policy(MempoolPolicy())
        t = tx(1)
        assert governed.add(t, 5.0)
        assert not governed.add(t, 9.0)
        assert governed.arrival_time(1) == 5.0


class TestSizeCap:
    def make(self, max_size=3):
        drops = []
        pool = Mempool(owner=0)
        pool.install_policy(
            MempoolPolicy(max_size=max_size),
            on_drop=lambda reason, victim: drops.append((reason, victim.tx_id)),
        )
        return pool, drops

    def test_evicts_cheapest_for_a_strictly_higher_bid(self):
        pool, drops = self.make(max_size=2)
        pool.add(tx(1, fee=1.0), 0.0)
        pool.add(tx(2, fee=3.0), 1.0)
        assert pool.add(tx(3, fee=2.0), 2.0)
        assert 1 not in pool and 3 in pool
        assert pool.evicted == 1
        assert drops == [("evicted", 1)]

    def test_fee_tie_rejects_the_newcomer(self):
        pool, drops = self.make(max_size=1)
        pool.add(tx(1, fee=2.0), 0.0)
        assert not pool.add(tx(2, fee=2.0), 1.0)
        assert 1 in pool and 2 not in pool
        assert pool.rejected == 1
        assert drops == [("rejected", 2)]

    def test_tie_among_residents_evicts_latest_arrival(self):
        pool, _ = self.make(max_size=2)
        pool.add(tx(1, fee=1.0), 0.0)
        pool.add(tx(2, fee=1.0), 5.0)
        assert pool.add(tx(3, fee=9.0), 6.0)
        assert 1 in pool and 2 not in pool

    def test_cap_never_exceeded_under_churn(self):
        pool, _ = self.make(max_size=5)
        for i in range(100):
            pool.add(tx(i, fee=float(i % 17)), float(i))
            assert len(pool) <= 5
        assert pool.evicted + pool.rejected == 95


class TestMinFee:
    def test_below_floor_is_rejected(self):
        pool = Mempool(owner=0)
        pool.install_policy(MempoolPolicy(min_fee=1.0))
        assert not pool.add(tx(1, fee=0.5), 0.0)
        assert pool.add(tx(2, fee=1.0), 0.0)
        assert pool.rejected == 1


class TestTtl:
    def test_lazy_sweep_on_add(self):
        pool = Mempool(owner=0)
        pool.install_policy(MempoolPolicy(ttl_ms=100.0))
        pool.add(tx(1), 0.0)
        pool.add(tx(2), 150.0)
        pool.add(tx(3), 200.0)  # sweeps tx 1 (cutoff 100) but not tx 2
        assert 1 not in pool and 2 in pool and 3 in pool
        assert pool.expired == 1

    def test_explicit_expire(self):
        pool = Mempool(owner=0)
        pool.install_policy(MempoolPolicy(ttl_ms=100.0))
        pool.add(tx(1), 0.0)
        pool.add(tx(2), 10.0)
        assert pool.expire(500.0) == 2
        assert len(pool) == 0

    def test_expire_is_a_noop_without_ttl(self):
        pool = Mempool(owner=0)
        pool.install_policy(MempoolPolicy(max_size=10))
        pool.add(tx(1), 0.0)
        assert pool.expire(1e9) == 0
        assert 1 in pool
        bare = Mempool(owner=0)
        assert bare.expire(1e9) == 0


class TestPopNext:
    def test_requires_a_policy(self):
        with pytest.raises(RuntimeError):
            Mempool(owner=0).pop_next()

    def test_fifo_order(self):
        pool = Mempool(owner=0)
        pool.install_policy(MempoolPolicy())
        pool.add(tx(2), 0.0)
        pool.add(tx(1), 1.0)
        assert pool.pop_next()[0].tx_id == 2
        assert pool.pop_next()[0].tx_id == 1
        assert pool.pop_next() is None

    def test_priority_order_fee_then_arrival_then_id(self):
        pool = Mempool(owner=0)
        pool.install_policy(MempoolPolicy())
        pool.add(tx(1, fee=1.0), 0.0)
        pool.add(tx(2, fee=5.0), 1.0)
        pool.add(tx(3, fee=5.0), 0.5)
        order = [pool.pop_next(priority=True)[0].tx_id for _ in range(3)]
        assert order == [3, 2, 1]
        assert len(pool) == 0

    def test_pop_returns_arrival_stamp(self):
        pool = Mempool(owner=0)
        pool.install_policy(MempoolPolicy())
        pool.add(tx(1), 42.0)
        popped, arrival = pool.pop_next()
        assert popped.tx_id == 1 and arrival == 42.0

    def test_stale_heap_entries_are_skipped(self):
        pool = Mempool(owner=0)
        pool.install_policy(MempoolPolicy(max_size=2))
        pool.add(tx(1, fee=1.0), 0.0)
        pool.add(tx(2, fee=2.0), 1.0)
        pool.add(tx(3, fee=9.0), 2.0)  # evicts tx 1, stale entries remain
        assert pool.pop_next(priority=True)[0].tx_id == 3
        assert pool.pop_next(priority=True)[0].tx_id == 2
        assert pool.pop_next(priority=True) is None


class TestInstallPolicy:
    def test_backfills_existing_residents(self):
        pool = Mempool(owner=0)
        pool.add(tx(1, fee=1.0), 5.0)
        pool.add(tx(2, fee=7.0), 3.0)
        pool.install_policy(MempoolPolicy(max_size=2))
        # Service indexes see the pre-policy residents.
        assert pool.pop_next(priority=True)[0].tx_id == 2
        assert pool.pop_next()[0].tx_id == 1

    def test_backfilled_residents_are_evictable(self):
        pool = Mempool(owner=0)
        pool.add(tx(1, fee=1.0), 0.0)
        pool.add(tx(2, fee=5.0), 1.0)
        pool.install_policy(MempoolPolicy(max_size=2))
        assert pool.add(tx(3, fee=9.0), 2.0)
        assert 1 not in pool
        assert pool.evicted == 1


class TestIndexCompaction:
    """The lazy-deletion indexes must stay O(live), not O(ever admitted) —
    the constant-memory claim of a sustained million-transaction run."""

    def test_sustained_churn_keeps_indexes_bounded(self):
        pool = Mempool(owner=0)
        pool.install_policy(MempoolPolicy(max_size=50, ttl_ms=500.0))
        for i in range(5_000):
            pool.add(tx(i, fee=float((i * 7919) % 101)), float(i))
            if i % 2 == 0:
                pool.pop_next(priority=True)
        assert len(pool) <= 50
        bound = 4 * len(pool) + 64
        # A full pool and priority pops: all four indexes exist here.
        for name in ("_fee_heap", "_prio_heap", "_fifo", "_ttl_queue"):
            assert len(getattr(pool, name)) <= bound, name

    def test_compaction_preserves_service_order(self):
        def churn(pool):
            for i in range(2_000):
                pool.add(tx(i, fee=float((i * 31) % 17)), float(i))
            return pool

        compacted = churn(
            (lambda p: (p.install_policy(MempoolPolicy(max_size=20)), p)[1])(
                Mempool(owner=0)
            )
        )
        fees = []
        while (popped := compacted.pop_next(priority=True)) is not None:
            fees.append(popped[0].fee)
        assert fees == sorted(fees, reverse=True)
        assert len(fees) == 20

    def test_compaction_preserves_fifo_order(self):
        pool = Mempool(owner=0)
        pool.install_policy(MempoolPolicy(max_size=30))
        for i in range(1_000):
            pool.add(tx(i, fee=float(i % 7)), float(i))
        arrivals = []
        while (popped := pool.pop_next()) is not None:
            arrivals.append(popped[1])
        assert arrivals == sorted(arrivals)
        assert len(arrivals) == 30


class TestIndexesExistOnlyUnderAPolicy:
    """The N protocol-node mempools of a figure run never install a policy;
    they must not each carry four empty service/eviction indexes.  Under a
    policy the two heaps are built only once something reads them."""

    INDEXES = ("_fee_heap", "_prio_heap", "_fifo", "_ttl_queue")

    def test_bare_pool_allocates_none(self):
        pool = Mempool(owner=0)
        pool.add(tx(1), 0.0)
        assert all(getattr(pool, name) is None for name in self.INDEXES)
        assert pool.expire(10.0) == 0

    def test_install_policy_allocates_and_indexes_residents(self):
        pool = Mempool(owner=0)
        pool.add(tx(1, fee=2.0), 0.0)
        pool.add(tx(2, fee=5.0), 1.0)
        pool.install_policy(MempoolPolicy(ttl_ms=100.0))
        assert list(pool._fifo) == list(pool._ttl_queue) == [(0.0, 1), (1.0, 2)]
        assert pool._fee_heap is None and pool._prio_heap is None
        assert pool.pop_next(priority=True)[0].tx_id == 2
        assert pool._prio_heap == [(-2.0, 0.0, 1)] and pool._fee_heap is None

    def test_a_pool_that_never_fills_builds_no_heap(self):
        pool = Mempool(owner=0)
        pool.install_policy(MempoolPolicy(max_size=100, ttl_ms=50.0))
        for i in range(400):
            pool.add(tx(i, fee=float(i % 7)), float(i))
            pool.expire(float(i))
        assert pool._fee_heap is None and pool._prio_heap is None
        bound = 4 * len(pool) + 64
        assert len(pool._fifo) <= bound and len(pool._ttl_queue) <= bound

    def test_a_full_pool_builds_the_fee_heap_from_its_residents(self):
        pool = Mempool(owner=0)
        pool.install_policy(MempoolPolicy(max_size=3))
        for i, fee in enumerate((4.0, 1.0, 1.0)):
            pool.add(tx(i, fee=fee), float(i))
        assert pool._fee_heap is None
        assert pool.add(tx(3, fee=2.0), 3.0)  # evicts 2 (fee 1.0, latest)
        assert pool.evicted == 1 and set(pool.ids) == {0, 1, 3}
        assert sorted(pool._fee_heap) == [(1.0, -1.0, 1), (2.0, -3.0, 3), (4.0, -0.0, 0)]
        assert pool._prio_heap is None

    def test_policy_passed_to_the_constructor_is_installed(self):
        pool = Mempool(owner=0, policy=MempoolPolicy(max_size=1))
        assert pool.add(tx(1, fee=1.0), 0.0)
        assert pool.add(tx(2, fee=2.0), 1.0)
        assert pool.evicted == 1 and set(pool.known_ids()) == {2}


class TestKnownIdsMemo:
    def test_same_object_until_the_contents_change(self):
        pool = Mempool(owner=0)
        pool.install_policy(MempoolPolicy(max_size=2, ttl_ms=50.0))
        pool.add(tx(1, fee=1.0), 0.0)
        first = pool.known_ids()
        assert pool.known_ids() is first
        assert not pool.add(tx(1, fee=1.0), 1.0)  # duplicate: no change
        assert pool.known_ids() is first

    def test_is_the_ascending_id_tuple(self):
        pool = Mempool(owner=0)
        for tx_id in (5, 2, 9):
            pool.add(tx(tx_id), 0.0)
        assert pool.known_ids() == (2, 5, 9)

    def test_every_removal_path_invalidates(self):
        pool = Mempool(owner=0)
        pool.install_policy(MempoolPolicy(max_size=2, ttl_ms=50.0))
        pool.add(tx(1, fee=1.0), 0.0)
        pool.add(tx(2, fee=2.0), 0.0)
        assert set(pool.known_ids()) == {1, 2}
        pool.add(tx(3, fee=3.0), 1.0)  # evicts 1
        assert set(pool.known_ids()) == {2, 3}
        pool.pop_next(priority=True)  # serves 3
        assert set(pool.known_ids()) == {2}
        assert pool.expire(60.0) == 1  # expires 2
        assert set(pool.known_ids()) == set()
        pool.add(tx(1, fee=1.0), 61.0)  # re-admitted
        assert set(pool.known_ids()) == {1}
        assert pool.missing_from(frozenset({1, 9})) == []
        assert pool.absent_locally(frozenset({1, 9})) == [9]

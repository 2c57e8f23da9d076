"""A per-node mempool with arrival ordering and L∅-style commitments.

Beyond storing transactions, the mempool supports the two operations the
protocols need:

* **arrival order** — the proposer's block is formed in local arrival order,
  which is what makes early knowledge exploitable and front-running
  measurable;
* **reconciliation** — compact digests and set differences, used by L∅'s
  mempool reconciliation and by HERMES's gossip fallback (§VII-A).
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import filterfalse
from typing import Callable, Collection, KeysView

from ..crypto.hashing import encode_piece
from ..utils.digest import sha256
from .transaction import Transaction

__all__ = ["Mempool", "MempoolPolicy"]

# encode_piece("mempool-commitment"): the domain-separation prefix of every
# commitment digest, precomputed once.
_COMMITMENT_PREFIX = encode_piece("mempool-commitment")

# Every node that learns a transaction encodes the same id; share the bytes
# process-wide instead of re-encoding per mempool (ids are small ints from a
# per-run counter, so the cache stays tiny and hit rates are ~#nodes).
_encoded_id = lru_cache(maxsize=1 << 16)(encode_piece)


@dataclass(frozen=True, slots=True)
class MempoolPolicy:
    """Admission and retention rules for a bounded mempool.

    The default policy (all fields at their defaults) admits everything and
    retains it forever — behaviourally identical to an unbounded mempool,
    which is what every historical figure run uses (``policy=None``; the two
    are pinned equal by a regression test).  Under sustained load:

    * ``max_size`` caps the pool.  A full pool admits a newcomer only if its
      fee *strictly* exceeds the lowest resident fee — the lowest-fee (and
      among fee ties, latest-arrived) resident is evicted to make room.
      Fee ties reject the newcomer: seats are never churned for equal bids,
      which keeps the arrival-order semantics the fairness metrics measure.
    * ``ttl_ms`` expires transactions that have sat unserved for longer than
      the window (swept lazily on every add, or explicitly via
      :meth:`Mempool.expire`).
    * ``min_fee`` rejects bids below the floor outright.

    Every drop is counted on the mempool (``evicted`` / ``expired`` /
    ``rejected``) and reported through its ``on_drop`` callback so runs can
    aggregate drop accounting into ``repro.obs`` counters.
    """

    max_size: int | None = None
    ttl_ms: float | None = None
    min_fee: float = 0.0

    def __post_init__(self) -> None:
        if self.max_size is not None and self.max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {self.max_size}")
        if self.ttl_ms is not None and self.ttl_ms <= 0:
            raise ValueError(f"ttl_ms must be positive, got {self.ttl_ms}")
        if self.min_fee < 0:
            raise ValueError(f"min_fee must be >= 0, got {self.min_fee}")

    @property
    def is_unbounded(self) -> bool:
        return self.max_size is None and self.ttl_ms is None and self.min_fee == 0.0


@dataclass
class Mempool:
    """Transactions known to one node, with first-arrival timestamps."""

    owner: int
    _transactions: dict[int, Transaction] = field(default_factory=dict)
    # The resident ids in ascending order, and two columns aligned with it:
    # each id's first-arrival time (a flat array of doubles, not one boxed
    # float per entry; read through _arrival_of) and its canonical encoding.
    # _commitment / _known_ids memoize the digest and the id tuple until the
    # next add or removal.  list.insert is a C memmove, so maintaining sorted
    # order costs far less than re-sorting the id set on every commitment.
    _sorted_ids: list[int] = field(default_factory=list, repr=False, compare=False)
    _arrival: array = field(default_factory=lambda: array("d"), repr=False)
    _pieces: list[bytes] = field(default_factory=list, repr=False, compare=False)
    _commitment: bytes | None = field(default=None, repr=False, compare=False)
    _known_ids: tuple[int, ...] | None = field(default=None, repr=False, compare=False)
    # Admission/eviction policy.  None (the default, and what every protocol
    # node constructs) means unbounded: add() takes a single is-None branch
    # and is otherwise byte-identical to the historical behaviour.
    policy: MempoolPolicy | None = field(default=None, compare=False)
    # Called as on_drop(reason, tx) for every policy drop; reasons are
    # "evicted" (fee-ranked, pool full), "expired" (TTL), "rejected"
    # (admission refused: below min_fee, or full pool and bid too low).
    on_drop: Callable[[str, Transaction], None] | None = field(
        default=None, repr=False, compare=False
    )
    evicted: int = field(default=0, compare=False)
    expired: int = field(default=0, compare=False)
    rejected: int = field(default=0, compare=False)
    # Policy-mode service/eviction indexes, all lazily deleted: entries carry
    # the arrival stamp they were pushed with and are skipped when the id is
    # gone or was re-added with a different arrival.  None of them exists
    # without a policy — the N protocol-node mempools of a figure run never
    # allocate one.  Under a policy the FIFO (and, with a TTL, the expiry
    # queue, which shares its (arrival, id) tuples) is kept from the start,
    # because its order is admission order; the fee heap and the priority
    # heap are built from the residents the first time something reads them
    # (a full pool, a priority pop) and maintained from then on.
    _fee_heap: list[tuple[float, float, int]] | None = field(
        default=None, repr=False, compare=False
    )
    _prio_heap: list[tuple[float, float, int]] | None = field(
        default=None, repr=False, compare=False
    )
    _fifo: deque | None = field(default=None, repr=False, compare=False)
    _ttl_queue: deque | None = field(default=None, repr=False, compare=False)
    #: A live view of the resident ids: ``tx_id in mempool.ids`` is one
    #: C-level test, for relays that drop duplicate receipts before paying
    #: a delivery attempt.  Read-only; it follows every add and removal.
    ids: KeysView[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.ids = self._transactions.keys()
        if self.policy is not None:
            self.install_policy(self.policy, self.on_drop)

    def add(self, tx: Transaction, now: float) -> bool:
        """Record *tx* (first arrival wins).  Returns True if it was new.

        With a :attr:`policy` installed, admission may refuse *tx* (fee below
        the floor, or pool full and bid not strictly above the cheapest
        resident) or evict a resident to make room; either way the verdict is
        reflected in the drop counters and ``on_drop`` callback.
        """

        tx_id = tx.tx_id
        if tx_id in self._transactions:
            return False
        policy = self.policy
        if policy is not None and not self._admit(tx, now, policy):
            return False
        self._transactions[tx_id] = tx
        index = bisect_left(self._sorted_ids, tx_id)
        self._sorted_ids.insert(index, tx_id)
        self._arrival.insert(index, now)
        self._pieces.insert(index, _encoded_id(tx_id))
        self._commitment = self._known_ids = None
        if policy is not None:
            self._index(tx, now)
        return True

    def _arrival_of(self, tx_id: int) -> float | None:
        """First-arrival time of resident *tx_id*, or None if not resident."""

        ids = self._sorted_ids
        index = bisect_left(ids, tx_id)
        if index < len(ids) and ids[index] == tx_id:
            return self._arrival[index]
        return None

    # -- policy machinery -------------------------------------------------

    def _admit(self, tx: Transaction, now: float, policy: MempoolPolicy) -> bool:
        if policy.ttl_ms is not None:
            self._sweep_expired(now, policy.ttl_ms)
        if tx.fee < policy.min_fee:
            self._count_drop("rejected", tx)
            return False
        max_size = policy.max_size
        if max_size is None:
            return True
        while len(self._transactions) >= max_size:
            victim_id = self._cheapest_resident()
            if victim_id is None:
                break  # indexes stale-empty; admit rather than wedge
            victim = self._transactions[victim_id]
            if tx.fee <= victim.fee:
                self._count_drop("rejected", tx)
                return False
            heapq.heappop(self._fee_heap)
            self._discard(victim_id)
            self._count_drop("evicted", victim)
        return True

    def _cheapest_resident(self) -> int | None:
        """Id of the lowest-fee (ties: latest-arrived) resident, or None.

        Leaves the winning entry on the heap so a rejected admission attempt
        does not disturb it; stale entries are popped along the way.
        """

        heap = self._fee_heap
        if heap is None:
            txs = self._transactions
            heap = self._fee_heap = [
                (txs[i].fee, -a, i) for a, i in zip(self._arrival, self._sorted_ids)
            ]
            heapq.heapify(heap)
        while heap:
            _, neg_arrival, tx_id = heap[0]
            if self._arrival_of(tx_id) == -neg_arrival:
                return tx_id
            heapq.heappop(heap)
        return None

    def _index(self, tx: Transaction, now: float) -> None:
        """Register *tx* in the policy-mode service/eviction indexes."""

        entry = (now, tx.tx_id)
        self._fifo.append(entry)
        if self._ttl_queue is not None:
            self._ttl_queue.append(entry)
        if self._fee_heap is not None:
            heapq.heappush(self._fee_heap, (tx.fee, -now, tx.tx_id))
        if self._prio_heap is not None:
            heapq.heappush(self._prio_heap, (-tx.fee, now, tx.tx_id))
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Rebuild any lazy-deletion index whose stale entries dominate.

        Lazy deletion only sheds an entry when it reaches the *front* of its
        structure.  Under sustained load with fee-priority service that never
        happens for whole classes of entries — the FIFO queue is not popped
        at all, served high-fee ids sink to the bottom of the fee heap, and
        evicted low-fee ids to the bottom of the priority heap — so each
        index would otherwise grow O(all transactions ever admitted).
        Rebuilding once an index exceeds 4x the live set (amortized O(1) per
        add) keeps the pool's footprint O(live + recent), which is what makes
        a million-transaction sustained run constant-memory.  Only the
        indexes that exist are checked: an unbuilt heap holds nothing.
        """

        arrival = self._arrival_of
        bound = 4 * len(self._transactions) + 64
        fee_heap, prio_heap = self._fee_heap, self._prio_heap
        if fee_heap is not None and len(fee_heap) > bound:
            self._fee_heap = [entry for entry in fee_heap if arrival(entry[2]) == -entry[1]]
            heapq.heapify(self._fee_heap)
        if prio_heap is not None and len(prio_heap) > bound:
            self._prio_heap = [entry for entry in prio_heap if arrival(entry[2]) == entry[1]]
            heapq.heapify(self._prio_heap)
        if len(self._fifo) > bound:
            self._fifo = deque(
                entry for entry in self._fifo if arrival(entry[1]) == entry[0]
            )
        ttl_queue = self._ttl_queue
        if ttl_queue is not None and len(ttl_queue) > bound:
            self._ttl_queue = deque(
                entry for entry in ttl_queue if arrival(entry[1]) == entry[0]
            )

    def _discard(self, tx_id: int) -> None:
        """Remove *tx_id* from the live structures (heap entries die lazily)."""

        del self._transactions[tx_id]
        index = bisect_left(self._sorted_ids, tx_id)
        # tx_id is present by precondition, so _sorted_ids[index] == tx_id.
        del self._sorted_ids[index]
        del self._arrival[index]
        del self._pieces[index]
        self._commitment = self._known_ids = None

    def _count_drop(self, reason: str, tx: Transaction) -> None:
        if reason == "evicted":
            self.evicted += 1
        elif reason == "expired":
            self.expired += 1
        else:
            self.rejected += 1
        if self.on_drop is not None:
            self.on_drop(reason, tx)

    def _sweep_expired(self, now: float, ttl_ms: float) -> None:
        cutoff = now - ttl_ms
        queue = self._ttl_queue
        while queue:
            arrival, tx_id = queue[0]
            if arrival > cutoff:
                break
            queue.popleft()
            if self._arrival_of(tx_id) == arrival:
                victim = self._transactions[tx_id]
                self._discard(tx_id)
                self._count_drop("expired", victim)

    def expire(self, now: float) -> int:
        """Force a TTL sweep at *now*; returns how many transactions expired.

        Expiry is otherwise lazy (piggybacked on :meth:`add`), so telemetry
        that reads drop counters on a cadence should call this first.
        """

        if self.policy is None or self.policy.ttl_ms is None:
            return 0
        before = self.expired
        self._sweep_expired(now, self.policy.ttl_ms)
        return self.expired - before

    def pop_next(self, *, priority: bool = False) -> tuple[Transaction, float] | None:
        """Remove and return the next ``(tx, arrival_ms)`` to serve, or None.

        ``priority=False`` serves in first-arrival order; ``priority=True``
        serves by descending fee (ties: earlier arrival, then id) — the order
        a fee market's proposer drains the pool in.  Requires a policy-mode
        mempool (the service indexes are only maintained under a policy).
        """

        if self.policy is None:
            raise RuntimeError("pop_next requires a mempool with a policy installed")
        if priority:
            heap = self._prio_heap
            if heap is None:
                txs = self._transactions
                heap = self._prio_heap = [
                    (-txs[i].fee, a, i) for a, i in zip(self._arrival, self._sorted_ids)
                ]
                heapq.heapify(heap)
            while heap:
                _, arrival, tx_id = heapq.heappop(heap)
                if self._arrival_of(tx_id) == arrival:
                    tx = self._transactions[tx_id]
                    self._discard(tx_id)
                    return tx, arrival
            return None
        queue = self._fifo
        while queue:
            arrival, tx_id = queue.popleft()
            if self._arrival_of(tx_id) == arrival:
                tx = self._transactions[tx_id]
                self._discard(tx_id)
                return tx, arrival
        return None

    def install_policy(
        self,
        policy: MempoolPolicy,
        on_drop: Callable[[str, Transaction], None] | None = None,
    ) -> None:
        """Attach *policy* (and optional drop callback), queueing any
        transactions already resident, in arrival order, so eviction and
        service see them."""

        self.policy = policy
        self.on_drop = on_drop
        self._fee_heap = self._prio_heap = None
        entries = sorted(zip(self._arrival, self._sorted_ids))
        self._fifo = deque(entries)
        self._ttl_queue = deque(entries) if policy.ttl_ms is not None else None

    def __contains__(self, tx_id: int) -> bool:
        return tx_id in self._transactions

    def __len__(self) -> int:
        return len(self._transactions)

    def get(self, tx_id: int) -> Transaction | None:
        return self._transactions.get(tx_id)

    def arrival_time(self, tx_id: int) -> float:
        arrival = self._arrival_of(tx_id)
        if arrival is None:
            raise KeyError(f"transaction {tx_id} not in mempool of {self.owner}")
        return arrival

    def in_arrival_order(self) -> list[Transaction]:
        """Transactions sorted by local first-arrival time (ties by id)."""

        txs = self._transactions
        return [txs[i] for _, i in sorted(zip(self._arrival, self._sorted_ids))]

    def in_priority_order(self) -> list[Transaction]:
        """Transactions by descending fee, then arrival time (fee market).

        The ordering rule real front-runners bid against: a higher
        :attr:`~repro.mempool.transaction.Transaction.fee` overtakes earlier
        arrivals, and fee-less transactions fall back to pure arrival order.
        """

        txs = self._transactions
        keyed = sorted((-txs[i].fee, a, i) for a, i in zip(self._arrival, self._sorted_ids))
        return [txs[i] for _, _, i in keyed]

    # -- reconciliation --------------------------------------------------

    def known_ids(self) -> tuple[int, ...]:
        """The resident ids in ascending order, built at most once per change
        of the pool's contents (the reconciliation digest's payload)."""

        cached = self._known_ids
        if cached is None:
            cached = self._known_ids = tuple(self._sorted_ids)
        return cached

    def commitment(self) -> bytes:
        """A digest over the known transaction set (L∅'s mempool commitment).

        Byte-identical to ``hash_bytes("mempool-commitment", *sorted(ids))``
        but computed from incrementally maintained pieces and memoized, so
        L∅'s per-round commitment exchange costs O(n) hashing only after the
        set actually changed — not O(n log n) encoding on every call.
        """

        cached = self._commitment
        if cached is None:
            cached = self._commitment = sha256(
                _COMMITMENT_PREFIX + b"".join(self._pieces)
            ).digest()
        return cached

    def missing_from(self, known_ids: Collection[int]) -> list[int]:
        """Ids we hold that the peer advertising *known_ids* lacks."""

        return sorted(self._transactions.keys() - known_ids)

    def absent_locally(self, known_ids: Collection[int]) -> list[int]:
        """Ids the peer holds that we lack (to be requested)."""

        return sorted(filterfalse(self._transactions.__contains__, known_ids))

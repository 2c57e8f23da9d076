"""Stable, seeded transaction-to-shard assignment.

A :class:`ShardMap` answers one question — *which shard owns this key?* — and
answers it identically in every process that shares its ``(seed, params)``.
Python's builtin ``hash`` is salted per interpreter, so assignments are
derived from a BLAKE2b digest of a seeded salt and the key's string form
instead; two maps built from the same config agree byte-for-byte across
machines, which is what lets the content-addressed sweep runner replay
sharded cells.

Two policies:

``uniform``
    Pure stable hashing: ``blake2b(salt, key) mod num_shards``.  Stateless —
    the same key always lands on the same shard, regardless of stream order.

``hot-key``
    Stable hashing for cold keys, deterministic round-robin spreading for
    hot ones.  The map counts per-key occurrences; once a key has been seen
    ``hot_threshold`` times, each further occurrence advances one shard from
    the key's home — a single Zipf-head key (one NFT mint contract, one DEX
    pair) stops pinning its whole volume to one committee.  Assignment is a
    function of ``(seed, params, occurrence index)``, so replaying the same
    key stream reproduces the same shard stream exactly.

``num_shards = 1`` short-circuits to shard 0 with no hashing and no counter
updates, which is part of the single-shard byte-identity contract
(``tests/integration/test_sharding_identity.py``).

>>> config = ShardMapConfig(num_shards=4, seed=7)
>>> ShardMap(config).assign("client-42") == ShardMap(config).assign("client-42")
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from ..errors import ConfigurationError
from ..utils.digest import blake2b
from ..utils.rng import derive_rng

__all__ = ["SHARD_POLICIES", "ShardMapConfig", "ShardMap", "shard_balance"]

SHARD_POLICIES = ("uniform", "hot-key")


@dataclass(frozen=True, slots=True)
class ShardMapConfig:
    """Everything a :class:`ShardMap` derives its assignments from."""

    num_shards: int
    policy: str = "uniform"
    seed: int = 0
    #: ``hot-key`` only: occurrences after which a key counts as hot and its
    #: further traffic is spread round-robin across all shards.
    hot_threshold: int = 32

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        if self.policy not in SHARD_POLICIES:
            raise ConfigurationError(
                f"unknown shard policy {self.policy!r}; choose from {SHARD_POLICIES}"
            )
        if self.hot_threshold < 1:
            raise ConfigurationError(
                f"hot_threshold must be >= 1, got {self.hot_threshold}"
            )


class ShardMap:
    """Seeded key → shard assignment (see module docstring for the policies).

    The map carries mutable state only under the ``hot-key`` policy (per-key
    occurrence counts); :meth:`reset` rewinds it so one map instance can
    replay multiple streams.
    """

    def __init__(self, config: ShardMapConfig) -> None:
        self.config = config
        # One salt per (seed): derive_rng keeps the stream namespaced so a
        # ShardMap never perturbs any other consumer of the same seed.
        self._salt = derive_rng(config.seed, "shard-map", "salt").getrandbits(64)
        self._counts: dict[Hashable, int] = {}

    # -- assignment --------------------------------------------------------

    def _stable_hash(self, key: Hashable) -> int:
        data = f"{self._salt}:{type(key).__name__}:{key!r}".encode()
        return int.from_bytes(
            blake2b(data, digest_size=8).digest(), "big"
        )

    def home_of(self, key: Hashable) -> int:
        """The key's stable home shard (stateless; both policies share it)."""

        if self.config.num_shards == 1:
            return 0
        return self._stable_hash(key) % self.config.num_shards

    def assign(self, key: Hashable) -> int:
        """The shard that owns this occurrence of *key*.

        Under ``uniform`` this is :meth:`home_of`.  Under ``hot-key`` the
        occurrence counter advances even while the key is cold, so hotness is
        a property of the stream, not of the call pattern.
        """

        k = self.config.num_shards
        if k == 1:
            return 0
        home = self._stable_hash(key) % k
        if self.config.policy == "uniform":
            return home
        count = self._counts.get(key, 0)
        self._counts[key] = count + 1
        if count < self.config.hot_threshold:
            return home
        return (home + (count - self.config.hot_threshold)) % k

    def assign_many(self, keys: Iterable[Hashable]) -> list[int]:
        """Assign a whole stream in order (hot-key state advances per key)."""

        return [self.assign(key) for key in keys]

    # -- bookkeeping -------------------------------------------------------

    def reset(self) -> None:
        """Forget all occurrence counts (rewind the hot-key stream state)."""

        self._counts.clear()

    def hot_keys(self) -> list[Hashable]:
        """Keys whose occurrence count has crossed ``hot_threshold``."""

        threshold = self.config.hot_threshold
        return [key for key, count in self._counts.items() if count >= threshold]

    def describe(self) -> dict:
        """JSON-ready parameters (for manifests and reports)."""

        return {
            "num_shards": self.config.num_shards,
            "policy": self.config.policy,
            "seed": self.config.seed,
            "hot_threshold": self.config.hot_threshold,
        }


def shard_balance(assignments: Sequence[int], num_shards: int) -> float:
    """Peak-to-mean shard load over one assignment stream.

    1.0 is a perfectly even split; ``num_shards`` is the worst case (every
    key on one shard).  An empty stream is vacuously balanced.  This is the
    quantity the Hypothesis balance-bound property pins for Zipf key streams
    (``tests/property/test_sharding_properties.py``).
    """

    if num_shards < 1:
        raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
    if not assignments:
        return 1.0
    counts = [0] * num_shards
    for shard in assignments:
        counts[shard] += 1
    mean = len(assignments) / num_shards
    return max(counts) / mean

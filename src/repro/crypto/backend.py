"""Pluggable crypto backends for the simulator.

Large-scale simulation runs (the paper uses N = 10,000 nodes) cannot afford a
2048-bit modular exponentiation per message hop, so the protocol stack talks to
crypto through this small interface:

* :class:`RealCryptoBackend` — the genuine Schnorr/threshold mathematics from
  this package, suitable for unit tests and small runs;
* :class:`FastCryptoBackend` — keyed-hash stand-ins that preserve every
  property the protocol logic observes: signatures are unforgeable *within the
  simulation* (the MAC key never leaves the backend), threshold "signatures"
  become available only once ``t`` distinct members contribute, the combined
  value is deterministic in ``(i, H(m))`` and identical across contributor
  subsets, and byte sizes mirror the real scheme so bandwidth accounting is
  unchanged.

Both backends share deterministic seeds: ``seed(sig, k)`` depends only on the
message binding, which is what makes HERMES's randomized overlay selection
verifiable and unbiasable.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from ..errors import ThresholdNotReachedError
from .group import SchnorrGroup, toy_group
from .hashing import hash_bytes, hash_to_int
from .keys import KeyRegistry
from .threshold import (
    PartialSignature,
    ThresholdPublicKey,
    ThresholdSignature,
    ThresholdSigner,
    combine_partials,
    threshold_keygen,
    verify_partial,
)

__all__ = ["CryptoBackend", "RealCryptoBackend", "FastCryptoBackend", "SIGNATURE_SIZE_BYTES"]

# Approximate wire sizes (bytes) used for bandwidth accounting in both backends:
# a Schnorr signature is two 256-bit scalars; a partial is a group element plus
# a DLEQ proof; the combined threshold signature is one group element plus the
# contributor bitmap.
SIGNATURE_SIZE_BYTES = 64
PARTIAL_SIZE_BYTES = 160
THRESHOLD_SIG_SIZE_BYTES = 96


class CryptoBackend(ABC):
    """The crypto surface the protocol stack consumes."""

    signature_size: int = SIGNATURE_SIZE_BYTES
    partial_size: int = PARTIAL_SIZE_BYTES
    threshold_sig_size: int = THRESHOLD_SIG_SIZE_BYTES

    @abstractmethod
    def setup_committee(self, member_ids: Sequence[int], threshold: int) -> None:
        """Register the TRS committee and deal threshold key material."""

    @abstractmethod
    def register_node(self, node_id: int) -> None:
        """Create signing material for *node_id*."""

    @abstractmethod
    def sign(self, node_id: int, message: bytes) -> object:
        """Sign *message* as *node_id*."""

    @abstractmethod
    def verify(self, node_id: int, message: bytes, signature: object) -> bool:
        """Verify a node signature."""

    @abstractmethod
    def partial_sign(self, member_id: int, message: bytes) -> object:
        """Produce a TRS partial signature as committee member *member_id*."""

    @abstractmethod
    def verify_partial(self, message: bytes, partial: object) -> bool:
        """Publicly verify one TRS partial."""

    @abstractmethod
    def combine(self, message: bytes, partials: Sequence[object]) -> object:
        """Combine >= threshold valid partials into the unique signature."""

    @abstractmethod
    def verify_combined(self, message: bytes, signature: object) -> bool:
        """Check that *signature* is the unique valid combined signature on
        *message*."""

    @abstractmethod
    def seed_from_signature(self, signature: object, modulus: int) -> int:
        """Reduce the combined signature to a seed in ``[0, modulus)``."""

    @abstractmethod
    def hash(self, payload: bytes) -> bytes:
        """Collision-resistant hash used for ``H(m)``."""


class RealCryptoBackend(CryptoBackend):
    """Backend running the genuine discrete-log cryptography."""

    def __init__(self, group: SchnorrGroup | None = None, seed: int = 0) -> None:
        self._group = group if group is not None else toy_group()
        self._rng = random.Random(seed)
        self.registry = KeyRegistry(self._group)
        self._threshold_public: ThresholdPublicKey | None = None
        self._signers: dict[int, ThresholdSigner] = {}
        self._member_index: dict[int, int] = {}

    @property
    def threshold_public(self) -> ThresholdPublicKey:
        if self._threshold_public is None:
            raise ThresholdNotReachedError("committee has not been set up")
        return self._threshold_public

    def setup_committee(self, member_ids: Sequence[int], threshold: int) -> None:
        public, signers = threshold_keygen(
            self._group, threshold, len(member_ids), self._rng
        )
        self._threshold_public = public
        self._signers = {}
        self._member_index = {}
        for member_id, signer in zip(member_ids, signers):
            self._signers[member_id] = signer
            self._member_index[member_id] = signer.index

    def register_node(self, node_id: int) -> None:
        self.registry.generate(node_id, self._rng)

    def sign(self, node_id: int, message: bytes) -> object:
        return self.registry.sign(node_id, message, self._rng)

    def verify(self, node_id: int, message: bytes, signature: object) -> bool:
        from .schnorr import SchnorrSignature

        if not isinstance(signature, SchnorrSignature):
            return False
        return self.registry.verify(node_id, message, signature)

    def partial_sign(self, member_id: int, message: bytes) -> PartialSignature:
        if member_id not in self._signers:
            raise ThresholdNotReachedError(f"node {member_id} is not a committee member")
        return self._signers[member_id].sign(message, self._rng)

    def verify_partial(self, message: bytes, partial: object) -> bool:
        if not isinstance(partial, PartialSignature):
            return False
        return verify_partial(self.threshold_public, message, partial)

    def combine(self, message: bytes, partials: Sequence[object]) -> ThresholdSignature:
        typed = [p for p in partials if isinstance(p, PartialSignature)]
        return combine_partials(self.threshold_public, message, typed)

    def verify_combined(self, message: bytes, signature: object) -> bool:
        """Recompute the unique signature and compare.

        Without pairings the combined value cannot be publicly checked against
        ``y = g^x``; deployments ship the DLEQ-proved partials as the
        certificate.  In the simulation the backend holds all signers, so it
        can act as the verification oracle directly — equivalent to verifying
        a full partial certificate.
        """

        if not isinstance(signature, ThresholdSignature):
            return False
        if self._threshold_public is None:
            return False
        fresh = [
            signer.sign(message, self._rng)
            for signer in list(self._signers.values())[: self.threshold_public.threshold]
        ]
        try:
            expected = combine_partials(self.threshold_public, message, fresh)
        except ThresholdNotReachedError:
            return False
        return expected.value == signature.value

    def seed_from_signature(self, signature: object, modulus: int) -> int:
        if not isinstance(signature, ThresholdSignature):
            raise ThresholdNotReachedError("expected a combined threshold signature")
        return signature.as_seed(modulus)

    def hash(self, payload: bytes) -> bytes:
        return hash_bytes(payload)


@dataclass(frozen=True, slots=True)
class _FastSignature:
    """A MAC standing in for a Schnorr signature in the fast backend."""

    signer: int
    tag: bytes


@dataclass(frozen=True, slots=True)
class _FastPartial:
    """A MAC standing in for a TRS partial signature."""

    member_id: int
    tag: bytes


@dataclass(frozen=True, slots=True)
class _FastCombined:
    """The deterministic combined TRS value in the fast backend."""

    value: bytes
    contributors: tuple[int, ...]


class FastCryptoBackend(CryptoBackend):
    """Keyed-hash simulation of the crypto layer for large experiments.

    Security within the simulation rests on per-node MAC keys held privately
    by this object: protocol code can only *ask* the backend to sign as a node
    it controls, so a Byzantine node still cannot forge another node's
    signatures — the same interface contract the real backend offers.
    """

    def __init__(self, seed: int = 0) -> None:
        self._root = hash_bytes("fast-backend-root", seed)
        self._node_keys: dict[int, bytes] = {}
        self._member_keys: dict[int, bytes] = {}
        self._committee_secret: bytes | None = None
        self._threshold: int | None = None
        # Memos of two pure functions, one entry per distinct input: the
        # expected combined value of a binding and the seed of a (value,
        # modulus).  Every copy is still compared; only the hashing is shared.
        self._expected: dict[bytes, bytes] = {}
        self._seeds: dict[tuple[bytes, int], int] = {}

    def _expected_value(self, message: bytes) -> bytes:
        if message not in self._expected:
            self._expected[message] = hash_bytes(self._committee_secret, "combined", message)
        return self._expected[message]

    def setup_committee(self, member_ids: Sequence[int], threshold: int) -> None:
        if threshold < 1 or threshold > len(member_ids):
            raise ThresholdNotReachedError(
                f"invalid threshold {threshold} for committee of {len(member_ids)}"
            )
        self._committee_secret = hash_bytes(self._root, "committee-secret")
        self._threshold = threshold
        self._member_keys = {
            m: hash_bytes(self._root, "member", m) for m in member_ids
        }

    def register_node(self, node_id: int) -> None:
        self._node_keys.setdefault(node_id, hash_bytes(self._root, "node", node_id))

    def sign(self, node_id: int, message: bytes) -> _FastSignature:
        if node_id not in self._node_keys:
            self.register_node(node_id)
        tag = hash_bytes(self._node_keys[node_id], message)
        return _FastSignature(signer=node_id, tag=tag)

    def verify(self, node_id: int, message: bytes, signature: object) -> bool:
        if not isinstance(signature, _FastSignature):
            return False
        if signature.signer != node_id or node_id not in self._node_keys:
            return False
        return signature.tag == hash_bytes(self._node_keys[node_id], message)

    def partial_sign(self, member_id: int, message: bytes) -> _FastPartial:
        if member_id not in self._member_keys:
            raise ThresholdNotReachedError(f"node {member_id} is not a committee member")
        tag = hash_bytes(self._member_keys[member_id], "partial", message)
        return _FastPartial(member_id=member_id, tag=tag)

    def verify_partial(self, message: bytes, partial: object) -> bool:
        if not isinstance(partial, _FastPartial):
            return False
        key = self._member_keys.get(partial.member_id)
        if key is None:
            return False
        return partial.tag == hash_bytes(key, "partial", message)

    def combine(self, message: bytes, partials: Sequence[object]) -> _FastCombined:
        if self._committee_secret is None or self._threshold is None:
            raise ThresholdNotReachedError("committee has not been set up")
        valid_ids = sorted(
            {
                p.member_id
                for p in partials
                if isinstance(p, _FastPartial) and self.verify_partial(message, p)
            }
        )
        if len(valid_ids) < self._threshold:
            raise ThresholdNotReachedError(
                f"need {self._threshold} valid partials, got {len(valid_ids)}"
            )
        # Deterministic in the message alone — mirrors the uniqueness of the
        # real combined signature H(m)^x across contributor subsets.
        value = self._expected_value(message)
        return _FastCombined(value=value, contributors=tuple(valid_ids[: self._threshold]))

    def verify_combined(self, message: bytes, signature: object) -> bool:
        if not isinstance(signature, _FastCombined):
            return False
        if self._committee_secret is None:
            return False
        return signature.value == self._expected_value(message)

    def seed_from_signature(self, signature: object, modulus: int) -> int:
        if not isinstance(signature, _FastCombined):
            raise ThresholdNotReachedError("expected a combined threshold signature")
        key = (signature.value, modulus)
        if key not in self._seeds:
            self._seeds[key] = hash_to_int("trs-seed", signature.value, modulus=modulus)
        return self._seeds[key]

    def hash(self, payload: bytes) -> bytes:
        return hash_bytes(payload)

"""Hashing helpers: canonical serialization plus SHA-256.

All protocol hashing in the reproduction funnels through these functions so
that every component agrees byte-for-byte on what ``H(m)`` means.
"""

from __future__ import annotations

from ..utils.digest import sha256

__all__ = ["encode_piece", "encode_for_hash", "hash_bytes", "hash_to_int", "sha256_hex"]


def encode_piece(part: bytes | str | int) -> bytes:
    """The length-prefixed canonical encoding of a single part.

    ``encode_for_hash(a, b) == encode_piece(a) + encode_piece(b)`` — callers
    that maintain incremental digests (e.g. the mempool commitment) cache
    per-part pieces and concatenate them instead of re-encoding everything.
    """

    if isinstance(part, str):
        raw = part.encode("utf-8")
    elif isinstance(part, int):
        raw = part.to_bytes((max(part.bit_length(), 1) + 7) // 8, "big", signed=part < 0)
    elif isinstance(part, bytes):
        raw = part
    else:
        raise TypeError(f"cannot hash value of type {type(part).__name__}")
    return len(raw).to_bytes(4, "big") + raw


def encode_for_hash(*parts: bytes | str | int) -> bytes:
    """Serialize *parts* into an unambiguous byte string.

    Each part is length-prefixed so ``("ab", "c")`` and ``("a", "bc")`` encode
    differently — a classic source of hash-ambiguity bugs.
    """

    return b"".join([encode_piece(part) for part in parts])


def hash_bytes(*parts: bytes | str | int) -> bytes:
    """SHA-256 digest of the canonical encoding of *parts*."""

    return sha256(encode_for_hash(*parts)).digest()


def sha256_hex(*parts: bytes | str | int) -> str:
    """Hex-encoded SHA-256 digest of *parts*."""

    return hash_bytes(*parts).hex()


def hash_to_int(*parts: bytes | str | int, modulus: int | None = None) -> int:
    """Interpret the SHA-256 digest of *parts* as a big-endian integer.

    When *modulus* is given the result is reduced into ``[0, modulus)``.
    """

    value = int.from_bytes(hash_bytes(*parts), "big")
    if modulus is not None:
        if modulus <= 0:
            raise ValueError(f"modulus must be positive, got {modulus}")
        value %= modulus
    return value

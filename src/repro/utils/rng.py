"""Deterministic random-number-generator plumbing.

Every stochastic component of the simulation (latency sampling, link loss,
annealing moves, adversary behaviour) draws from its own ``random.Random``
instance derived from a single experiment seed.  Deriving instead of sharing
means adding a new consumer never perturbs the random streams of existing ones,
which keeps experiments reproducible across library versions.
"""

from __future__ import annotations

import random

from .digest import sha256

__all__ = ["derive_rng"]


def derive_rng(seed: int, *labels: str | int) -> random.Random:
    """Return a ``random.Random`` deterministically derived from *seed* and *labels*.

    The labels namespace the stream, e.g. ``derive_rng(42, "latency")`` and
    ``derive_rng(42, "annealing", 3)`` are independent generators.
    """

    hasher = sha256()
    hasher.update(str(seed).encode("utf-8"))
    for label in labels:
        hasher.update(b"/")
        hasher.update(str(label).encode("utf-8"))
    return random.Random(int.from_bytes(hasher.digest()[:8], "big"))


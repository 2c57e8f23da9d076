"""Exact-stream block sampling: draws in blocks, byte-identical results.

The kernel's byte-identity contract says a seeded run must produce the same
results no matter how its draws are batched.  A block of ``n`` draws must
therefore return the exact floats that ``n`` scalar calls on the same
``random.Random`` would have returned, and leave the generator in the exact
state those calls would have left it in.

``BlockSampler.normals`` runs ``random.normalvariate``'s Kinderman–Monahan
loop over a whole block of candidate pairs at once, with C-level iteration
only: the uniforms come from ``starmap(rng.random, ...)`` and every step is
a ``map`` over an ``operator`` function or ``math.log``.  Those are the same
IEEE operations, in the same order, with the same libm ``log`` that the
scalar loop runs, so each value equals the scalar draw by construction — and
a block adds a handful of profiled calls, not several per draw.  A block that
drew candidates past its ``n``-th accept rewinds with ``setstate`` and
re-advances by the words it really used (``getrandbits(128 * pairs)`` is the
next ``4 * pairs`` 32-bit words, exactly what ``2 * pairs`` ``random()``
calls consume).

The module needs nothing outside the standard library.
"""

from __future__ import annotations

import random
from itertools import compress, islice, repeat, starmap
from math import log as _log
from operator import add, le, mul, neg, sub, truediv
from random import NV_MAGICCONST as _NV_MAGICCONST

__all__ = ["BlockSampler"]


class BlockSampler:
    """A block view of one ``random.Random``'s draw stream.

    Every method returns exactly what the same number of scalar calls on the
    wrapped generator would have returned, and leaves the generator in the
    state those calls would have left it in — so scalar and block draws may
    be interleaved freely.
    """

    __slots__ = ("_rng",)

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    def normals(self, mu: float, sigma: float, n: int) -> list[float]:
        """The next *n* draws of ``rng.normalvariate(mu, sigma)``."""

        rng = self._rng
        out: list[float] = []
        while len(out) < n:
            need = n - len(out)
            # Kinderman–Monahan accepts ~73% of candidate pairs.  The first
            # chunk is sized to fall just short and the top-up to overshoot,
            # so the rewind below re-advances over a small chunk only.
            pairs = need + (need >> 1) + 16 if out else max(64, need * 4 // 3)
            state = rng.getstate()
            u = list(starmap(rng.random, repeat((), 2 * pairs)))
            # u1 = random(); u2 = 1.0 - random()
            u2 = list(map(sub, repeat(1.0), islice(u, 1, None, 2)))
            # z = NV_MAGICCONST * (u1 - 0.5) / u2
            z = list(map(truediv, map(mul, repeat(_NV_MAGICCONST),
                                      map(sub, islice(u, 0, None, 2), repeat(0.5))), u2))
            # accept when z * z / 4.0 <= -log(u2)
            ok = map(le, map(truediv, map(mul, z, z), repeat(4.0)), map(neg, map(_log, u2)))
            accepted = list(islice(compress(range(pairs), ok), need))
            # mu + z * sigma
            out += map(add, repeat(mu), map(mul, map(z.__getitem__, accepted), repeat(sigma)))
            if len(out) == n and accepted[-1] + 1 < pairs:
                # Drawn speculatively past the n-th accept: rewind.
                rng.setstate(state)
                rng.getrandbits(128 * (accepted[-1] + 1))
        return out

    def gammas(self, alpha: float, beta: float, n: int) -> list[float]:
        """The next *n* draws of ``rng.gammavariate(alpha, beta)``."""

        return list(starmap(self._rng.gammavariate, repeat((alpha, beta), n)))

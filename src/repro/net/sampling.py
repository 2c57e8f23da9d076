"""Exact-stream block sampling: vectorized draws, byte-identical results.

The kernel's byte-identity contract says a seeded run must produce the same
results no matter which performance features are enabled.  Batched sampling
therefore cannot merely be *statistically* equivalent to scalar sampling — a
block of ``n`` draws must return the exact floats that ``n`` scalar calls on
the same ``random.Random`` would have returned, and must leave the generator
in the exact state those calls would have left it in.

``random.Random`` already hands out its raw MT19937 words in bulk:
``getrandbits(64 * n)`` is the next ``2n`` 32-bit words, least significant
first, so its little-endian bytes viewed as ``'<u4'`` are the words in the
order ``random()`` would consume them.  ``random()`` turns two words
``a, b`` into ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53``, which NumPy
evaluates exactly (every intermediate is an integer below 2⁵³), so a block
of uniforms is bit-for-bit the stream ``n`` scalar ``random()`` calls would
have produced — and the wrapped generator has advanced exactly that far.
A block that drew speculatively past its last accepted candidate rewinds with
``setstate`` and re-advances by the words it really used.

On top of that uniform stream we re-implement the distribution algorithms of
``random.py`` (Kinderman–Monahan for normals, Cheng's GB for gammas) with one
hard rule: **every transcendental that feeds an output value is computed with
scalar ``math`` calls**, because NumPy's SIMD ``log``/``exp`` may differ from
libm by one ulp on a small fraction of inputs.  Vectorized transcendentals
are used only for accept/reject *decisions*, and any decision within a guard
band of the boundary is re-checked with ``math.log`` — so a one-ulp
discrepancy can never flip an accept into a reject.

When NumPy is unavailable (notably on PyPy, where the scalar interpreter is
fast anyway) every block falls back to plain scalar draws, which is
byte-identical by construction.  ``set_batching(False)`` forces that
fallback for A/B testing; the golden-hash determinism tests run both paths.
"""

from __future__ import annotations

import random
from math import exp as _exp
from math import log as _log
from math import sqrt as _sqrt

__all__ = [
    "batching_enabled",
    "set_batching",
    "BlockSampler",
    "uniform_block",
    "normal_block",
    "lognorm_block",
    "gamma_block",
]

# NumPy is imported lazily on the first batched draw: this module sits under
# repro.net.node and therefore on every import path, and eagerly paying
# NumPy's ~100 ms import would slow down every short-lived process (sweep
# workers, CLI invocations) whether or not they ever sample in blocks.
_np = None
_np_checked = False


def _numpy():
    """The numpy module, imported on first use; None when unavailable."""

    global _np, _np_checked
    if not _np_checked:
        _np_checked = True
        try:  # pragma: no cover - exercised implicitly by every batched test
            import numpy

            _np = numpy
        except ImportError:  # pragma: no cover - the PyPy / minimal-env path
            _np = None
    return _np


# Constants from CPython's random.py (identical across 3.10–3.13).
_NV_MAGICCONST = 4 * _exp(-0.5) / _sqrt(2.0)
_LOG4 = _log(4.0)
_SG_MAGICCONST = 1.0 + _log(4.5)
_TWO_POW_MINUS_53 = 2.0**-53

# Relative half-width of the boundary band inside which vectorized
# accept/reject decisions are re-verified with scalar math.log.  NumPy's log
# is within 1 ulp of libm (~2.3e-16 relative), so 1e-12 is a >1000× margin.
_DECISION_BAND = 1e-12

_batching = True


def batching_enabled() -> bool:
    """True when block draws take the vectorized path (NumPy present + on)."""

    return _batching and _numpy() is not None


def set_batching(enabled: bool) -> None:
    """Globally enable/disable vectorized block sampling (A/B testing).

    Results are byte-identical either way; only speed changes.
    """

    global _batching
    _batching = bool(enabled)


class BlockSampler:
    """A vectorized view of one ``random.Random``'s draw stream.

    Every method returns exactly what the same number of scalar calls on the
    wrapped generator would have returned, and leaves the generator in the
    state those calls would have left it in — so scalar and block draws may
    be interleaved freely.
    """

    __slots__ = ("_rng",)

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    def _draw(self, n: int):
        """The next *n* uniforms as a float64 array (*n* ``random()`` calls)."""

        words = _np.frombuffer(
            self._rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u4"
        )
        high = (words[0::2] >> 5).astype(_np.float64)
        return (high * 67108864.0 + (words[1::2] >> 6)) * _TWO_POW_MINUS_53

    def _rewind(self, state: tuple, used: int) -> None:
        """Put the wrapped rng *used* uniforms past *state*."""

        self._rng.setstate(state)
        if used:
            self._rng.getrandbits(64 * used)

    # -- distributions ---------------------------------------------------

    def uniforms(self, n: int) -> list[float]:
        """The next *n* uniforms — exactly ``[rng.random() for _ in ...]``."""

        if n <= 0:
            return []
        if not batching_enabled():
            scalar = self._rng.random
            return [scalar() for _ in range(n)]
        return self._draw(n).tolist()

    def normals(self, mu: float, sigma: float, n: int) -> list[float]:
        """The next *n* draws of ``rng.normalvariate(mu, sigma)``."""

        if n <= 0:
            return []
        if not batching_enabled():
            scalar = self._rng.normalvariate
            return [scalar(mu, sigma) for _ in range(n)]
        out: list[float] = []
        while len(out) < n:
            need = n - len(out)
            # Kinderman–Monahan accepts ~73% of candidate pairs.  The first
            # chunk is sized to fall just short and the top-up to overshoot,
            # so the rewind below re-advances over a small chunk only.
            pairs = need + (need >> 1) + 16 if out else max(64, need * 4 // 3)
            state = self._rng.getstate()
            u = self._draw(2 * pairs)
            u1 = u[0::2]
            u2 = 1.0 - u[1::2]
            z = _NV_MAGICCONST * (u1 - 0.5) / u2
            zz = z * z / 4.0
            neg_log = -_np.log(u2)
            ok = zz <= neg_log
            # Re-verify decisions near the boundary with libm's log: NumPy's
            # vectorized log may differ in the last ulp, and only there could
            # that ulp flip the comparison.
            band = _np.flatnonzero(
                _np.abs(zz - neg_log) <= _DECISION_BAND * (1.0 + _np.abs(neg_log))
            )
            for i in band:
                ok[i] = zz[i] <= -_log(u2[i])
            accepted = _np.flatnonzero(ok)[:need]
            out.extend((mu + z[accepted] * sigma).tolist())
            if len(out) == n:
                used_pairs = int(accepted[-1]) + 1
                if used_pairs < pairs:
                    # Drawn speculatively past the n-th accept: rewind.
                    self._rewind(state, 2 * used_pairs)
        return out

    def lognorms(self, mu: float, sigma: float, n: int) -> list[float]:
        """The next *n* draws of ``rng.lognormvariate(mu, sigma)``.

        ``exp`` feeds the output value, so it stays scalar (module contract).
        """

        if n <= 0:
            return []
        if not batching_enabled():
            scalar = self._rng.lognormvariate
            return [scalar(mu, sigma) for _ in range(n)]
        return [_exp(x) for x in self.normals(mu, sigma, n)]

    def gammas(self, alpha: float, beta: float, n: int) -> list[float]:
        """The next *n* draws of ``rng.gammavariate(alpha, beta)``.

        For ``alpha > 1`` (Cheng's GB algorithm — the inverse-gamma latency
        path) the uniform stream is drawn in vectorized blocks; the
        per-candidate ``log``/``exp`` feed output values and therefore stay
        scalar, so the win here is the prefetched uniforms, not full
        vectorization.  Other alpha ranges fall back to scalar draws.
        """

        if n <= 0:
            return []
        if not (batching_enabled() and alpha > 1.0):
            scalar = self._rng.gammavariate
            return [scalar(alpha, beta) for _ in range(n)]
        state = self._rng.getstate()
        chunk = max(256, 2 * n + (n >> 1) + 16)
        buffer = self._draw(chunk).tolist()
        drawn = chunk
        cursor = 0
        ainv = _sqrt(2.0 * alpha - 1.0)
        bbb = alpha - _LOG4
        ccc = alpha + ainv
        out: list[float] = []
        used = 0
        while len(out) < n:
            if cursor == chunk:
                buffer = self._draw(chunk).tolist()
                drawn += chunk
                cursor = 0
            u1 = buffer[cursor]
            cursor += 1
            used += 1
            if not 1e-7 < u1 < 0.9999999:
                continue
            if cursor == chunk:
                buffer = self._draw(chunk).tolist()
                drawn += chunk
                cursor = 0
            u2 = 1.0 - buffer[cursor]
            cursor += 1
            used += 1
            v = _log(u1 / (1.0 - u1)) / ainv
            x = alpha * _exp(v)
            z = u1 * u1 * u2
            r = bbb + ccc * v - x
            if r + _SG_MAGICCONST - 4.5 * z >= 0.0 or r >= _log(z):
                out.append(x * beta)
        if used < drawn:
            self._rewind(state, used)
        return out


def uniform_block(rng: random.Random, n: int) -> list[float]:
    """The next *n* uniforms of *rng* — exactly ``n`` ``rng.random()`` calls."""

    return BlockSampler(rng).uniforms(n)


def normal_block(rng: random.Random, mu: float, sigma: float, n: int) -> list[float]:
    """The next *n* draws of ``rng.normalvariate(mu, sigma)``, vectorized."""

    return BlockSampler(rng).normals(mu, sigma, n)


def lognorm_block(rng: random.Random, mu: float, sigma: float, n: int) -> list[float]:
    """The next *n* draws of ``rng.lognormvariate(mu, sigma)``, vectorized."""

    return BlockSampler(rng).lognorms(mu, sigma, n)


def gamma_block(rng: random.Random, alpha: float, beta: float, n: int) -> list[float]:
    """The next *n* draws of ``rng.gammavariate(alpha, beta)``, vectorized."""

    return BlockSampler(rng).gammas(alpha, beta, n)

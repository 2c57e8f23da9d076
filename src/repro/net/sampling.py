"""Exact-stream block sampling: vectorized draws, byte-identical results.

The kernel's byte-identity contract says a seeded run must produce the same
results no matter which performance features are enabled.  Batched sampling
therefore cannot merely be *statistically* equivalent to scalar sampling — a
block of ``n`` draws must return the exact floats that ``n`` scalar calls on
the same ``random.Random`` would have returned, and must leave the generator
in the exact state those calls would have left it in.

This is achievable because CPython's ``random.Random`` and NumPy's legacy
``RandomState`` share the same core generator (MT19937) *and* the same
double-extraction recipe (two 32-bit words → one 53-bit double), so a
``random.Random`` state can be transplanted into a ``RandomState``, a block
of uniforms drawn vectorized, and the advanced state transplanted back —
bit-for-bit the stream the scalar ``random()`` method would have produced.
On top of that uniform stream we re-implement the distribution algorithms of
``random.py`` (Kinderman–Monahan for normals, Cheng's GB for gammas) with one
hard rule: **every transcendental that feeds an output value is computed with
scalar ``math`` calls**, because NumPy's SIMD ``log``/``exp`` may differ from
libm by one ulp on a small fraction of inputs.  Vectorized transcendentals
are used only for accept/reject *decisions*, and any decision within a guard
band of the boundary is re-checked with ``math.log`` — so a one-ulp
discrepancy can never flip an accept into a reject.

State transplants cost tens of microseconds each (the 624-word MT key
crosses the C boundary four times), so :class:`BlockSampler` keeps its NumPy
mirror *persistent*: consecutive blocks drawn through the same sampler skip
the transplant-in entirely (a cheap state comparison detects out-of-band
scalar draws and resynchronizes).  Use one long-lived sampler per hot
stream; the module-level ``*_block`` functions construct an ephemeral one
and are meant for occasional or test use.

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
    "have_numpy",
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


def have_numpy() -> bool:
    """True when NumPy can be imported (the vectorized path exists)."""

    return _numpy() is not None

# Constants from CPython's random.py (identical across 3.10–3.13).
_NV_MAGICCONST = 4 * _exp(-0.5) / _sqrt(2.0)
_LOG4 = _log(4.0)
_SG_MAGICCONST = 1.0 + _log(4.5)

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
    """A persistent vectorized view of one ``random.Random``'s draw stream.

    Every method returns exactly what the same number of scalar calls on the
    wrapped generator would have returned, and leaves the generator in the
    state those calls would have left it in — so scalar and block draws may
    be interleaved freely.
    """

    __slots__ = ("_rng", "_bitgen", "_mirror", "_expected")

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._bitgen = None
        self._mirror = None
        self._expected: tuple | None = None

    # -- mirror plumbing ------------------------------------------------

    def _begin(self) -> tuple:
        """Position the NumPy mirror at the wrapped rng's current state."""

        state = self._rng.getstate()
        if self._mirror is None:
            self._bitgen = _np.random.MT19937()
            self._mirror = _np.random.RandomState(self._bitgen)
            self._expected = None
        if state != self._expected:
            self._seek(state, 0)
        return state

    def _seek(self, state: tuple, consumed: int) -> None:
        """Point the mirror *consumed* uniforms past *state*."""

        internal = state[1]
        self._bitgen.state = {
            "bit_generator": "MT19937",
            "state": {
                "key": _np.array(internal[:-1], dtype=_np.uint32),
                "pos": internal[-1],
            },
        }
        if consumed:
            self._mirror.random_sample(consumed)

    def _commit(self, state: tuple) -> None:
        """Write the mirror's position back into the wrapped rng."""

        mt = self._bitgen.state["state"]
        expected = (
            state[0],
            tuple(mt["key"].tolist()) + (int(mt["pos"]),),
            state[2],
        )
        self._rng.setstate(expected)
        self._expected = expected

    # -- distributions ---------------------------------------------------

    def uniforms(self, n: int) -> list[float]:
        """The next *n* uniforms — exactly ``[rng.random() for _ in ...]``."""

        if n <= 0:
            return []
        if not batching_enabled():
            scalar = self._rng.random
            return [scalar() for _ in range(n)]
        state = self._begin()
        block = self._mirror.random_sample(n)
        self._commit(state)
        return block.tolist()

    def normals(self, mu: float, sigma: float, n: int) -> list[float]:
        """The next *n* draws of ``rng.normalvariate(mu, sigma)``."""

        if n <= 0:
            return []
        if not batching_enabled():
            scalar = self._rng.normalvariate
            return [scalar(mu, sigma) for _ in range(n)]
        state = self._begin()
        out: list[float] = []
        consumed = 0
        overdrawn = False
        while len(out) < n:
            need = n - len(out)
            # Kinderman–Monahan accepts ~73% of candidate pairs; oversample
            # so one chunk usually suffices.
            pairs = max(64, need + (need >> 1) + 16)
            u = self._mirror.random_sample(2 * pairs)
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
            accepted = _np.flatnonzero(ok)
            if len(accepted) >= need:
                accepted = accepted[:need]
                used_pairs = int(accepted[-1]) + 1
                consumed += 2 * used_pairs
                overdrawn = used_pairs < pairs
                out.extend((mu + z[accepted] * sigma).tolist())
                break
            consumed += 2 * pairs
            out.extend((mu + z[accepted] * sigma).tolist())
        if overdrawn:
            # The final chunk was drawn speculatively past the n-th accept;
            # rewind the mirror to the exact consumption point.
            self._seek(state, consumed)
        self._commit(state)
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
        state = self._begin()
        buffer = self._mirror.random_sample(max(256, 2 * n + (n >> 1) + 16))
        drawn = len(buffer)
        cursor = 0
        ainv = _sqrt(2.0 * alpha - 1.0)
        bbb = alpha - _LOG4
        ccc = alpha + ainv
        out: list[float] = []
        used = 0
        while len(out) < n:
            if cursor == len(buffer):
                buffer = self._mirror.random_sample(len(buffer))
                drawn += len(buffer)
                cursor = 0
            u1 = float(buffer[cursor])
            cursor += 1
            used += 1
            if not 1e-7 < u1 < 0.9999999:
                continue
            if cursor == len(buffer):
                buffer = self._mirror.random_sample(len(buffer))
                drawn += len(buffer)
                cursor = 0
            u2 = 1.0 - float(buffer[cursor])
            cursor += 1
            used += 1
            v = _log(u1 / (1.0 - u1)) / ainv
            x = alpha * _exp(v)
            z = u1 * u1 * u2
            r = bbb + ccc * v - x
            if r + _SG_MAGICCONST - 4.5 * z >= 0.0 or r >= _log(z):
                out.append(x * beta)
        if used < drawn:
            self._seek(state, used)
        self._commit(state)
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

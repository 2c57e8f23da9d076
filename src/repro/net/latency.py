"""The paper's latency model.

Section VIII-A: latencies were fit from CAIDA / RIPE Atlas / AWS / Azure and
Ethereum measurements over nine regions, with

* intra-regional latency ~ InverseGamma(shape α = 2.5, scale β = 14)
  ("resulting in a mean latency of 7 ms"), and
* inter-regional latency ~ Normal(µ = 90 ms, σ² = 20).

We implement exactly those distributions.  (For the stated parameters the
analytic inverse-gamma mean is β/(α−1) ≈ 9.3 ms rather than 7 ms; we keep the
published α/β since the comparison between protocols — the thing the paper
measures — is invariant to that 2 ms discrepancy.)

Inverse-gamma sampling uses the reciprocal relationship: if
``X ~ Gamma(shape=α, scale=1/β)`` then ``1/X ~ InvGamma(α, β)``, so we draw
``gammavariate(α, 1/β)`` and return its reciprocal.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from ..types import Region
from ..utils.validation import require_positive

__all__ = ["LatencyParameters", "LatencyModel", "MIN_LATENCY_MS"]

# Floor applied to every sample: physical links never deliver in < 0.1 ms.
MIN_LATENCY_MS = 0.1

# Largest |z| CPython's normalvariate can return (see inter_floor_ms), with a
# relative margin for the rounding of its acceptance test.
_NORMAL_Z_MAX = 2.0 * math.sqrt(53.0 * math.log(2.0)) * (1.0 + 1e-9)


@dataclass(frozen=True, slots=True)
class LatencyParameters:
    """Distribution parameters, defaulting to the paper's published fit."""

    intra_shape: float = 2.5
    intra_scale: float = 14.0
    inter_mean: float = 90.0
    inter_variance: float = 20.0

    def __post_init__(self) -> None:
        require_positive(self.intra_shape, "intra_shape")
        require_positive(self.intra_scale, "intra_scale")
        require_positive(self.inter_mean, "inter_mean")
        require_positive(self.inter_variance, "inter_variance")
        if self.intra_shape <= 1.0:
            # The mean of an inverse gamma is only finite for shape > 1.
            raise ValueError("intra_shape must exceed 1 for a finite mean latency")


class LatencyModel:
    """Samples link latencies between (region, region) pairs."""

    def __init__(
        self,
        parameters: LatencyParameters | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.parameters = parameters if parameters is not None else LatencyParameters()
        self._rng = rng if rng is not None else random.Random(0)
        self._pair_rng = random.Random(0)

    def sample(self, src: Region, dst: Region) -> float:
        """One latency draw in milliseconds for a link from *src* to *dst*."""

        if src == dst:
            return self._sample_intra(self._rng)
        return self._sample_inter(self._rng)

    def sample_pair(self, seed: int, u: int, v: int, src: Region, dst: Region) -> float:
        """A *stable* latency draw for the unordered node pair ``(u, v)``.

        The draw depends only on ``(seed, {u, v})``, never on query order, so
        overlay construction and the transport layer agree on the latency of
        every pair without sharing mutable state.
        It re-seeds one generator with the bytes ``derive_rng(seed, "pair",
        lo, hi)`` hashes instead of allocating one per pair.
        """

        lo, hi = (u, v) if u < v else (v, u)
        digest = hashlib.sha256(f"{seed}/pair/{lo}/{hi}".encode()).digest()
        rng = self._pair_rng
        rng.seed(int.from_bytes(digest[:8], "big"))
        if src == dst:
            return self._sample_intra(rng)
        return self._sample_inter(rng)

    @property
    def inter_floor_ms(self) -> float:
        """A lower bound on every inter-regional draw :meth:`_sample_inter`
        can return, so callers can rule pairs out without drawing them.

        CPython's ``normalvariate`` is Kinderman–Monahan: it draws
        ``u1 = random()`` and ``u2 = 1 - random()``, sets
        ``z = 4·e^{-1/2}/√2 · (u1 - 1/2) / u2`` and accepts only if
        ``z²/4 <= -ln(u2)``.  ``random()`` is a multiple of 2⁻⁵³ below 1, so
        ``u2 >= 2⁻⁵³`` and every accepted ``|z| <= 2·√(53 ln 2) ≈ 12.12``.
        With the paper's µ = 90 ms, σ² = 20 that is ≈ 35.8 ms, against an
        intra-regional median of ≈ 7 ms.
        """

        p = self.parameters
        return max(
            MIN_LATENCY_MS, p.inter_mean - _NORMAL_Z_MAX * math.sqrt(p.inter_variance)
        )

    def expected(self, src: Region, dst: Region) -> float:
        """The distribution mean — used as the deterministic edge label
        ``lat(e)`` during overlay construction."""

        p = self.parameters
        if src == dst:
            return p.intra_scale / (p.intra_shape - 1.0)
        return p.inter_mean

    def _sample_intra(self, rng: random.Random) -> float:
        p = self.parameters
        # 1 / Gamma(shape, rate=scale) ~ InvGamma(shape, scale).
        gamma_draw = rng.gammavariate(p.intra_shape, 1.0 / p.intra_scale)
        if gamma_draw <= 0.0:  # pragma: no cover - gammavariate is positive
            return MIN_LATENCY_MS
        return max(MIN_LATENCY_MS, 1.0 / gamma_draw)

    def _sample_inter(self, rng: random.Random) -> float:
        p = self.parameters
        draw = rng.normalvariate(p.inter_mean, math.sqrt(p.inter_variance))
        return max(MIN_LATENCY_MS, draw)

"""Constant-memory telemetry primitives: quantile sketches and windowed counters.

Every per-transaction list in the measurement stack becomes a memory bug the
moment a run injects 10⁶ transactions, so sustained-load telemetry folds each
observation into one of three fixed-size structures the instant it happens:

* :class:`QuantileSketch` — a deterministic Munro–Paterson-style compacting
  sketch with a *provable, self-reported* rank-error bound.  Values live in
  levelled buffers; a full buffer is sorted and halved (every other element
  survives with doubled weight).  Each compaction of weight-``w`` items
  perturbs any rank query by at most ``w``, and the sketch accumulates that
  worst case in :meth:`rank_error` — so callers (and the property tests) can
  assert ``|estimated rank − true rank| <= rank_error() * count`` as a hard
  invariant, not a statistical hope.  Sketches merge, and merging preserves
  the bound.
* :class:`ReservoirSketch` — classic seeded uniform reservoir sampling
  (Algorithm R).  Count, sum and mean are exact; percentiles are computed
  over the retained sample.  Cheaper per observation than the compacting
  sketch but only statistically accurate, so the regression gates use
  :class:`QuantileSketch` and the reservoir serves exploratory views.
* :class:`WindowedCounter` / :class:`WindowedQuantiles` — per-time-bucket
  aggregation for trajectory reporting (goodput over time, fee percentiles
  over time).  State is O(number of windows), i.e. bounded by the run's
  duration over the window size, never by its transaction count.

The module is deliberately dependency-free (pure stdlib, no module-level
``repro`` imports) so it can sit underneath :mod:`repro.net.stats` without
cycles; the ``percentile`` methods reach back into it at call time for the
one shared interpolation step.

>>> sketch = QuantileSketch(capacity=64)
>>> for value in range(1000):
...     sketch.observe(float(value))
>>> sketch.count
1000
>>> abs(sketch.percentile(50) - 499.5) <= sketch.rank_error() * 1000
True
"""

from __future__ import annotations

import random

__all__ = [
    "QuantileSketch",
    "ReservoirSketch",
    "WindowedCounter",
    "WindowedQuantiles",
]


class QuantileSketch:
    """Deterministic compacting quantile sketch with a hard rank-error bound.

    ``capacity`` is the per-level buffer size (rounded up to an even number).
    Memory is O(capacity × log(n / capacity)); a 512-slot sketch summarizes
    10⁶ observations in ~11 levels ≈ 6k floats with a worst-case rank error
    around 1% (and typically far better — the bound assumes every compaction
    perturbs the queried rank maximally and in the same direction).
    """

    __slots__ = ("capacity", "_levels", "_count", "_sum", "_min", "_max", "_shift")

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self.capacity = capacity + (capacity % 2)
        # _levels[l] holds values of weight 2**l; level 0 is the insert buffer.
        self._levels: list[list[float]] = [[]]
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        # Accumulated worst-case rank perturbation across all compactions.
        self._shift = 0.0

    # -- ingest -----------------------------------------------------------

    def observe(self, value: float) -> None:
        value = float(value)
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        buffer = self._levels[0]
        buffer.append(value)
        if len(buffer) >= self.capacity:
            self._compact(0)

    def _compact(self, level: int) -> None:
        """Halve level *level* into *level + 1* (cascading when it fills)."""

        buffer = self._levels[level]
        buffer.sort()
        # Deterministic halving: the odd-indexed survivors of the sorted
        # buffer, with doubled weight.  The cumulative weight below any
        # threshold moves by at most one item-weight per compaction (exact at
        # even positions, off by `weight` at odd ones) — the classical
        # Munro–Paterson bound this sketch accumulates in _shift.
        survivors = buffer[1::2]
        weight = 1 << level
        self._shift += weight
        del buffer[:]
        if level + 1 == len(self._levels):
            self._levels.append([])
        upper = self._levels[level + 1]
        upper.extend(survivors)
        if len(upper) >= self.capacity:
            self._compact(level + 1)

    def merge(self, other: "QuantileSketch") -> None:
        """Fold *other* into this sketch.

        The combined rank-error bound is (at most) the sum of both sketches'
        accumulated bounds plus whatever further compactions the merge
        triggers — :meth:`rank_error` keeps reporting the true invariant, so
        merging in any association order stays within the reported bound
        (associativity up to the documented error, pinned by the property
        tests in ``tests/property/test_population_properties.py``).
        """

        self._count += other._count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        self._shift += other._shift
        for level, values in enumerate(other._levels):
            if not values:
                continue
            while level >= len(self._levels):
                self._levels.append([])
            target = self._levels[level]
            target.extend(values)
            if len(target) >= self.capacity:
                self._compact(level)

    # -- reading ----------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        if not self._count:
            raise ValueError("sketch is empty")
        return self._sum / self._count

    @property
    def min(self) -> float:
        if not self._count:
            raise ValueError("sketch is empty")
        return self._min

    @property
    def max(self) -> float:
        if not self._count:
            raise ValueError("sketch is empty")
        return self._max

    def rank_error(self) -> float:
        """The self-reported worst-case rank error, as a fraction of count.

        Hard guarantee: for any ``pct``, the returned
        :meth:`percentile` value's true rank in the observed population lies
        within ``rank_error() * count`` ranks of the requested one (plus one
        rank of interpolation slack).  Zero until the first compaction — an
        under-capacity sketch is exact.
        """

        if not self._count:
            return 0.0
        return min(1.0, self._shift / self._count)

    def _weighted(self) -> list[tuple[float, int]]:
        pairs: list[tuple[float, int]] = []
        for level, values in enumerate(self._levels):
            weight = 1 << level
            pairs.extend((value, weight) for value in values)
        pairs.sort()
        return pairs

    def percentile(self, pct: float) -> float:
        """Estimate the *pct*-th percentile of everything observed.

        Uses the same rank convention as :func:`repro.net.stats.percentile`
        (rank ``pct/100 * (n-1)`` over the sorted population) so an
        under-capacity sketch returns byte-identical answers to the exact
        implementation.
        """

        from .stats import interpolate

        if not 0 <= pct <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {pct}")
        if not self._count:
            raise ValueError("cannot take a percentile of an empty sketch")
        pairs = self._weighted()
        target = (pct / 100.0) * (self._count - 1)
        cumulative = 0.0
        for index, (value, weight) in enumerate(pairs):
            # The item covers ranks [cumulative, cumulative + weight).
            if cumulative + weight > target:
                if weight == 1 and cumulative < target and index + 1 < len(pairs):
                    # Exact-regime interpolation between adjacent items (by
                    # position, not by value — duplicates must interpolate to
                    # themselves to match the exact implementation).
                    return interpolate(value, pairs[index + 1][0], target - cumulative)
                return value
            cumulative += weight
        return pairs[-1][0]

    def summary(self) -> dict[str, float | int]:
        """JSON-ready digest (count, mean, p50/p95/p99, bound)."""

        if not self._count:
            return {"count": 0}
        return {
            "count": self._count,
            "mean": self.mean,
            "min": self._min,
            "max": self._max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "rank_error": self.rank_error(),
        }


class ReservoirSketch:
    """Seeded uniform reservoir (Algorithm R) with exact count/sum/mean.

    The reservoir's randomness comes from its own ``random.Random(seed)``
    stream, never from a shared generator, so installing one in a simulation
    perturbs nothing and replays identically.
    """

    __slots__ = ("capacity", "_rng", "_sample", "_count", "_sum")

    def __init__(self, capacity: int = 1024, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rng = random.Random(seed)
        self._sample: list[float] = []
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self._count += 1
        self._sum += value
        if len(self._sample) < self.capacity:
            self._sample.append(value)
            return
        slot = self._rng.randrange(self._count)
        if slot < self.capacity:
            self._sample[slot] = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        if not self._count:
            raise ValueError("reservoir is empty")
        return self._sum / self._count

    def sample(self) -> list[float]:
        """A copy of the retained uniform sample."""

        return list(self._sample)

    def percentile(self, pct: float) -> float:
        """Percentile of the retained sample (exact while under capacity)."""

        from .stats import percentile

        return percentile(self._sample, pct)


class WindowedCounter:
    """Per-time-window counts: O(windows) state, never O(observations).

    >>> counter = WindowedCounter(window_ms=1000.0)
    >>> for t in (0.0, 100.0, 999.0, 1000.0, 2500.0):
    ...     counter.add(t)
    >>> counter.series()
    [(0.0, 3.0), (1000.0, 1.0), (2000.0, 1.0)]
    """

    __slots__ = ("window_ms", "_buckets")

    def __init__(self, window_ms: float) -> None:
        if window_ms <= 0:
            raise ValueError(f"window_ms must be positive, got {window_ms}")
        self.window_ms = float(window_ms)
        self._buckets: dict[int, float] = {}

    def add(self, now_ms: float, amount: float = 1.0) -> None:
        bucket = int(now_ms // self.window_ms)
        self._buckets[bucket] = self._buckets.get(bucket, 0.0) + amount

    @property
    def total(self) -> float:
        return sum(self._buckets.values())

    def series(self) -> list[tuple[float, float]]:
        """``(window start ms, count)`` pairs in time order (gaps omitted)."""

        return [
            (bucket * self.window_ms, self._buckets[bucket])
            for bucket in sorted(self._buckets)
        ]

    def rate_series(self, per_ms: float = 1000.0) -> list[tuple[float, float]]:
        """The series as rates (per *per_ms* of simulated time)."""

        scale = per_ms / self.window_ms
        return [(start, count * scale) for start, count in self.series()]


class WindowedQuantiles:
    """One small :class:`QuantileSketch` per time window (trajectories).

    Used for the fee-percentile and tail-latency trajectories of sustained
    runs: per-window state is one ``capacity``-slot sketch, total state is
    O(windows × capacity) — bounded by duration, independent of load.
    """

    __slots__ = ("window_ms", "capacity", "_windows")

    def __init__(self, window_ms: float, capacity: int = 128) -> None:
        if window_ms <= 0:
            raise ValueError(f"window_ms must be positive, got {window_ms}")
        self.window_ms = float(window_ms)
        self.capacity = capacity
        self._windows: dict[int, QuantileSketch] = {}

    def observe(self, now_ms: float, value: float) -> None:
        bucket = int(now_ms // self.window_ms)
        sketch = self._windows.get(bucket)
        if sketch is None:
            sketch = self._windows[bucket] = QuantileSketch(self.capacity)
        sketch.observe(value)

    def __len__(self) -> int:
        return len(self._windows)

    def merged(self) -> QuantileSketch:
        """All windows folded into one whole-run sketch."""

        out = QuantileSketch(self.capacity)
        for bucket in sorted(self._windows):
            out.merge(self._windows[bucket])
        return out

    def series(self, percentiles: tuple[float, ...] = (50.0, 95.0)) -> list[dict]:
        """Per-window digests: start time, count, requested percentiles."""

        rows: list[dict] = []
        for bucket in sorted(self._windows):
            sketch = self._windows[bucket]
            row: dict = {
                "start_ms": bucket * self.window_ms,
                "count": sketch.count,
            }
            for pct in percentiles:
                row[f"p{pct:g}"] = sketch.percentile(pct)
            rows.append(row)
        return rows


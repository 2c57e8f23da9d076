"""Property tests for the population subsystem (ISSUE satellite).

Three invariant families over random seeds and adversarial inputs:

* **Sketch soundness** — every :class:`QuantileSketch` percentile lands
  within the sketch's *self-reported* ``rank_error()`` of the exact
  :func:`repro.net.stats.percentile` answer, on adversarial distributions
  (sorted, reversed, constant, heavy-tailed, duplicate-ridden).  This is the
  documented hard bound, not a statistical hope.
* **Merge associativity** — merging partial sketches in any grouping stays
  within the merged sketch's reported bound of the exact answer, so
  distributed aggregation (per-window, per-node) is order-insensitive up to
  the documented error.
* **Replayability** — a :class:`ClientPopulation` is a pure function of
  ``(seed, params)``: independently constructed populations yield identical
  schedules, and longer horizons extend (never rewrite) shorter ones.
"""

import bisect
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.sketch import QuantileSketch, ReservoirSketch
from repro.net.stats import percentile
from repro.population import ClientPopulation, PopulationConfig

seeds = st.integers(min_value=0, max_value=10_000)
capacities = st.sampled_from([8, 32, 64, 256])
percentiles = st.floats(min_value=0.0, max_value=100.0)


def adversarial_values(shape: str, n: int, seed: int) -> list[float]:
    rng = random.Random(seed)
    if shape == "sorted":
        return [float(v) for v in range(n)]
    if shape == "reversed":
        return [float(v) for v in range(n, 0, -1)]
    if shape == "constant":
        return [3.25] * n
    if shape == "duplicates":
        return [float(rng.randrange(5)) for _ in range(n)]
    if shape == "lognormal":
        return [rng.lognormvariate(0.0, 2.0) for _ in range(n)]
    raise AssertionError(shape)


SHAPES = ("sorted", "reversed", "constant", "duplicates", "lognormal")


def assert_within_bound(sketch: QuantileSketch, values: list[float], pct: float):
    """The documented invariant: estimated rank within rank_error()*n + 1."""

    estimate = sketch.percentile(pct)
    ordered = sorted(values)
    n = len(ordered)
    target_rank = (pct / 100.0) * (n - 1)
    # The estimate's plausible rank range in the exact population.
    lo = bisect.bisect_left(ordered, estimate)
    hi = bisect.bisect_right(ordered, estimate)
    tolerance = sketch.rank_error() * n + 1
    # Interpolated estimates fall between two ranks; widen by one.
    distance = max(0.0, lo - target_rank - 1, target_rank - hi)
    assert distance <= tolerance, (
        f"p{pct}: estimate {estimate} sits {distance} ranks from target "
        f"{target_rank}, bound was {tolerance}"
    )


@given(
    seed=seeds,
    capacity=capacities,
    shape=st.sampled_from(SHAPES),
    n=st.integers(min_value=1, max_value=4_000),
    pct=percentiles,
)
# A constant population whose two weight-1 neighbours interpolate one ulp
# *above* every sample unless the shared `interpolate` step clamps: the
# estimate then outranks all 53 values ("51.9 ranks from target, bound 17").
@example(seed=0, capacity=8, shape="constant", n=53, pct=0.125)
@settings(max_examples=60, deadline=None)
def test_sketch_percentile_within_reported_rank_error(seed, capacity, shape, n, pct):
    values = adversarial_values(shape, n, seed)
    sketch = QuantileSketch(capacity)
    for value in values:
        sketch.observe(value)
    assert sketch.count == n
    assert_within_bound(sketch, values, pct)


@given(seed=seeds, capacity=capacities, pct=percentiles)
@settings(max_examples=30, deadline=None)
def test_under_capacity_sketch_is_exact(seed, capacity, pct):
    rng = random.Random(seed)
    values = [rng.uniform(-100, 100) for _ in range(capacity - 1)]
    sketch = QuantileSketch(capacity)
    for value in values:
        sketch.observe(value)
    assert sketch.rank_error() == 0.0
    assert abs(sketch.percentile(pct) - percentile(values, pct)) < 1e-9


def test_constant_population_percentiles_equal_the_exact_path():
    # The docstring's promise, literally: under capacity the sketch and
    # net.stats.percentile return the same float (same interpolation step).
    for n in (2, 3, 7):
        sketch = QuantileSketch(8)
        for _ in range(n):
            sketch.observe(3.25)
        for pct in range(101):
            assert sketch.percentile(pct) == percentile([3.25] * n, pct) == 3.25


@given(
    seed=seeds,
    capacity=capacities,
    shape=st.sampled_from(SHAPES),
    splits=st.integers(min_value=2, max_value=5),
    pct=percentiles,
)
@settings(max_examples=40, deadline=None)
def test_merge_stays_within_bound_in_any_association(seed, capacity, shape, splits, pct):
    values = adversarial_values(shape, 2_000, seed)
    chunks = [values[i::splits] for i in range(splits)]
    parts = []
    for chunk in chunks:
        sketch = QuantileSketch(capacity)
        for value in chunk:
            sketch.observe(value)
        parts.append(sketch)
    # Left-fold association.
    left = QuantileSketch(capacity)
    for part in parts:
        left.merge(part)
    assert left.count == len(values)
    assert_within_bound(left, values, pct)
    # A different association: pairwise, then fold the pair-sums.
    rebuilt = []
    for chunk in chunks:
        sketch = QuantileSketch(capacity)
        for value in chunk:
            sketch.observe(value)
        rebuilt.append(sketch)
    while len(rebuilt) > 1:
        a = rebuilt.pop()
        rebuilt[-1].merge(a)
    assert rebuilt[0].count == len(values)
    assert_within_bound(rebuilt[0], values, pct)


@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_reservoir_replays_per_seed(seed):
    a, b = ReservoirSketch(capacity=16, seed=seed), ReservoirSketch(16, seed=seed)
    for value in range(500):
        a.observe(float(value))
        b.observe(float(value))
    assert a.sample() == b.sample()
    assert len(a.sample()) == 16


population_seeds = st.integers(min_value=0, max_value=500)
rates = st.floats(min_value=2.0, max_value=40.0)
skews = st.floats(min_value=0.0, max_value=1.5)


def _population(seed: float, rate: float, zipf_s: float) -> ClientPopulation:
    return ClientPopulation(
        PopulationConfig.for_offered_rate(
            rate,
            num_clients=50_000,
            num_nodes=8,
            seed=seed,
            session_duration_ms=3_000.0,
            zipf_s=zipf_s,
        )
    )


@given(seed=population_seeds, rate=rates, zipf_s=skews)
@settings(max_examples=25, deadline=None)
def test_population_schedules_replay_identically(seed, rate, zipf_s):
    a = _population(seed, rate, zipf_s)
    b = _population(seed, rate, zipf_s)
    first = list(a.events(4_000.0))
    assert first == list(b.events(4_000.0))
    # No hidden state: the same population iterates identically twice.
    assert first == list(a.events(4_000.0))


@given(seed=population_seeds, rate=rates)
@settings(max_examples=15, deadline=None)
def test_longer_horizons_extend_shorter_ones(seed, rate):
    population = _population(seed, rate, 1.1)
    short = list(population.events(2_000.0))
    long = list(population.events(5_000.0))
    assert long[: len(short)] == short
    times = [event.time_ms for event in long]
    assert times == sorted(times)
    assert all(0.0 <= t < 5_000.0 for t in times)

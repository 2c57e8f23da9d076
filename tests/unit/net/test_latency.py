"""Unit tests for the regional latency model."""

import math
import random
import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.latency import LatencyModel, LatencyParameters
from repro.types import ALL_REGIONS, Region
from repro.utils.rng import derive_rng

_TOP = 1.0 - 2.0**-53  # the largest value random() returns
_ULP = 2.0**-53  # random() returns multiples of this
_MAGIC = 4 * math.exp(-0.5) / math.sqrt(2.0)  # normalvariate's NV_MAGICCONST


class _Uniforms(random.Random):
    """A generator whose ``random()`` replays *values*, then 0.5 forever
    (u1 = u2 = 0.5 gives z = 0, which normalvariate always accepts)."""

    def __init__(self, values):
        super().__init__(0)
        self._values = list(values)
        self.used = 0

    def random(self):
        self.used += 1
        return self._values.pop(0) if self._values else 0.5


class TestParameters:
    def test_defaults_match_paper(self):
        parameters = LatencyParameters()
        assert parameters.intra_shape == 2.5
        assert parameters.intra_scale == 14.0
        assert parameters.inter_mean == 90.0
        assert parameters.inter_variance == 20.0

    def test_rejects_shape_below_one(self):
        with pytest.raises(ValueError):
            LatencyParameters(intra_shape=0.9)

    def test_rejects_non_positive(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            LatencyParameters(inter_mean=0)


class TestSampling:
    def test_intra_mean_matches_analytics(self):
        model = LatencyModel(rng=random.Random(0))
        samples = [
            model.sample(Region.FRANKFURT, Region.FRANKFURT) for _ in range(4000)
        ]
        # InvGamma(2.5, 14) has mean 14 / 1.5 = 9.33.
        assert statistics.mean(samples) == pytest.approx(9.33, rel=0.15)

    def test_inter_mean_matches_parameters(self):
        model = LatencyModel(rng=random.Random(0))
        samples = [model.sample(Region.FRANKFURT, Region.TOKYO) for _ in range(2000)]
        assert statistics.mean(samples) == pytest.approx(90.0, rel=0.03)

    def test_samples_positive(self):
        model = LatencyModel(rng=random.Random(1))
        for _ in range(500):
            assert model.sample(Region.OHIO, Region.OHIO) > 0
            assert model.sample(Region.OHIO, Region.LONDON) > 0

    def test_intra_faster_than_inter_on_average(self):
        model = LatencyModel(rng=random.Random(2))
        intra = [model.sample(Region.SYDNEY, Region.SYDNEY) for _ in range(500)]
        inter = [model.sample(Region.SYDNEY, Region.IRELAND) for _ in range(500)]
        assert statistics.mean(intra) < statistics.mean(inter)


class TestExpected:
    def test_expected_values(self):
        model = LatencyModel()
        assert model.expected(Region.TOKYO, Region.TOKYO) == pytest.approx(9.333, rel=1e-3)
        assert model.expected(Region.TOKYO, Region.LONDON) == 90.0


class TestPairSampling:
    def test_order_independent(self):
        model = LatencyModel()
        a = model.sample_pair(7, 3, 9, Region.TOKYO, Region.LONDON)
        b = model.sample_pair(7, 9, 3, Region.LONDON, Region.TOKYO)
        assert a == b

    def test_seed_dependent(self):
        model = LatencyModel()
        a = model.sample_pair(7, 3, 9, Region.TOKYO, Region.LONDON)
        b = model.sample_pair(8, 3, 9, Region.TOKYO, Region.LONDON)
        assert a != b

    def test_pair_dependent(self):
        model = LatencyModel()
        a = model.sample_pair(7, 3, 9, Region.TOKYO, Region.LONDON)
        b = model.sample_pair(7, 3, 10, Region.TOKYO, Region.LONDON)
        assert a != b


class TestInterFloor:
    def test_paper_value(self):
        assert LatencyModel().inter_floor_ms == pytest.approx(35.788, abs=1e-3)

    def test_clamped_to_the_physical_floor(self):
        wide = LatencyModel(LatencyParameters(inter_mean=10.0, inter_variance=400.0))
        assert wide.inter_floor_ms == 0.1

    def test_extreme_uniforms_respect_the_floor(self):
        """u2 = 1 - random() at its minimum 2**-53 admits the widest |z|;
        every accepted draw from the extreme u1 values stays above the floor."""

        model = LatencyModel()
        floor = model.inter_floor_ms
        offsets = [0.0, _TOP] + [0.5 + j * _ULP for j in range(-12, 13)]
        accepted = 0
        for u1 in offsets:
            rng = _Uniforms([u1, _TOP])
            value = model._sample_inter(rng)
            assert value >= floor
            accepted += rng.used == 2
        assert accepted == 15  # |z| = 1.7155·|j| is accepted for |j| <= 7

    @given(u2=st.floats(min_value=2.0**-53, max_value=1.0), side=st.sampled_from([-1, 1]))
    def test_draws_at_the_acceptance_edge_respect_the_floor(self, u2, side):
        """For any u2, the u1 that puts z on the acceptance boundary (and
        its neighbours one ulp either side) never goes under the floor."""

        model = LatencyModel()
        edge = side * 2.0 * math.sqrt(-math.log(u2)) * u2 / _MAGIC
        for step in (-1, 0, 1):
            u1 = min(_TOP, max(0.0, round((0.5 + edge) / _ULP + step) * _ULP))
            value = model._sample_inter(_Uniforms([u1, 1.0 - u2]))
            assert value >= model.inter_floor_ms


class TestPairSamplingMatchesDerivedStream:
    @given(
        seed=st.integers(min_value=0, max_value=2**40),
        u=st.integers(min_value=0, max_value=20_000),
        v=st.integers(min_value=0, max_value=20_000),
        src=st.sampled_from(ALL_REGIONS),
        dst=st.sampled_from(ALL_REGIONS),
    )
    def test_equals_a_fresh_derived_generator(self, seed, u, v, src, dst):
        model = LatencyModel()
        rng = derive_rng(seed, "pair", min(u, v), max(u, v))
        expected = model._sample_intra(rng) if src == dst else model._sample_inter(rng)
        assert model.sample_pair(seed, u, v, src, dst) == expected

"""Property-based tests (hypothesis) for exact-stream block sampling.

The contract under test (see ``repro.net.sampling``): a block of ``n`` draws
returns *bit-for-bit* the floats that ``n`` scalar calls on the same
``random.Random`` would have returned, and leaves the generator in the exact
state those calls would have left it in — so batched and scalar sampling are
interchangeable mid-stream without perturbing any seeded experiment.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.sampling import (
    BlockSampler,
    batching_enabled,
    gamma_block,
    lognorm_block,
    normal_block,
    uniform_block,
)

pytestmark = pytest.mark.skipif(
    not batching_enabled(), reason="NumPy unavailable: only the scalar path exists"
)

seeds = st.integers(min_value=0, max_value=2**32)
sizes = st.integers(min_value=0, max_value=300)
mus = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
sigmas = st.floats(min_value=1e-3, max_value=20.0, allow_nan=False)
# Cheng's-GB territory (alpha > 1) plus the scalar-fallback ranges around it.
alphas = st.floats(min_value=0.05, max_value=30.0, allow_nan=False)
betas = st.floats(min_value=1e-3, max_value=20.0, allow_nan=False)


class TestBlocksMatchScalarStreams:
    @given(seed=seeds, n=sizes)
    @settings(max_examples=80, deadline=None)
    def test_uniforms(self, seed, n):
        batched, scalar = random.Random(seed), random.Random(seed)
        assert uniform_block(batched, n) == [scalar.random() for _ in range(n)]
        assert batched.getstate() == scalar.getstate()

    @given(seed=seeds, n=sizes, mu=mus, sigma=sigmas)
    @settings(max_examples=80, deadline=None)
    def test_normals(self, seed, n, mu, sigma):
        batched, scalar = random.Random(seed), random.Random(seed)
        expected = [scalar.normalvariate(mu, sigma) for _ in range(n)]
        assert normal_block(batched, mu, sigma, n) == expected
        assert batched.getstate() == scalar.getstate()

    @given(seed=seeds, n=sizes, mu=mus, sigma=sigmas)
    @settings(max_examples=40, deadline=None)
    def test_lognorms(self, seed, n, mu, sigma):
        batched, scalar = random.Random(seed), random.Random(seed)
        expected = [scalar.lognormvariate(mu, sigma) for _ in range(n)]
        assert lognorm_block(batched, mu, sigma, n) == expected
        assert batched.getstate() == scalar.getstate()

    @given(seed=seeds, n=sizes, alpha=alphas, beta=betas)
    @settings(max_examples=80, deadline=None)
    def test_gammas(self, seed, n, alpha, beta):
        batched, scalar = random.Random(seed), random.Random(seed)
        expected = [scalar.gammavariate(alpha, beta) for _ in range(n)]
        assert gamma_block(batched, alpha, beta, n) == expected
        assert batched.getstate() == scalar.getstate()


class TestInterleaving:
    @given(
        seed=seeds,
        plan=st.lists(
            st.tuples(st.sampled_from("usng"), st.integers(min_value=0, max_value=40)),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_persistent_sampler_interleaves_with_scalar_draws(self, seed, plan):
        """One long-lived BlockSampler tracks a scalar twin through any mix of
        block draws and out-of-band scalar draws on the wrapped rng."""

        batched, scalar = random.Random(seed), random.Random(seed)
        sampler = BlockSampler(batched)
        for kind, n in plan:
            if kind == "u":
                assert sampler.uniforms(n) == [scalar.random() for _ in range(n)]
            elif kind == "n":
                expected = [scalar.normalvariate(1.0, 0.5) for _ in range(n)]
                assert sampler.normals(1.0, 0.5, n) == expected
            elif kind == "g":
                expected = [scalar.gammavariate(2.2, 0.4) for _ in range(n)]
                assert sampler.gammas(2.2, 0.4, n) == expected
            else:
                # Out-of-band scalar draw on the wrapped rng: the next block
                # must start from the moved state.
                assert batched.random() == scalar.random()
            assert batched.getstate() == scalar.getstate()

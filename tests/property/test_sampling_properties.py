"""Property-based tests (hypothesis) for exact-stream block sampling.

The contract under test (see ``repro.net.sampling``): a block of ``n`` draws
returns *bit-for-bit* the floats that ``n`` scalar calls on the same
``random.Random`` would have returned, and leaves the generator in the exact
state those calls would have left it in — so block and scalar sampling are
interchangeable mid-stream without perturbing any seeded experiment.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.sampling import BlockSampler

seeds = st.integers(min_value=0, max_value=2**32)
sizes = st.integers(min_value=0, max_value=300)
mus = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
sigmas = st.floats(min_value=1e-3, max_value=20.0, allow_nan=False)
# All three of gammavariate's algorithms: alpha < 1, alpha == 1, alpha > 1.
alphas = st.floats(min_value=0.05, max_value=30.0, allow_nan=False)
betas = st.floats(min_value=1e-3, max_value=20.0, allow_nan=False)


class CountingRandom(random.Random):
    """A ``random.Random`` that counts the chunks a block draws."""

    chunks = 0

    def getstate(self):
        self.chunks += 1
        return super().getstate()


def assert_normals_match(seed: int, mu: float, sigma: float, n: int) -> int:
    """Check one block of *n* normals; return how many chunks it drew."""

    block, scalar = CountingRandom(seed), random.Random(seed)
    expected = [scalar.normalvariate(mu, sigma) for _ in range(n)]
    assert BlockSampler(block).normals(mu, sigma, n) == expected
    assert block.getstate() == scalar.getstate()
    return block.chunks - 1  # the getstate() just above


class TestBlocksMatchScalarStreams:
    @given(seed=seeds, n=sizes, mu=mus, sigma=sigmas)
    @settings(max_examples=80, deadline=None)
    def test_normals(self, seed, n, mu, sigma):
        assert_normals_match(seed, mu, sigma, n)

    @given(seed=seeds, n=sizes, alpha=alphas, beta=betas)
    @settings(max_examples=80, deadline=None)
    def test_gammas(self, seed, n, alpha, beta):
        block, scalar = random.Random(seed), random.Random(seed)
        expected = [scalar.gammavariate(alpha, beta) for _ in range(n)]
        assert BlockSampler(block).gammas(alpha, beta, n) == expected
        assert block.getstate() == scalar.getstate()

    def test_empty_and_single_draws(self):
        assert assert_normals_match(3, 0.0, 1.0, 0) == 0
        assert assert_normals_match(3, 0.0, 1.0, 1) == 1
        rng = random.Random(3)
        assert BlockSampler(rng).gammas(2.5, 1.0, 0) == []
        assert rng.getstate() == random.Random(3).getstate()

    def test_a_short_first_chunk_is_topped_up(self):
        # ~73 % of 1,365 candidate pairs fall short of 1,024 accepts.
        assert assert_normals_match(11, 0.0, 1.0, 1024) == 2


class TestInterleaving:
    @given(
        seed=seeds,
        plan=st.lists(
            st.tuples(st.sampled_from("nsg"), st.integers(min_value=0, max_value=40)),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_persistent_sampler_interleaves_with_scalar_draws(self, seed, plan):
        """One long-lived BlockSampler tracks a scalar twin through any mix of
        block draws and out-of-band scalar draws on the wrapped rng."""

        block, scalar = random.Random(seed), random.Random(seed)
        sampler = BlockSampler(block)
        for kind, n in plan:
            if kind == "n":
                expected = [scalar.normalvariate(1.0, 0.5) for _ in range(n)]
                assert sampler.normals(1.0, 0.5, n) == expected
            elif kind == "g":
                expected = [scalar.gammavariate(2.2, 0.4) for _ in range(n)]
                assert sampler.gammas(2.2, 0.4, n) == expected
            else:
                # Out-of-band scalar draw on the wrapped rng: the next block
                # must start from the moved state.
                assert block.random() == scalar.random()
            assert block.getstate() == scalar.getstate()

    def test_a_long_jitter_stream_interleaved_with_scalar_draws(self):
        """10⁵ normals in transport-sized blocks, a scalar draw between
        blocks: every value and the final state equal the scalar twin's."""

        block, scalar = random.Random(2024), random.Random(2024)
        sampler = BlockSampler(block)
        drawn = 0
        while drawn < 100_000:
            n = min(1024, 100_000 - drawn)
            expected = [scalar.normalvariate(0.0, 1.0) for _ in range(n)]
            assert sampler.normals(0.0, 1.0, n) == expected
            assert block.random() == scalar.random()
            drawn += n
        assert block.getstate() == scalar.getstate()

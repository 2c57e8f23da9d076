"""Micro-benchmarks: crypto primitives, overlay construction, encodings.

These are conventional pytest-benchmark measurements (ops/sec) for the
building blocks, including the paper's "computing the overlays took less
than 15 s" setup claim at our scale.
"""

import random
import time

from conftest import report

from repro.crypto.backend import FastCryptoBackend
from repro.crypto.group import default_group, toy_group
from repro.crypto.schnorr import schnorr_keygen, schnorr_sign, schnorr_verify
from repro.crypto.threshold import combine_partials, threshold_keygen
from repro.net.topology import generate_physical_network
from repro.overlay.encoding import decode_overlay, encode_overlay
from repro.overlay.robust_tree import build_overlay_family


class TestCryptoMicro:
    def test_schnorr_sign_2048bit(self, benchmark):
        group = default_group()
        rng = random.Random(0)
        secret, _public = schnorr_keygen(group, rng)
        benchmark(lambda: schnorr_sign(group, secret, b"m" * 32, rng))

    def test_schnorr_verify_2048bit(self, benchmark):
        group = default_group()
        rng = random.Random(0)
        secret, public = schnorr_keygen(group, rng)
        signature = schnorr_sign(group, secret, b"m" * 32, rng)
        assert benchmark(lambda: schnorr_verify(group, public, b"m" * 32, signature))

    def test_threshold_partial_and_combine(self, benchmark):
        group = toy_group()
        rng = random.Random(0)
        public, signers = threshold_keygen(group, 3, 4, rng)

        def mint():
            partials = [s.sign(b"binding", rng) for s in signers[:3]]
            return combine_partials(public, b"binding", partials)

        signature = benchmark(mint)
        assert signature.value

    def test_fast_backend_seed(self, benchmark):
        backend = FastCryptoBackend(0)
        backend.setup_committee([0, 1, 2, 3], 3)

        def mint():
            partials = [backend.partial_sign(m, b"binding") for m in (0, 1, 2)]
            return backend.seed_from_signature(backend.combine(b"binding", partials), 10)

        seed = benchmark(mint)
        assert 0 <= seed < 10


class TestOverlayMicro:
    def test_overlay_family_construction(self, benchmark):
        """The paper's setup cost: k optimized overlays from scratch."""

        physical = generate_physical_network(100, seed=0)

        def build():
            overlays, _ = build_overlay_family(physical, f=1, k=2, seed=1)
            return overlays

        started = time.perf_counter()
        overlays = benchmark.pedantic(build, rounds=1, iterations=1)
        seconds = time.perf_counter() - started
        assert len(overlays) == 2
        report(
            "micro_overlay_build",
            f"overlay construction (N=100, k=2, f=1): {seconds:.2f} s on this "
            "host, one round.  The N=200, k=10 environment of the figure "
            "benchmarks builds in under a second (build_environment_s @ N=200 "
            "8.8 -> 0.9 s when annealing moves went in-place; "
            "docs/performance.md, 'Overlay construction cost').  The paper "
            "reports < 15 s on a 36-core server at "
            "N=10,000, a size this repo still builds un-annealed.",
        )

    def test_encode_decode_roundtrip(self, benchmark, env_main):
        overlay = env_main.overlays[0]

        def roundtrip():
            return decode_overlay(encode_overlay(overlay))

        decoded = benchmark(roundtrip)
        assert decoded.num_edges == overlay.num_edges

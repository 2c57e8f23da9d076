"""Integration: kernel-optimization byte-identity.

The optimized simulation kernel ships two performance features — vectorized
block sampling, switchable, and the GC pause around the run loop, always on —
both promising *byte-identical* results.  This suite replays a committed
golden figure cell with batched and with scalar sampling and requires the
pre-optimization hash, so any drift introduced by a fast path fails loudly.

The golden hash below is the same fig3a cell pinned by
``test_load_saturation.py`` (computed on the pre-optimization tree), which
makes these cells a chain of custody: seed kernel -> load subsystem ->
optimized kernel, one unchanged hash.
"""

import hashlib

import pytest

from repro.experiments import fig3a_latency
from repro.mempool.transaction import reset_tx_ids
from repro.net import sampling
from repro.net.events import reset_message_ids
from repro.runner.spec import canonical_json

# Identical to the fig3a entry in test_load_saturation.GOLDEN_CELLS.
GOLDEN_PARAMS = {
    "protocol": "hermes",
    "num_nodes": 40,
    "k": 3,
    "transactions": 3,
    "horizon_ms": 5000.0,
    "seed": 0,
}
GOLDEN_HASH = "5d87a1d5908ac50039e85522095f7c8cb414040f3641582a1282fd3a21f1ef77"


def _cell_hash() -> str:
    reset_tx_ids()
    reset_message_ids()
    result = fig3a_latency.run_cell(dict(GOLDEN_PARAMS))
    return hashlib.sha256(canonical_json(result).encode()).hexdigest()


@pytest.fixture(autouse=True)
def _restore_batching():
    yield
    sampling.set_batching(True)


class TestOptimizationMatrix:
    @pytest.mark.parametrize("batching", [True, False], ids=["batched", "scalar"])
    def test_golden_cell_hash_is_invariant(self, batching):
        if batching and not sampling.batching_enabled():
            pytest.skip("NumPy unavailable: the batched path does not exist")
        sampling.set_batching(batching)
        assert _cell_hash() == GOLDEN_HASH

"""Exact hot-path counters as a gate: Python calls per simulated event.

``tools/hot_path_counters.py`` counts (cProfile ``ncalls``) what the event
loop of fixed small cells costs.  Unlike wall time the counts repeat exactly,
so a bound here catches a regression that a noisy host cannot resolve.  The
bounds sit below what the kernel cost before one frame per fan-out and one
hash per envelope (HERMES 129.6 calls per event, L∅ 21.4, Narwhal 18.3,
Mercury 14.2, the flood 21.7; 14.6 ``encode_piece`` and 3.5 SHA-256 calls
per HERMES receipt) and a little above what they cost after (48.7, 18.9,
14.1, 9.2, 16.3; 0.64 and 0.47).  The flood's memory is exact too: bytes
its ``system.run`` leaves allocated per delivery (tracemalloc), 338 while
every delivery kept a dict entry and a boxed float, 209 with the per-item
delivery columns and the mempool's arrival column.  The tool runs in a
fresh interpreter so no cache warmed by another test can lower a count.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.net import sampling

TOOL = Path(__file__).resolve().parents[2] / "tools" / "hot_path_counters.py"

CALLS_PER_EVENT_BOUNDS = {
    "hermes": 55.0,
    "lzero": 20.0,
    "narwhal": 16.0,
    "mercury": 11.0,
    "all four": 17.0,
    "flood": 18.0,
}


@pytest.fixture(scope="module")
def counters():
    if not sampling.batching_enabled():
        pytest.skip("NumPy unavailable: scalar jitter draws add calls per event")
    done = subprocess.run(
        [sys.executable, str(TOOL), "--json"], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("cell", sorted(CALLS_PER_EVENT_BOUNDS))
def test_calls_per_event_within_bound(counters, cell):
    assert counters["calls_per_event"][cell] <= CALLS_PER_EVENT_BOUNDS[cell]


def test_flood_retains_few_bytes_per_delivery(counters):
    assert counters["retained_bytes_per_delivery"] <= 240.0


def test_hermes_hashes_each_envelope_once(counters):
    per_receipt = counters["hermes_per_receipt"]
    assert counters["fig3a"]["hermes"]["receipts"] > 0
    assert per_receipt["encode_piece"] <= 1.0
    assert per_receipt["sha256"] <= 1.0

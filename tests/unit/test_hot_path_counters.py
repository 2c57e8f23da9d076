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
delivery columns and the mempool's arrival column, 184 once the transport
buffers 1,024 jitter normals instead of 4,096, 178 once base latencies sit
in per-source rows (an L∅ node's rng is still derived with the node: 326
when it was derived mid-run).  So is the traced peak of a Fig. 3a cell
whose four systems are dropped without ``close()``: 2,086 KiB while each
dropped system waited for a full collection, 1,434 KiB once dropping a
system closes it, 1,335 KiB with the standard-library jitter block of 1,024
(1,934 at 4,096: its temporary lists), 1,164 KiB once a node that never
draws holds no rng and pending deliveries share each node's bound handler,
1,085 KiB once cross-region pair draws sit in sorted per-node columns
instead of a dict keyed by pair, 1,074 KiB once the deliveries of one
``send_many`` fan-out share one ``(src, message)`` args tuple.  Those
columns hold 23.9 bytes per kept draw after the Fig. 3a cell; the dict held
~114.5 per draw at N = 1,100.
What a sustained Fig. 8 HERMES cell keeps is gated exactly: a mempool that
never fills and is never drained by fee builds no fee heap and no priority
heap (each resident held four index entries while all four indexes were
kept eagerly), its FIFO and TTL queues hold one entry per resident, and a
delivered Bracha slot keeps no supporter set.
The tool runs in a fresh interpreter so no cache warmed by another test can
lower a count.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_a_dropped_system_leaves_the_fig3a_peak(counters):
    assert counters["fig3a_peak_traced_kb"] <= 1_140.0


def test_cross_region_draws_are_kept_in_columns(counters):
    assert counters["cross_bytes_per_draw"]["fig3a"] <= 32.0


def test_hermes_hashes_each_envelope_once(counters):
    per_receipt = counters["hermes_per_receipt"]
    assert counters["fig3a"]["hermes"]["receipts"] > 0
    assert per_receipt["encode_piece"] <= 1.0
    assert per_receipt["sha256"] <= 1.0


def test_fig8_keeps_only_the_bookkeeping_it_reads(counters):
    fig8 = counters["fig8_hermes"]
    assert fig8["residents"] > 0 and fig8["delivered_slots"] > 0
    assert fig8["entries_per_resident"] == {
        "fee_heap": 0.0,
        "prio_heap": 0.0,
        "fifo": 1.0,
        "ttl_queue": 1.0,
    }
    assert fig8["supporter_sets_on_delivered_slots"] == 0

"""Integration: latency-ranked peer selection is pinned — what it picks and
how many pair latencies it draws to pick it.

Mercury's clusters and peer lists and HERMES's committee all rank candidates
with ``PhysicalNetwork.nearest``.  The digests were captured on the tree that
still sorted every candidate by a fresh per-pair draw, so they are the chain
of custody for "region pruning picks the same peers with the same
tie-break".  The draw counter is exact under a fixed seed (no wall clock).
"""

import hashlib
import json
import sys

import pytest

from repro.baselines.mercury import MercurySystem
from repro.core.protocol import HermesSystem
from repro.experiments.harness import build_environment
from repro.net.latency import LatencyModel
from repro.net.topology import generate_physical_network

PINNED_PYTHON = (3, 11)

# num_nodes -> (Mercury digest, HERMES committee digest); seed 0, the paper
# profile at N = 1,100 as in the fig3a-paper-n1100 workload.
SELECTION_DIGESTS = {
    60: ("68b85d58f374ae50", "a55a95a7f3f6dfce"),
    200: ("b741e81642b6b8bf", "93be0e5b2b27136b"),
    1100: ("e11385035558b3aa", "ca7a7f690326c316"),
}

# sample_pair calls to build MercurySystem(seed=0) on a fresh N = 1,100
# network; 85,202 when every cluster member was drawn and sorted.
MERCURY_PAIR_DRAWS = 53_818


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def mercury_digest(system: MercurySystem) -> str:
    return digest(
        [sorted(system.clusters.items()), system.landmarks, sorted(system._peers.items())]
    )


@pytest.mark.skipif(
    sys.version_info[:2] != PINNED_PYTHON,
    reason=f"selection digests are stamped CPython {PINNED_PYTHON[0]}.{PINNED_PYTHON[1]}",
)
@pytest.mark.parametrize("num_nodes", sorted(SELECTION_DIGESTS))
def test_selection_digests(num_nodes):
    env = build_environment(num_nodes=num_nodes, seed=0, paper_scale=num_nodes == 1100)
    mercury, committee = SELECTION_DIGESTS[num_nodes]
    # A fresh network (nothing cached, most pairs pruned) and the shared
    # environment (whatever other tests have cached) must agree.
    fresh = generate_physical_network(num_nodes, min_degree=4, seed=0)
    for physical in (fresh, env.physical):
        with MercurySystem(physical, seed=0) as system:
            assert mercury_digest(system) == mercury
    with HermesSystem(env.physical, overlays=env.overlays, seed=0) as system:
        assert digest(system.committee) == committee


def test_mercury_pair_draws(monkeypatch):
    """Region pruning draws only the pairs that can reach a node's nearest
    peers.  The paper-profile environment draws no pair while building its
    overlays, so a bare network is what Mercury meets in a fresh one."""

    draws = 0
    real = LatencyModel.sample_pair

    def counted(self, *args):
        nonlocal draws
        draws += 1
        return real(self, *args)

    physical = generate_physical_network(1100, min_degree=4, seed=0)
    monkeypatch.setattr(LatencyModel, "sample_pair", counted)
    MercurySystem(physical, seed=0).close()
    if sys.version_info[:2] == PINNED_PYTHON:
        assert draws == MERCURY_PAIR_DRAWS
    assert draws < 60_000

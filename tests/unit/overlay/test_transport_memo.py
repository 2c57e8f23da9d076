"""TransportSpace's latency memo against its reference, the physical network.

The memo is a cache of ``PhysicalNetwork.transport_latency``: every read must
equal the reference, and one overlay-family build must ask the reference for
each distinct pair at most once.
"""

from collections import Counter

from repro.net.topology import PhysicalNetwork, generate_physical_network
from repro.overlay.base import TransportSpace
from repro.overlay.robust_tree import build_overlay_family


def _assert_matches_reference(space, physical):
    nodes = physical.nodes()
    for u in nodes:
        for v in nodes:
            expected = physical.transport_latency(u, v)
            assert space.latency(u, v) == expected
            assert space.latency(v, u) == expected  # a memo hit, either order


def test_reads_equal_the_reference():
    physical = generate_physical_network(60, seed=0)
    _assert_matches_reference(TransportSpace(physical), physical)


def test_one_family_build_reads_each_pair_at_most_once(monkeypatch):
    physical = generate_physical_network(100, seed=0)
    reads = Counter()
    real = PhysicalNetwork.transport_latency

    def counted(self, u, v):
        reads[(u, v) if u < v else (v, u)] += 1
        return real(self, u, v)

    monkeypatch.setattr(PhysicalNetwork, "transport_latency", counted)
    # Fig. 5a's environment: N = 100, f = 1, k = 10, annealed.  Without the
    # memo this build makes 112,848 reads for 4,654 pair draws.
    build_overlay_family(physical, f=1, k=10, seed=0)
    assert reads and max(reads.values()) == 1

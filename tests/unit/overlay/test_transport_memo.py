"""TransportSpace's latency memo against its reference, the physical network.

The memo is a cache of ``PhysicalNetwork.transport_latency``: every read must
equal the reference, also after a join or a leave has changed what the
reference returns, and one overlay-family build must ask the reference for
each distinct pair at most once.
"""

from collections import Counter

import pytest

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


def test_reads_equal_the_reference_before_and_after_churn():
    physical = generate_physical_network(60, seed=0)
    space = TransportSpace(physical)
    _assert_matches_reference(space, physical)

    # A join: new pairs, and the version moves.
    version = physical.version
    physical.add_node_with_links(60, physical.region_of(3), [3, 17])
    assert physical.version > version
    _assert_matches_reference(space, physical)

    # A leave, then the same id rejoins elsewhere: every pair of node 5 is
    # answered afresh, and a stale memo would answer with the old numbers.
    before = {other: space.latency(5, other) for other in physical.nodes() if other != 5}
    old_region = physical.region_of(5)
    physical.remove_node(5)
    with pytest.raises(KeyError):
        physical.transport_latency(5, 0)
    with pytest.raises(KeyError):
        space.latency(5, 0)
    region = next(
        physical.region_of(node)
        for node in physical.nodes()
        if physical.region_of(node) != old_region
    )
    physical.add_node_with_links(5, region, [40, 41])
    _assert_matches_reference(space, physical)
    after = {other: space.latency(5, other) for other in before}
    assert after != before


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

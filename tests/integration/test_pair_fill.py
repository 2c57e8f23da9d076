"""Integration: the parallel pair fill changes who draws, nothing else.

HERMES's committee selection and Mercury's construction fill their per-pair
latency draws up front (``PhysicalNetwork.fill_pairs``), splitting a large
fill with forked helpers.  At the N = 1,100 paper scale the stores built
three ways — the lazy path (no fill: ``transport_latency`` and ``nearest``
draw as they read), the fill with no helper to fork (it draws nothing), and
the fill with a helper — must be byte-identical, region triangles and
cross-region rows alike, and pick the same committee and peers.  Every
helper is reaped, also when the parent's half of a fill raises.
"""

import dataclasses
import os

import pytest

from repro.baselines.mercury import MercurySystem
from repro.core.protocol import HermesSystem
from repro.experiments.harness import build_environment
from repro.net import topology
from repro.net.topology import PhysicalNetwork

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the fill forks helpers")


@pytest.fixture
def forks(monkeypatch):
    """Every pid the fill forks from this process."""

    pids, real = [], os.fork

    def recording():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def store_of(physical: PhysicalNetwork):
    """The pair tables as bytes: each region's triangle, then every cross-
    region row in insertion order, and the least kept cross draw."""

    tables = {id(table): table for table, _index in physical._slots.values()}
    return (
        [bytes(table) for table in tables.values()],
        [(lo, bytes(row)) for lo, row in physical._cross.rows.items()],
        physical._cross.low,
    )


def build(env, monkeypatch, way: str):
    physical = dataclasses.replace(env.physical)  # empty pair tables
    with monkeypatch.context() as patch:
        if way == "lazy":
            patch.setattr(PhysicalNetwork, "fill_pairs", lambda self, rows: None)
        patch.setattr(topology, "fill_helpers", lambda: 1 if way == "forked" else 0)
        with HermesSystem(physical, overlays=env.overlays, seed=13) as hermes:
            committee = hermes.committee
        with MercurySystem(physical, seed=13) as mercury:
            peers = {node: mercury.peers_of(node) for node in physical.nodes()}
    return store_of(physical), committee, peers


def test_lazy_serial_and_forked_fills_build_the_same_store(monkeypatch, forks):
    env = build_environment(num_nodes=1100, f=1, k=10, seed=0, paper_scale=True)
    lazy = build(env, monkeypatch, "lazy")
    assert forks == []
    serial = build(env, monkeypatch, "serial")
    assert forks == []
    forked = build(env, monkeypatch, "forked")
    assert len(forks) == 2  # HERMES's fill and Mercury's each forked one helper
    assert serial == lazy
    assert forked == lazy
    assert_reaped(forks)


def test_a_raise_in_the_parents_half_leaves_no_helper(monkeypatch, forks):
    env = build_environment(num_nodes=1100, f=1, k=10, seed=0, paper_scale=True)
    physical = dataclasses.replace(env.physical)
    before = store_of(physical)
    nodes = physical.nodes()
    rows = [(node, nodes[::64]) for node in nodes]

    parent, real = os.getpid(), PhysicalNetwork.transport_latency

    def broken(self, u, v):
        if os.getpid() == parent:
            raise RuntimeError("the parent's half failed")
        return real(self, u, v)  # the helper's half

    monkeypatch.setattr(topology, "fill_helpers", lambda: 1)
    monkeypatch.setattr(PhysicalNetwork, "transport_latency", broken)
    with pytest.raises(RuntimeError, match="parent's half"):
        physical.fill_pairs(rows)
    assert len(forks) == 1
    assert_reaped(forks)
    assert store_of(physical) == before  # nothing the helper drew was kept
    monkeypatch.setattr(PhysicalNetwork, "transport_latency", real)
    physical.fill_pairs(rows)
    assert len(forks) == 2
    assert_reaped(forks)
    assert store_of(physical) != before

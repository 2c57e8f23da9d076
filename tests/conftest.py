"""Shared fixtures, and the hypothesis profiles the suite runs under.

Expensive objects (physical networks, overlay families, crypto groups) are
session-scoped: the suite builds them once and every test reuses them
read-only.  Tests that mutate state build their own small instances.

Tier-1 must be green or red for a reason in the code, never for a reason in
the dice, so the property tests run *derandomized* by default: each test
draws the same examples on every run (seeded from the test function, no
example database).  Exploration is a separate, non-blocking job:
``python -m pytest tests/property --hypothesis-profile=explore
--hypothesis-seed=N`` draws fresh examples, and a counter-example it finds
arrives as a reproducible seed to be pinned with ``@example``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.crypto.group import toy_group
from repro.net.topology import PhysicalNetwork, generate_physical_network
from repro.overlay.annealing import AnnealingConfig
from repro.overlay.base import TransportSpace
from repro.overlay.robust_tree import build_overlay_family


settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")  # `--hypothesis-profile` on the command line wins


@pytest.fixture(scope="session")
def group():
    """The small-but-real Schnorr group used by crypto tests."""

    return toy_group()


@pytest.fixture(scope="session")
def physical40() -> PhysicalNetwork:
    """A 40-node physical network shared by read-only tests."""

    return generate_physical_network(40, min_degree=4, seed=7)


@pytest.fixture(scope="session")
def physical80() -> PhysicalNetwork:
    """An 80-node physical network for the protocol-level tests."""

    return generate_physical_network(80, min_degree=4, seed=11)


@pytest.fixture(scope="session")
def space40(physical40):
    return TransportSpace(physical40)


# A light annealing schedule keeping overlay-family fixtures fast.
FAST_ANNEALING = AnnealingConfig(
    initial_temperature=10.0, min_temperature=2.0, cooling_rate=0.7,
    moves_per_temperature=2,
)


@pytest.fixture(scope="session")
def overlay_family40(physical40):
    """Three optimized overlays (f=1) over the 40-node network."""

    overlays, ranks = build_overlay_family(
        physical40, f=1, k=3, annealing_config=FAST_ANNEALING, seed=5
    )
    return overlays, ranks


@pytest.fixture(scope="session")
def overlay_family80(physical80):
    """Four optimized overlays (f=1) over the 80-node network."""

    overlays, ranks = build_overlay_family(
        physical80, f=1, k=4, annealing_config=FAST_ANNEALING, seed=5
    )
    return overlays, ranks


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(1234)

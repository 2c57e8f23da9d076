"""Differential tests: the in-place annealing state vs the full recompute.

``anneal`` never calls ``evaluate_overlay``; it keeps the inputs of Eq. (1)
up to date edge by edge and undoes rejected moves from a journal.  These
properties drive random move/undo sequences through that state and require
*exact* agreement with the from-scratch reference after every step — a
last-bit difference flips a Metropolis decision somewhere down the line.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.topology import generate_physical_network
from repro.overlay.annealing import (
    AnnealingConfig,
    GenerateNeighborConfig,
    _AnnealState,
    anneal,
    generate_neighbor,
)
from repro.overlay.base import PhysicalSpace, TransportSpace
from repro.overlay.objective import ObjectiveConfig, evaluate_overlay
from repro.overlay.rank import RankTracker
from repro.overlay.robust_tree import build_robust_tree, prune_to_minimal

# min_degree=6 keeps the sparse PhysicalSpace buildable at f=2; over it some
# connectivity violations cannot be repaired and persist from move to move.
_PHYSICAL = generate_physical_network(30, min_degree=6, seed=2)
_SPACES = {"transport": TransportSpace(_PHYSICAL), "physical": PhysicalSpace(_PHYSICAL)}
_PRIORITY = ObjectiveConfig(priority_nodes=frozenset({3, 7, 11, 28}))

_TREES: dict = {}


def _tree(space_name, f, pruned):
    """A robust tree (cached) and the ranks it was built against."""

    key = (space_name, f, pruned)
    if key not in _TREES:
        space = _SPACES[space_name]
        ranks = RankTracker(_PHYSICAL.nodes())
        tree = build_robust_tree(_PHYSICAL.nodes(), space, f, 0, ranks, seed=3)
        _TREES[key] = (prune_to_minimal(tree, space) if pruned else tree, ranks)
    return _TREES[key]


cases = dict(
    space_name=st.sampled_from(sorted(_SPACES)),
    f=st.integers(min_value=1, max_value=2),
    pruned=st.booleans(),
    priority=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
)


def _assert_in_step(state, space, ranks, objective_config):
    overlay = state.overlay
    reference = evaluate_overlay(overlay, space, ranks, objective_config)
    assert state.objective() == reference
    assert state.objective().total == reference.total
    assert state.times == overlay.arrival_times(space)
    assert list(state.times) == list(overlay.depth_of)
    assert state.num_edges == overlay.num_edges


@given(undo=st.lists(st.booleans(), min_size=1, max_size=25), **cases)
@settings(max_examples=60, deadline=None)
def test_state_matches_full_recompute_on_random_move_sequences(
    space_name, f, pruned, priority, seed, undo
):
    tree, ranks = _tree(space_name, f, pruned)
    space = _SPACES[space_name]
    objective_config = _PRIORITY if priority else None
    pristine = tree.copy()
    state = _AnnealState(tree.copy(), space, ranks, None, objective_config)
    _assert_in_step(state, space, ranks, objective_config)
    rng = random.Random(seed)
    for reject in undo:
        before = state.overlay.copy()
        state.move(rng)
        _assert_in_step(state, space, ranks, objective_config)
        if reject:
            state.undo()
            # Dataclass equality compares the adjacency lists, order included.
            assert state.overlay == before
            _assert_in_step(state, space, ranks, objective_config)
        else:
            state.accept()
    assert tree == pristine


@given(greedy=st.booleans(), **cases)
@settings(max_examples=30, deadline=None)
def test_public_entry_points_never_mutate_their_input(
    space_name, f, pruned, priority, seed, greedy
):
    tree, ranks = _tree(space_name, f, pruned)
    space = _SPACES[space_name]
    objective_config = _PRIORITY if priority else None
    neighbor_config = GenerateNeighborConfig(greedy_filter=greedy)
    pristine = tree.copy()

    generate_neighbor(
        tree, space, ranks, random.Random(seed), neighbor_config, objective_config
    )
    assert tree == pristine

    schedule = AnnealingConfig(
        initial_temperature=20.0, min_temperature=4.0, cooling_rate=0.8,
        moves_per_temperature=2,
    )
    anneal(
        tree, space, ranks, schedule, neighbor_config, objective_config,
        rng=random.Random(seed),
    )
    assert tree == pristine


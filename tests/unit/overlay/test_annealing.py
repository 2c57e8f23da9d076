"""Unit tests for simulated annealing (Algorithms 2 and 3)."""

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.overlay.annealing import (
    AnnealingConfig,
    GenerateNeighborConfig,
    _AnnealState,
    anneal,
    generate_neighbor,
)
from repro.overlay.base import Overlay, OverlaySpace
from repro.overlay.objective import ObjectiveConfig, evaluate_overlay
from repro.overlay.rank import RankTracker
from repro.overlay.robust_tree import build_robust_tree, prune_to_minimal


@pytest.fixture()
def tree_and_ranks(physical40, space40):
    ranks = RankTracker(physical40.nodes())
    tree = build_robust_tree(
        physical40.nodes(), space40, f=1, overlay_id=0, ranks=ranks, seed=3
    )
    return tree, ranks


class TestConfigs:
    def test_annealing_config_validation(self):
        with pytest.raises(ConfigurationError):
            AnnealingConfig(cooling_rate=1.0)
        with pytest.raises(ConfigurationError):
            AnnealingConfig(initial_temperature=0)
        with pytest.raises(ConfigurationError):
            AnnealingConfig(moves_per_temperature=0)


class TestGenerateNeighbor:
    def test_neighbor_preserves_invariants(self, tree_and_ranks, space40, physical40):
        tree, ranks = tree_and_ranks
        rng = random.Random(1)
        current = tree
        for _ in range(15):
            current = generate_neighbor(current, space40, ranks, rng)
            current.validate(expected_nodes=physical40.nodes())

    def test_neighbor_does_not_mutate_input(self, tree_and_ranks, space40):
        tree, ranks = tree_and_ranks
        edges_before = set(tree.edges())
        generate_neighbor(tree, space40, ranks, random.Random(2))
        assert set(tree.edges()) == edges_before

    def test_greedy_filter_never_worsens(self, tree_and_ranks, space40):
        tree, ranks = tree_and_ranks
        config = GenerateNeighborConfig(greedy_filter=True)
        rng = random.Random(3)
        baseline = evaluate_overlay(tree, space40, ranks).total
        neighbor = generate_neighbor(tree, space40, ranks, rng, config)
        assert evaluate_overlay(neighbor, space40, ranks).total <= baseline


class TestAnneal:
    def test_anneal_improves_objective(self, tree_and_ranks, space40):
        tree, ranks = tree_and_ranks
        config = AnnealingConfig(
            initial_temperature=20.0,
            min_temperature=2.0,
            cooling_rate=0.7,
            moves_per_temperature=3,
        )
        before = evaluate_overlay(tree, space40, ranks).total
        optimized = anneal(tree, space40, ranks, config, rng=random.Random(4))
        after = evaluate_overlay(optimized, space40, ranks).total
        assert after <= before

    def test_anneal_output_valid(self, tree_and_ranks, space40, physical40):
        tree, ranks = tree_and_ranks
        config = AnnealingConfig(
            initial_temperature=10.0, min_temperature=3.0, cooling_rate=0.6,
            moves_per_temperature=2,
        )
        optimized = anneal(tree, space40, ranks, config, rng=random.Random(5))
        optimized.validate(expected_nodes=physical40.nodes())

    def test_anneal_deterministic_for_rng(self, tree_and_ranks, space40):
        tree, ranks = tree_and_ranks
        config = AnnealingConfig(
            initial_temperature=10.0, min_temperature=3.0, cooling_rate=0.6,
            moves_per_temperature=2,
        )
        a = anneal(tree, space40, ranks, config, rng=random.Random(6))
        b = anneal(tree, space40, ranks, config, rng=random.Random(6))
        assert set(a.edges()) == set(b.edges())


def _reference_anneal(
    overlay, space, ranks, config, neighbor_config, objective_config, rng
):
    """Alg. 2 from public parts only: a fresh copy and a full Eq. (1) per move."""

    current = best = overlay
    current_value = best_value = evaluate_overlay(
        overlay, space, ranks, objective_config
    ).total
    temperature = config.initial_temperature
    while temperature > config.min_temperature:
        for _ in range(config.moves_per_temperature):
            candidate = generate_neighbor(
                current, space, ranks, rng, neighbor_config, objective_config
            )
            value = evaluate_overlay(candidate, space, ranks, objective_config).total
            delta = value - current_value
            if delta < 0 or math.exp(-delta / temperature) > rng.random():
                current, current_value = candidate, value
                if value < best_value:
                    best, best_value = candidate, value
        temperature *= config.cooling_rate
    return best


class TestSlowReferenceEquivalence:
    """``anneal`` undoes and delta-evaluates; the loop above copies and
    recomputes.  Same rng in, equal overlay out (adjacency list order included)."""

    VARIANTS = {
        "default": (AnnealingConfig(), None, None),
        "greedy": (AnnealingConfig(), GenerateNeighborConfig(greedy_filter=True), None),
        "custom": (
            AnnealingConfig(
                initial_temperature=30.0, min_temperature=1.0, cooling_rate=0.9,
                moves_per_temperature=3,
            ),
            GenerateNeighborConfig(remove_probability=0.7, overload_slack=0),
            ObjectiveConfig(priority_nodes=frozenset({2, 9, 31})),
        ),
    }

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("seed", range(5))
    def test_anneal_equals_copy_and_recompute_loop(
        self, tree_and_ranks, space40, variant, seed
    ):
        tree, ranks = tree_and_ranks
        start = prune_to_minimal(tree, space40) if seed % 2 else tree
        config, neighbor_config, objective_config = self.VARIANTS[variant]
        fast = anneal(
            start, space40, ranks, config, neighbor_config, objective_config,
            rng=random.Random(seed),
        )
        slow = _reference_anneal(
            start, space40, ranks, config, neighbor_config, objective_config,
            random.Random(seed),
        )
        assert fast == slow


class _ChainSpace(OverlaySpace):
    """Only 0–2, 1–2 and 2–3 are connectable: node 3 hangs off node 2 alone."""

    LINKS = {(0, 2): 3.0, (1, 2): 5.0, (2, 3): 7.0}

    def are_connected(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.LINKS

    def latency(self, u: int, v: int) -> float:
        return self.LINKS[(min(u, v), max(u, v))]


class TestUnreachableNodes:
    @pytest.mark.parametrize("seed", range(6))
    def test_state_follows_nodes_in_and_out_of_reach(self, seed):
        overlay = Overlay.empty(0, 1, [0, 1])
        overlay.add_node(2, 1)
        overlay.add_node(3, 2)
        overlay.add_edge(0, 2)
        space, ranks = _ChainSpace(), RankTracker(overlay.nodes())
        state = _AnnealState(overlay, space, ranks)
        assert state.objective().path_penalty > 0  # node 3 starts unreachable
        rng = random.Random(seed)
        penalties = set()
        for step in range(12):
            state.move(rng)
            assert state.objective() == evaluate_overlay(overlay, space, ranks)
            assert state.times == overlay.arrival_times(space)
            penalties.add(state.objective().path_penalty)
            if step % 3 == 0:
                # Step 0 undoes the repair edge 2 → 3: back out of reach.
                state.undo()
                assert state.objective() == evaluate_overlay(overlay, space, ranks)
                assert state.times == overlay.arrival_times(space)
            else:
                state.accept()
        assert 0.0 in penalties

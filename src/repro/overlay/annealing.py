"""Simulated annealing over overlays — Algorithms 2 and 3 of the paper.

:func:`generate_neighbor` (Alg. 3) proposes a mutated overlay:

1. randomly add or remove one forward edge;
2. repair the ``f+1``-connectivity invariants (successors for non-leaves,
   predecessors for non-entries), adding lowest-latency repair edges;
3. rebalance roles: an overloaded near-root node with spare successors hands
   one child over to a higher-accumulated-rank parent.

:func:`anneal` (Alg. 2) runs the Metropolis acceptance loop over those
proposals.  One deliberate deviation: the paper's Alg. 3 step 4 discards any
non-improving neighbour, which silently degenerates the annealing into greedy
descent.  We return the proposal unconditionally and let Alg. 2's temperature
schedule decide — i.e., actual simulated annealing.  Setting
``GenerateNeighborConfig.greedy_filter=True`` restores the literal pseudocode.

Both run on one :class:`_AnnealState`: a move mutates a single working overlay
in place and journals what it changed, so a rejected proposal is undone rather
than thrown away with a copy, and the inputs of Eq. (1) are updated for the
touched edges only (docs/performance.md, "Overlay construction cost").
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass

from ..utils.validation import require, require_positive
from .base import Overlay, OverlaySpace
from .objective import ObjectiveConfig, ObjectiveValue, _rank_penalty, combine_terms
from .rank import RankTracker

__all__ = ["AnnealingConfig", "GenerateNeighborConfig", "anneal", "generate_neighbor"]


@dataclass(frozen=True, slots=True)
class AnnealingConfig:
    """Cooling schedule for Algorithm 2."""

    initial_temperature: float = 50.0
    min_temperature: float = 0.5
    cooling_rate: float = 0.95
    moves_per_temperature: int = 4

    def __post_init__(self) -> None:
        require_positive(self.initial_temperature, "initial_temperature")
        require_positive(self.min_temperature, "min_temperature")
        require(
            0.0 < self.cooling_rate < 1.0,
            f"cooling_rate must be in (0, 1), got {self.cooling_rate}",
        )
        require(
            self.moves_per_temperature >= 1,
            "moves_per_temperature must be at least 1",
        )


@dataclass(frozen=True, slots=True)
class GenerateNeighborConfig:
    """Behaviour of Algorithm 3."""

    remove_probability: float = 0.5
    greedy_filter: bool = False
    # Out-degree above which a near-root node is considered overloaded.
    overload_slack: int = 1


# Draws of a random node pair before step 1 gives up on finding a non-edge.
_SAMPLE_ATTEMPTS = 32


class _AnnealState:
    """One working overlay plus the inputs of Eq. (1), kept in step with it.

    The state owns *overlay* and mutates it; callers pass a copy.  Depths and
    ranks are fixed for the lifetime of an anneal, so everything derived from
    them alone is computed here once.  Edge count, arrival times and the two
    sets of connectivity violators follow every edge change, and each change
    is journalled until the move is accepted or undone.
    """

    def __init__(
        self,
        overlay: Overlay,
        space: OverlaySpace,
        ranks: RankTracker,
        config: GenerateNeighborConfig | None = None,
        objective_config: ObjectiveConfig | None = None,
    ) -> None:
        self.overlay = overlay
        self.space = space
        self.config = config if config is not None else GenerateNeighborConfig()
        self.objective_config = (
            objective_config if objective_config is not None else ObjectiveConfig()
        )

        depth_of = overlay.depth_of
        self.nodes = overlay.nodes()
        # Nodes by (depth, id): the ones strictly shallower than depth d are
        # the first shallower[d] of them, the deeper ones start at deeper_from[d].
        self.by_depth = sorted(self.nodes, key=lambda n: (depth_of[n], n))
        self.shallower = overlay.shallower_counts()
        self.deeper_from = {
            depth: self.shallower[depth] + len(layer)
            for depth, layer in overlay.layers().items()
        }
        self.needed = {
            n: overlay.required_predecessors(n, self.shallower) for n in self.nodes
        }
        shallow_cutoff = max(1, overlay.max_depth() // 3)
        self.shallow = [n for n in self.nodes if depth_of[n] <= shallow_cutoff]
        self.rank_of = {n: ranks.rank(n) for n in self.nodes}
        self.rank_penalty = _rank_penalty(overlay, ranks)

        self.num_edges = overlay.num_edges
        self.times = overlay.arrival_times(space)
        self.short_successors = {
            n for n in self.nodes if 0 < len(overlay.successors[n]) <= overlay.f
        }
        self.short_predecessors = {
            n for n in self.nodes if len(overlay.predecessors[n]) < self.needed[n]
        }
        # (parent, child, None) for an added edge, (parent, child, its indices
        # in successors[parent] and predecessors[child]) for a removed one.
        self._edge_journal: list[tuple[int, int, tuple[int, int] | None]] = []
        # node -> arrival time before the move, for every node whose time moved.
        self._time_journal: dict[int, float] = {}

    def objective(self) -> ObjectiveValue:
        """Eq. (1) of the working overlay; equals ``evaluate_overlay`` on it."""

        return combine_terms(
            self.objective_config,
            self.times,
            self.num_edges,
            len(self.short_successors) + len(self.short_predecessors),
            self.rank_penalty,
        )

    # -- journalled edge changes ----------------------------------------

    def _add_edge(self, parent: int, child: int) -> None:
        """Append parent → child; callers pass a shallower parent and a non-edge."""

        self.overlay.successors[parent].append(child)
        self.overlay.predecessors[child].append(parent)
        self.num_edges += 1
        self._edge_journal.append((parent, child, None))
        self._reclassify(parent, child)
        self._retime(child)

    def _remove_edge(self, parent: int, child: int) -> None:
        children = self.overlay.successors[parent]
        parents = self.overlay.predecessors[child]
        # The positions go in the journal: undo must restore list order, which
        # feeds rng.choice, relay order and every pinned digest.
        where = (children.index(child), parents.index(parent))
        del children[where[0]]
        del parents[where[1]]
        self.num_edges -= 1
        self._edge_journal.append((parent, child, where))
        self._reclassify(parent, child)
        self._retime(child)

    def _reclassify(self, parent: int, child: int) -> None:
        """Re-derive the violator sets for the endpoints of a touched edge."""

        if 0 < len(self.overlay.successors[parent]) <= self.overlay.f:
            self.short_successors.add(parent)
        else:
            self.short_successors.discard(parent)
        if len(self.overlay.predecessors[child]) < self.needed[child]:
            self.short_predecessors.add(child)
        else:
            self.short_predecessors.discard(child)

    def _retime(self, node: int) -> None:
        """Re-derive the arrival time of *node* and, while times move, below it.

        A time is the ``min`` over predecessors of the same float expression
        :meth:`Overlay.arrival_times` evaluates, and ``min`` does not depend on
        order, so the map stays equal to a full pass.  Dirty nodes are handled
        shallow to deep: edges only deepen, so a node's predecessors are final
        by the time it is reached.
        """

        overlay, times, latency = self.overlay, self.times, self.space.latency
        depth_of = overlay.depth_of
        heap = [(depth_of[node], node)]
        queued = {node}
        while heap:
            _, node = heapq.heappop(heap)
            arrival = min(
                (times[p] + latency(p, node) for p in overlay.predecessors[node]),
                default=math.inf,
            )
            if arrival == times[node]:
                continue
            self._time_journal.setdefault(node, times[node])
            times[node] = arrival
            for child in overlay.successors[node]:
                if child not in queued:
                    queued.add(child)
                    heapq.heappush(heap, (depth_of[child], child))

    def accept(self) -> None:
        self._edge_journal.clear()
        self._time_journal.clear()

    def undo(self) -> None:
        """Replay the journal backwards: the overlay is as it was at the last accept."""

        successors, predecessors = self.overlay.successors, self.overlay.predecessors
        while self._edge_journal:
            parent, child, where = self._edge_journal.pop()
            if where is None:
                # Undoing newest-first guarantees the added edge is at the tail.
                successors[parent].pop()
                predecessors[child].pop()
                self.num_edges -= 1
            else:
                successors[parent].insert(where[0], child)
                predecessors[child].insert(where[1], parent)
                self.num_edges += 1
            self._reclassify(parent, child)
        self.times.update(self._time_journal)
        self._time_journal.clear()

    # -- Algorithm 3 ----------------------------------------------------

    def move(self, rng: random.Random) -> None:
        """Apply one Alg. 3 proposal (steps 1–3) to the working overlay."""

        self._random_edge_change(rng)
        self._repair_connectivity()
        self._rebalance_roles(rng)

    def _random_edge_change(self, rng: random.Random) -> None:
        """Alg. 3 step 1: remove a removable edge or add a forward non-edge."""

        if rng.random() < self.config.remove_probability:
            removable = self._removable_edges()
            if removable:
                self._remove_edge(*rng.choice(removable))
                return
        pair = self._sample_non_edge(rng)
        if pair is not None and self.space.are_connected(*pair):
            self._add_edge(*pair)

    def _removable_edges(self) -> list[tuple[int, int]]:
        """Edges whose removal leaves both endpoints' invariants satisfied.

        (p, c) qualifies when p keeps at least f+1 children and c at least its
        required predecessors.  Listed in ``Overlay.edges()`` order, which is
        what ``rng.choice`` indexes.
        """

        predecessors, needed = self.overlay.predecessors, self.needed
        spare = self.overlay.f + 1
        return [
            (parent, child)
            for parent, children in self.overlay.successors.items()
            if len(children) > spare
            for child in children
            if len(predecessors[child]) > needed[child]
        ]

    def _sample_non_edge(self, rng: random.Random) -> tuple[int, int] | None:
        """Sample a non-edge (parent, child) pair with parent strictly shallower."""

        if len(self.nodes) < 2:
            return None
        depth_of = self.overlay.depth_of
        for _ in range(_SAMPLE_ATTEMPTS):
            u, v = rng.sample(self.nodes, 2)
            if depth_of[u] > depth_of[v]:
                u, v = v, u
            if depth_of[u] >= depth_of[v]:
                continue
            if v not in self.overlay.successors[u]:
                return u, v
        return None

    def _repair_connectivity(self) -> None:
        """Alg. 3 step 2: restore f+1 successors / required predecessors.

        Non-leaves short of successors first, shallow layers before deep ones,
        then nodes short of predecessors by id; each takes its lowest-latency
        connectable candidates.  Costs nothing while both sets are empty,
        which is the common case.
        """

        overlay, space = self.overlay, self.space
        depth_of = overlay.depth_of
        for node in sorted(self.short_successors, key=lambda n: (depth_of[n], n)):
            children = overlay.successors[node]
            candidates = [
                c
                for c in self.by_depth[self.deeper_from[depth_of[node]] :]
                if c not in children and space.are_connected(node, c)
            ]
            candidates.sort(key=lambda c: (space.latency(node, c), c))
            for child in candidates[: overlay.f + 1 - len(children)]:
                self._add_edge(node, child)
        for node in sorted(self.short_predecessors):
            parents = overlay.predecessors[node]
            candidates = [
                p
                for p in self.by_depth[: self.shallower[depth_of[node]]]
                if p not in parents and space.are_connected(p, node)
            ]
            candidates.sort(key=lambda p: (space.latency(p, node), p))
            for parent in candidates[: self.needed[node] - len(parents)]:
                self._add_edge(parent, node)

    def _rebalance_roles(self, rng: random.Random) -> None:
        """Alg. 3 step 3: shift load from low-rank near-root nodes to high-rank ones."""

        overlay, space, rank_of = self.overlay, self.space, self.rank_of
        overload = overlay.f + 1 + self.config.overload_slack
        overloaded = [n for n in self.shallow if len(overlay.successors[n]) > overload]
        if not overloaded:
            return
        node = rng.choice(overloaded)
        child = rng.choice(overlay.successors[node])
        parents = overlay.predecessors[child]
        replacements = [
            p
            for p in self.by_depth[: self.shallower[overlay.depth_of[child]]]
            if rank_of[p] > rank_of[node]
            and p not in parents
            and space.are_connected(p, child)
        ]
        if not replacements:
            return
        replacement = min(
            replacements, key=lambda p: (-rank_of[p], space.latency(p, child), p)
        )
        self._remove_edge(node, child)
        self._add_edge(replacement, child)


def generate_neighbor(
    overlay: Overlay,
    space: OverlaySpace,
    ranks: RankTracker,
    rng: random.Random,
    config: GenerateNeighborConfig | None = None,
    objective_config: ObjectiveConfig | None = None,
) -> Overlay:
    """Algorithm 3: propose a neighbouring overlay configuration.

    *overlay* is left untouched; the proposal is a mutated copy.
    """

    state = _AnnealState(overlay.copy(), space, ranks, config, objective_config)
    old_value = state.objective().total
    state.move(rng)
    # Step 4 (literal pseudocode only): discard non-improving proposals.
    if state.config.greedy_filter and state.objective().total >= old_value:
        return overlay
    return state.overlay


def anneal(
    overlay: Overlay,
    space: OverlaySpace,
    ranks: RankTracker,
    config: AnnealingConfig | None = None,
    neighbor_config: GenerateNeighborConfig | None = None,
    objective_config: ObjectiveConfig | None = None,
    rng: random.Random | None = None,
) -> Overlay:
    """Algorithm 2: Metropolis annealing from *overlay* to an optimized one."""

    if config is None:
        config = AnnealingConfig()
    if rng is None:
        rng = random.Random(0)

    state = _AnnealState(overlay.copy(), space, ranks, neighbor_config, objective_config)
    current_value = state.objective().total
    best = overlay
    best_value = current_value

    temperature = config.initial_temperature
    while temperature > config.min_temperature:
        for _ in range(config.moves_per_temperature):
            state.move(rng)
            candidate_value = state.objective().total
            if state.config.greedy_filter and candidate_value >= current_value:
                # Alg. 3 step 4: the proposal is dropped and the current
                # overlay stands in for it (and is then trivially accepted).
                state.undo()
                candidate_value = current_value
            delta = candidate_value - current_value
            if delta < 0 or math.exp(-delta / temperature) > rng.random():
                state.accept()
                current_value = candidate_value
                if candidate_value < best_value:
                    best, best_value = state.overlay.copy(), candidate_value
            else:
                state.undo()
        temperature *= config.cooling_rate
    return best

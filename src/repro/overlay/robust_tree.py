"""Robust-tree construction — Algorithm 1 of the paper.

Construction proceeds in three stages:

1. **Entry points** — ``f+1`` roots at depth 0, chosen for role balance
   (accumulated rank, see :mod:`repro.overlay.rank`) with latency as the
   tiebreaker.
2. **Layered growth** — layer ``d`` admits up to ``2^d (f+1)`` nodes that are
   connected (in the overlay space) to *all* nodes of layer ``d-1``; each new
   node is wired to every node of the previous layer, which is what makes the
   structure *robust*: ``f`` faulty parents cannot cut a child off.
3. **Missing nodes** — nodes that never matched the doubling pattern (possible
   when building over the sparse physical graph) are attached with ``f+1``
   lowest-latency edges to existing members.

The resulting tree deliberately over-provisions edges; call sites then run
:func:`prune_to_minimal` and/or :func:`repro.overlay.annealing.anneal` to trim
it to a low-latency ``f+1``-connected subset, per §V-B.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import TopologyError
from ..net.topology import PhysicalNetwork
from ..utils.rng import derive_rng
from .annealing import AnnealingConfig, anneal
from .base import Overlay, OverlaySpace, TransportSpace
from .objective import ObjectiveConfig
from .rank import RankTracker

__all__ = [
    "RobustTreeConfig",
    "build_robust_tree",
    "prune_to_minimal",
    "build_overlay_family",
]

# Back-compat alias; the constant now lives next to the default
# OverlaySpace.average_latency implementation it parameterizes.
from .base import LATENCY_SAMPLE_SIZE as _LATENCY_SAMPLE_SIZE  # noqa: E402


@dataclass(frozen=True, slots=True)
class RobustTreeConfig:
    """Knobs for Algorithm 1.

    ``branching_base`` is the layer growth factor (the paper doubles);
    ``layer_connect_count`` optionally caps how many previous-layer parents a
    new node is wired to (``None`` = all of them, the paper's construction —
    quadratic in layer width, prune afterwards).
    """

    branching_base: int = 2
    layer_connect_count: int | None = None

    def __post_init__(self) -> None:
        if self.branching_base < 2:
            raise TopologyError("branching_base must be at least 2")
        if self.layer_connect_count is not None and self.layer_connect_count < 1:
            raise TopologyError("layer_connect_count must be positive when set")


def _average_latency_to_peers(
    node: int, peers: list[int], space: OverlaySpace, rng: random.Random
) -> float:
    """Mean latency from *node* to a deterministic sample of *peers*.

    Delegates to :meth:`OverlaySpace.average_latency`, whose default is this
    function's historical body (spaces with closed-form means override it).
    """

    return space.average_latency(node, peers, rng)


def build_robust_tree(
    node_ids: list[int],
    space: OverlaySpace,
    f: int,
    overlay_id: int,
    ranks: RankTracker,
    config: RobustTreeConfig | None = None,
    seed: int = 0,
) -> Overlay:
    """Run Algorithm 1 once, producing one (unpruned) robust tree.

    Updates *ranks* with each node's depth (lines 22–24) so subsequent calls
    balance roles across the family.
    """

    if config is None:
        config = RobustTreeConfig()
    if len(node_ids) < f + 1:
        raise TopologyError(f"{len(node_ids)} nodes cannot host f+1={f + 1} entry points")

    rng = derive_rng(seed, "robust-tree", overlay_id)
    all_nodes = sorted(node_ids)

    # --- Stage 1: entry points (lines 3–6) ----------------------------
    latency_cache: dict[int, float] = {}

    def latency_key(node: int) -> float:
        if node not in latency_cache:
            latency_cache[node] = _average_latency_to_peers(node, all_nodes, space, rng)
        return latency_cache[node]

    # The first entry is the least-favoured node overall; the other f come
    # from its neighbourhood so the entry set shares common neighbours —
    # without that, no node can satisfy "connected to all nodes of the
    # previous rank" over a sparse physical graph.  (In transport space the
    # neighbourhood is everyone, so this reduces to plain rank selection.)
    first = ranks.select_for_near_root(all_nodes, 1, latency_key)[0]
    if space.complete:
        nearby = [n for n in all_nodes if n != first]
    else:
        nearby = [n for n in all_nodes if n != first and space.are_connected(first, n)]
    pool = nearby if len(nearby) >= f else [n for n in all_nodes if n != first]
    entries = [first] + ranks.select_for_near_root(pool, f, latency_key)
    overlay = Overlay.empty(overlay_id, f, entries)
    remaining = [n for n in all_nodes if n not in set(entries)]

    # --- Stage 2: layered growth (lines 8–15) --------------------------
    depth = 1
    previous_layer = list(entries)
    while remaining:
        capacity = (config.branching_base**depth) * (f + 1)
        if space.complete:
            # Every pair is connectable: the scan below would accept all of
            # remaining, at O(|remaining| × |layer|) are_connected calls.
            candidates = remaining
        else:
            candidates = [
                n
                for n in remaining
                if all(space.are_connected(n, parent) for parent in previous_layer)
            ]
        if not candidates:
            break

        # One layer-mean function per layer; the default closure reproduces
        # the historical per-candidate sum exactly, closed-form spaces make
        # it O(1) per candidate (see OverlaySpace.layer_latency_fn).
        layer_latency = space.layer_latency_fn(previous_layer)

        selected = ranks.select_for_near_root(candidates, capacity, layer_latency)
        for node in selected:
            overlay.add_node(node, depth)
            parents = previous_layer
            if (
                config.layer_connect_count is not None
                and len(parents) > config.layer_connect_count
            ):
                parents = space.nearest_parents(
                    node, previous_layer, max(config.layer_connect_count, f + 1)
                )
            for parent in parents:
                overlay.add_edge(parent, node)
        chosen = set(selected)
        remaining = [n for n in remaining if n not in chosen]
        previous_layer = selected
        depth += 1

    # --- Stage 3: missing nodes (lines 17–21) ---------------------------
    if remaining:
        _attach_missing_nodes(overlay, space, remaining, all_nodes, f)

    # --- Rank update (lines 22–24) --------------------------------------
    ranks.absorb_overlay(overlay.depth_of)
    return overlay


def _attach_missing_nodes(
    overlay: Overlay,
    space: OverlaySpace,
    remaining: list[int],
    all_nodes: list[int],
    f: int,
) -> None:
    """Attach every remaining node with ``f+1`` strictly shallower parents.

    A greedy "attach when f+1 neighbours joined" pass deadlocks on sparse
    physical graphs (clusters of pending nodes whose neighbours are all
    pending).  Instead we compute a depth fixpoint: a pending node's depth is
    one more than the ``(f+1)``-th smallest depth among its neighbours —
    which is exactly the smallest depth at which ``f+1`` strictly shallower
    parents exist.  On an ``f+1``-connected graph the fixpoint assigns every
    node a finite depth.
    """

    import math

    depth: dict[int, float] = {n: math.inf for n in remaining}
    for member, member_depth in overlay.depth_of.items():
        depth[member] = member_depth

    neighbours = {
        node: [m for m in all_nodes if m != node and space.are_connected(node, m)]
        for node in remaining
    }
    changed = True
    while changed:
        changed = False
        for node in remaining:
            finite = sorted(depth[m] for m in neighbours[node] if depth[m] < depth[node])
            if len(finite) < f + 1:
                continue
            candidate = finite[f] + 1
            if candidate < depth[node]:
                depth[node] = candidate
                changed = True
    stuck = [n for n in remaining if math.isinf(depth[n])]
    if stuck:
        raise TopologyError(
            f"nodes {stuck[:5]} cannot reach f+1 = {f + 1} shallower neighbours; "
            "the physical graph is too sparse"
        )

    for node in sorted(remaining, key=lambda n: (depth[n], n)):
        parents = [m for m in neighbours[node] if depth[m] < depth[node]]
        parents.sort(key=lambda m: (space.latency(m, node), m))
        overlay.add_node(node, int(depth[node]))
        for parent in parents[: f + 1]:
            overlay.add_edge(parent, node)


def prune_to_minimal(overlay: Overlay, space: OverlaySpace) -> Overlay:
    """Trim each node's predecessors to its ``f+1`` lowest-latency parents.

    This is the deterministic bulk of the "excess links pruned" step of §V-B;
    simulated annealing then fine-tunes the remainder.  Reachability is
    preserved because every surviving predecessor is strictly shallower.
    """

    pruned = overlay.copy()
    counts = pruned.shallower_counts()
    for node in pruned.nodes():
        needed = pruned.required_predecessors(node, counts)
        preds = pruned.predecessors.get(node, [])
        if len(preds) <= max(needed, pruned.f + 1):
            continue
        keep = sorted(preds, key=lambda p: (space.latency(p, node), p))[
            : max(needed, pruned.f + 1)
        ]
        for parent in list(preds):
            if parent not in keep:
                pruned.remove_edge(parent, node)
    return pruned


def build_overlay_family(
    physical: PhysicalNetwork,
    f: int,
    k: int,
    space: OverlaySpace | None = None,
    tree_config: RobustTreeConfig | None = None,
    annealing_config: AnnealingConfig | None = None,
    objective_config: ObjectiveConfig | None = None,
    optimize: bool = True,
    rank_balancing: bool = True,
    seed: int = 0,
) -> tuple[list[Overlay], RankTracker]:
    """Build and optimize the ``k`` robust-tree overlays HERMES uses.

    Returns the overlays (validated) and the final rank tracker (whose
    snapshot is what Fig. 4 plots).  ``rank_balancing=False`` disables the
    accumulated-rank rotation between overlays (an ablation: every overlay is
    then built as if it were the first, so roles concentrate).
    """

    if k < 1:
        raise TopologyError(f"need at least one overlay, got k={k}")
    if space is None:
        space = TransportSpace(physical)
    ranks = RankTracker(physical.nodes())
    overlays: list[Overlay] = []
    for overlay_id in range(k):
        build_ranks = ranks if rank_balancing else RankTracker(physical.nodes())
        tree = build_robust_tree(
            physical.nodes(), space, f, overlay_id, build_ranks, tree_config, seed=seed
        )
        if not rank_balancing:
            # Keep the global tracker informed for Fig. 4 accounting even
            # though construction ignored it.
            ranks.absorb_overlay(tree.depth_of)
        if optimize:
            tree = prune_to_minimal(tree, space)
            tree = anneal(
                tree,
                space,
                build_ranks,
                config=annealing_config,
                objective_config=objective_config,
                rng=derive_rng(seed, "anneal", overlay_id),
            )
        tree.validate(expected_nodes=physical.nodes())
        overlays.append(tree)
    return overlays, ranks

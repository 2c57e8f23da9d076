#!/usr/bin/env python3
"""Overlay playground: compare structures and watch the optimizer work.

Reproduces Fig. 2 interactively — robust tree vs chordal ring vs hypercube vs
random overlay — then walks one robust tree through the §V-B optimization
pipeline (prune, anneal) printing the Eq. (1) objective at each stage, and
finishes with the erasure-coded dissemination math of §VIII-D.

Run:  python examples/overlay_playground.py
"""

from __future__ import annotations

import statistics

from repro.core.erasure import decode_shards, encode_shards, hermes_erasure_parameters
from repro.experiments import fig2_overlays
from repro.net import generate_physical_network
from repro.overlay import (
    AnnealingConfig,
    RankTracker,
    TransportSpace,
    anneal,
    build_robust_tree,
    evaluate_overlay,
)
from repro.overlay.robust_tree import prune_to_minimal
from repro.utils.rng import derive_rng


def main() -> None:
    print("=== Fig. 2: overlay structures (N=120, f=1) ===")
    config = fig2_overlays.Fig2Config(num_nodes=120, f=1, seed=4)
    result, _ = fig2_overlays.FIGURE.run(config)
    print(fig2_overlays.format_result(result))

    print("\n=== The optimization pipeline on one robust tree ===")
    physical = generate_physical_network(120, min_degree=4, seed=4)
    space = TransportSpace(physical)
    ranks = RankTracker(physical.nodes())
    tree = build_robust_tree(
        physical.nodes(), space, f=1, overlay_id=0, ranks=ranks, seed=4
    )

    def describe(stage: str, overlay) -> None:
        value = evaluate_overlay(overlay, space, ranks)
        arrivals = overlay.arrival_times(space)
        print(
            f"  {stage:10s} edges={overlay.num_edges:5d}  "
            f"avg-arrival={statistics.mean(arrivals.values()):7.1f} ms  "
            f"objective={value.total:9.1f}"
        )

    describe("raw", tree)
    pruned = prune_to_minimal(tree, space)
    describe("pruned", pruned)
    annealed = anneal(
        pruned,
        space,
        ranks,
        config=AnnealingConfig(
            initial_temperature=30.0, min_temperature=1.0,
            cooling_rate=0.9, moves_per_temperature=3,
        ),
        rng=derive_rng(4, "playground"),
    )
    describe("annealed", annealed)
    annealed.validate(expected_nodes=physical.nodes())
    print("  all invariants hold after optimization (f+1-connectivity etc.)")

    print("\n=== Erasure-coded dissemination (§VIII-D) ===")
    f, k = 2, 3
    data_shards, total_shards = hermes_erasure_parameters(f, k)
    batch = b"a batch of transactions" * 30
    shards = encode_shards(batch, data_shards, total_shards)
    print(f"  batch of {len(batch)} bytes -> {total_shards} shards of "
          f"{len(shards[0].data)} bytes over {total_shards} disjoint paths")
    survivors = shards[f:]
    recovered = decode_shards(survivors, data_shards, len(batch))
    assert recovered == batch
    print(f"  {f} shards lost to faulty paths; the remaining "
          f"{len(survivors)} recover the batch exactly")
    overhead = total_shards * len(shards[0].data) / len(batch) - 1
    print(f"  bandwidth overhead vs raw: {overhead:.0%} "
          f"(instead of {f + 1}x for full replication on f+1 paths)")


if __name__ == "__main__":
    main()

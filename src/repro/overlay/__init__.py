"""Overlay structures and their optimization (paper §V).

The package provides:

* :class:`~repro.overlay.base.Overlay` — the layered, directed dissemination
  structure every protocol component consumes (entry points, predecessor /
  successor maps, depth labels);
* :mod:`~repro.overlay.robust_tree` — Algorithm 1 (robust-tree construction);
* :mod:`~repro.overlay.objective` — the objective function of Eq. (1);
* :mod:`~repro.overlay.annealing` — Algorithms 2 and 3 (simulated annealing
  with rank-penalty role balancing);
* comparison structures for Fig. 2 (:mod:`chordal_ring`, :mod:`hypercube`,
  :mod:`random_graph`);
* :mod:`~repro.overlay.encoding` — Algorithm 5 (compact signed tree encoding);
* :mod:`~repro.overlay.paths` — vertex-disjoint path discovery used by senders
  to reach the ``f+1`` entry points.

Importing the package does not import networkx: its only users here — the
three comparison structures and :func:`find_disjoint_paths` — load it on
their first call.
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "annealing": (
            "AnnealingConfig",
            "GenerateNeighborConfig",
            "anneal",
            "generate_neighbor",
        ),
        "base": ("Overlay", "OverlaySpace", "PhysicalSpace", "TransportSpace"),
        "chordal_ring": ("build_chordal_ring",),
        "encoding": (
            "EncodedOverlay",
            "OverlayCertificate",
            "decode_overlay",
            "encode_overlay",
        ),
        "hypercube": ("build_hypercube",),
        "objective": ("ObjectiveConfig", "ObjectiveValue", "evaluate_overlay"),
        "paths": ("find_disjoint_paths",),
        "random_graph": ("build_random_connected_overlay",),
        "rank": ("RankTracker",),
        "robust_tree": ("build_overlay_family", "build_robust_tree"),
    },
)

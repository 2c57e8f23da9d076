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

from .annealing import AnnealingConfig, GenerateNeighborConfig, anneal, generate_neighbor
from .base import Overlay, OverlaySpace, PhysicalSpace, TransportSpace
from .chordal_ring import build_chordal_ring
from .encoding import EncodedOverlay, OverlayCertificate, decode_overlay, encode_overlay
from .hypercube import build_hypercube
from .objective import ObjectiveConfig, ObjectiveValue, evaluate_overlay
from .paths import find_disjoint_paths
from .random_graph import build_random_connected_overlay
from .rank import RankTracker
from .robust_tree import build_overlay_family, build_robust_tree

__all__ = [
    "AnnealingConfig",
    "EncodedOverlay",
    "GenerateNeighborConfig",
    "ObjectiveConfig",
    "ObjectiveValue",
    "Overlay",
    "OverlayCertificate",
    "OverlaySpace",
    "PhysicalSpace",
    "RankTracker",
    "TransportSpace",
    "anneal",
    "build_chordal_ring",
    "build_hypercube",
    "build_overlay_family",
    "build_random_connected_overlay",
    "build_robust_tree",
    "decode_overlay",
    "encode_overlay",
    "evaluate_overlay",
    "find_disjoint_paths",
    "generate_neighbor",
]

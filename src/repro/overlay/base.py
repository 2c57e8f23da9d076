"""The overlay abstraction: a layered, directed dissemination structure.

An :class:`Overlay` is a DAG whose nodes carry a *depth* (0 for the ``f+1``
entry points) and whose edges always point from shallower to strictly deeper
nodes.  Messages enter at the entry points and flow along successor edges;
accountability checks (§VI-C) ask "is this sender one of my predecessors?",
which is a dictionary lookup here.

Robustness invariant (§IV): every non-entry node has at least ``f+1``
predecessors (bounded by the size of the shallower population), so up to ``f``
faulty neighbours cannot cut a correct node off.

The :class:`OverlaySpace` strategy decides which node pairs may be joined by
an overlay edge and at what latency:

* :class:`TransportSpace` — any pair (blockchain P2P runs over the internet;
  this is the mode the paper's evaluation uses, where Narwhal and L∅ get a
  "connected topology");
* :class:`PhysicalSpace` — only links of the physical graph ``G``;
* :class:`RegionMeanSpace` — any pair, at the *expected* regional latency.
  An O(1)-per-query space for paper-scale construction (``N = 10,000``),
  where per-pair sampling would materialize millions of cached draws.

Besides the two mandatory queries (``are_connected``, ``latency``), a space
may override the bulk hooks construction hot loops call — ``average_latency``,
``layer_latency_fn``, ``nearest_parents`` — whose defaults reproduce the
historical scalar behaviour byte-for-byte.  See docs/performance.md.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from ..errors import OverlayConnectivityError, TopologyError
from ..net.topology import PhysicalNetwork
from ..types import Region

__all__ = [
    "Overlay",
    "OverlaySpace",
    "TransportSpace",
    "PhysicalSpace",
    "RegionMeanSpace",
]

# How many peers to sample when estimating a node's "latency to its
# neighbours" for entry-point selection (keeps selection O(n · sample)).
LATENCY_SAMPLE_SIZE = 24


class OverlaySpace:
    """Which overlay edges are allowed, and how expensive they are."""

    # True when are_connected(u, v) holds for every distinct pair.  Complete
    # spaces let construction skip O(candidates × layer) connectivity scans.
    complete: bool = False

    def are_connected(self, u: int, v: int) -> bool:
        raise NotImplementedError

    def latency(self, u: int, v: int) -> float:
        raise NotImplementedError

    # -- bulk hooks (defaults = the historical scalar code paths) --------

    def average_latency(
        self, node: int, peers: Sequence[int], rng: random.Random
    ) -> float:
        """Mean latency from *node* to a deterministic sample of *peers*.

        Byte-identical to the original entry-point-selection estimate
        (including its rng.sample draw); subclasses with closed-form means
        may skip the sampling entirely.
        """

        others = [p for p in peers if p != node and self.are_connected(node, p)]
        if not others:
            return float("inf")
        if len(others) > LATENCY_SAMPLE_SIZE:
            others = rng.sample(others, LATENCY_SAMPLE_SIZE)
        return sum(self.latency(node, p) for p in others) / len(others)

    def layer_latency_fn(self, layer: Sequence[int]) -> Callable[[int], float]:
        """A function mapping a node to its mean latency toward *layer*.

        Called once per layer; the returned callable runs once per candidate.
        The default is the exact historical per-candidate sum.
        """

        size = len(layer)

        def mean_latency(node: int) -> float:
            return sum(self.latency(node, p) for p in layer) / size

        return mean_latency

    def nearest_parents(
        self, node: int, parents: Sequence[int], cap: int
    ) -> list[int]:
        """The *cap* lowest-latency members of *parents* for *node*.

        Default: full deterministic sort, byte-identical to the historical
        inline ``sorted(...)[:cap]``.
        """

        return sorted(parents, key=lambda p: (self.latency(p, node), p))[:cap]


class TransportSpace(OverlaySpace):
    """All pairs connectable; latency comes from the transport model.

    Construction reads the same pairs over and over (entry-point selection,
    pruning, every annealing move), so the space keeps each latency it has
    read, keyed by the ordered pair: one ``transport_latency`` call per
    distinct pair for as long as the space lives (one
    ``build_overlay_family`` call).  A topology mutation bumps
    ``physical.version`` and empties the memo.
    """

    complete = True

    def __init__(self, physical: PhysicalNetwork) -> None:
        self._physical = physical
        self._memo: dict[tuple[int, int], float] = {}
        self._version = physical.version

    def are_connected(self, u: int, v: int) -> bool:
        return u != v

    def latency(self, u: int, v: int) -> float:
        if self._version != self._physical.version:
            self._memo.clear()
            self._version = self._physical.version
        key = (u, v) if u < v else (v, u)
        latency = self._memo.get(key)
        if latency is None:
            latency = self._memo[key] = self._physical.transport_latency(u, v)
        return latency


class PhysicalSpace(OverlaySpace):
    """Only physical links of ``G`` may become overlay edges."""

    def __init__(self, physical: PhysicalNetwork) -> None:
        self._physical = physical

    def are_connected(self, u: int, v: int) -> bool:
        return self._physical.has_edge(u, v)

    def latency(self, u: int, v: int) -> float:
        return self._physical.latency(u, v)


class RegionMeanSpace(OverlaySpace):
    """All pairs connectable, at the expected latency of their region pair.

    A deliberate paper-scale approximation of :class:`TransportSpace`:
    ``latency(u, v)`` is the latency model's analytic mean for the two
    regions (O(1), no per-pair draws to cache), which makes robust-tree
    construction over ``N = 10,000`` nodes linear-ish instead of quadratic.
    Two deviations from the per-pair space, both documented in
    docs/performance.md:

    * construction optimizes against region-level expectations, not the
      per-pair draws the simulator uses (the simulator itself is unchanged);
    * :meth:`nearest_parents` breaks the resulting massive latency ties by
      rotating deterministically on the child's node id, so same-region
      children spread across the layer instead of piling onto the
      lexicographically smallest parents.

    All methods are deterministic and draw no randomness.
    """

    complete = True

    def __init__(self, physical: PhysicalNetwork) -> None:
        self._physical = physical
        self._regions = physical.regions
        model = physical.latency_model
        # Region enum members keyed by identity; expectations precomputed for
        # every ordered pair (81 entries) so latency() is two dict hits.
        self._expected: dict[tuple[object, object], float] = {}
        regions = sorted({r for r in physical.regions.values()}, key=lambda r: r.value)
        for a in regions:
            for b in regions:
                self._expected[(a, b)] = model.expected(a, b)
        # Memos for the current construction layer / population: the hot
        # loops call these once per child with the same sequence object, so
        # holding a strong reference and comparing identity is safe and O(1).
        self._layer_ref: Sequence[int] | None = None
        self._layer_groups: list[tuple[Region, list[int]]] = []
        self._peers_ref: Sequence[int] | None = None
        self._peers_histogram: list[tuple[Region, int]] = []
        self._peers_set: set[int] = set()

    def are_connected(self, u: int, v: int) -> bool:
        return u != v

    def latency(self, u: int, v: int) -> float:
        if u == v:
            return 0.0
        return self._expected[(self._regions[u], self._regions[v])]

    def average_latency(
        self, node: int, peers: Sequence[int], rng: random.Random
    ) -> float:
        """Exact population mean toward *peers* via a region histogram.

        O(regions) per call after one O(peers) histogram, memoized on the
        peers sequence object (entry-point selection queries every node
        against the same population list).  Uses the full population rather
        than a 24-peer sample — it *is* the expectation the sample estimates.
        Draws nothing from *rng* (kept for interface compatibility).
        """

        if self._peers_ref is not peers:
            counts: dict[Region, int] = {}
            for peer in peers:
                region = self._regions[peer]
                counts[region] = counts.get(region, 0) + 1
            self._peers_histogram = sorted(
                counts.items(), key=lambda item: item[0].value
            )
            self._peers_set = set(peers)
            self._peers_ref = peers
        my_region = self._regions[node]
        total = 0.0
        count = 0
        for region, num in self._peers_histogram:
            total += num * self._expected[(my_region, region)]
            count += num
        if node in self._peers_set:
            # The population averaged over is "peers other than the node":
            # drop its own (self-latency) contribution from the mean.
            total -= self._expected[(my_region, my_region)]
            count -= 1
        return total / count if count else float("inf")

    def layer_latency_fn(self, layer: Sequence[int]) -> Callable[[int], float]:
        """O(1)-per-candidate layer mean from a per-region histogram.

        Assumes the queried node is not itself a layer member (construction
        evaluates candidates from ``remaining``, which is disjoint from the
        previous layer) — a member's own zero self-latency is not special-
        cased the way the default per-pair sum would handle it.
        """

        size = len(layer)
        counts: dict[Region, int] = {}
        for member in layer:
            region = self._regions[member]
            counts[region] = counts.get(region, 0) + 1
        pairs = sorted(counts.items(), key=lambda item: item[0].value)
        expected = self._expected
        regions = self._regions
        memo: dict[Region, float] = {}

        def mean_latency(node: int) -> float:
            mine = regions[node]
            cached = memo.get(mine)
            if cached is None:
                cached = (
                    sum(num * expected[(mine, other)] for other, num in pairs) / size
                )
                memo[mine] = cached
            return cached

        return mean_latency

    def nearest_parents(
        self, node: int, parents: Sequence[int], cap: int
    ) -> list[int]:
        """The *cap* nearest parents, with deterministic tie rotation.

        Parents are grouped by region, groups ordered by expected latency
        from the child's region (ties by region name, then id); within a
        group the start offset rotates by ``node`` so equal-latency load
        spreads across the layer.  This is a paper-scale deviation from the
        exact per-pair sort — see the class docstring.
        """

        if self._layer_ref is not parents:
            by_region: dict[Region, list[int]] = {}
            for member in parents:
                by_region.setdefault(self._regions[member], []).append(member)
            self._layer_groups = [
                (region, sorted(members))
                for region, members in sorted(
                    by_region.items(), key=lambda item: item[0].value
                )
            ]
            self._layer_ref = parents
        my_region = self._regions[node]
        ordered_groups = sorted(
            self._layer_groups,
            key=lambda item: (self._expected[(my_region, item[0])], item[0].value),
        )
        picked: list[int] = []
        for _region, members in ordered_groups:
            width = len(members)
            start = node % width
            for i in range(width):
                member = members[(start + i) % width]
                if member != node:
                    picked.append(member)
                    if len(picked) == cap:
                        return picked
        return picked


@dataclass
class Overlay:
    """A directed, layered dissemination overlay.

    Invariants (checked by :meth:`validate`):

    * entry points have depth 0 and no predecessors;
    * every edge goes from a shallower node to a strictly deeper one;
    * every non-entry node has ``min(f+1, shallower population)`` predecessors.
    """

    overlay_id: int
    f: int
    entry_points: tuple[int, ...]
    depth_of: dict[int, int]
    successors: dict[int, list[int]] = field(default_factory=dict)
    predecessors: dict[int, list[int]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls, overlay_id: int, f: int, entry_points: Sequence[int]) -> "Overlay":
        entries = tuple(entry_points)
        if len(set(entries)) != len(entries):
            raise TopologyError("entry points must be distinct")
        return cls(
            overlay_id=overlay_id,
            f=f,
            entry_points=entries,
            depth_of={e: 0 for e in entries},
            successors={e: [] for e in entries},
            predecessors={e: [] for e in entries},
        )

    def add_node(self, node: int, depth: int) -> None:
        if node in self.depth_of:
            raise TopologyError(f"node {node} already in overlay")
        if depth < 1:
            raise TopologyError("only entry points may sit at depth 0")
        self.depth_of[node] = depth
        self.successors[node] = []
        self.predecessors[node] = []

    def add_edge(self, parent: int, child: int) -> None:
        """Add the directed edge parent → child (parent must be shallower)."""

        if parent not in self.depth_of or child not in self.depth_of:
            raise TopologyError("both endpoints must be overlay members")
        if self.depth_of[parent] >= self.depth_of[child]:
            raise TopologyError(
                f"edge {parent}->{child} does not point to a deeper layer"
            )
        if child in self.successors[parent]:
            return
        self.successors[parent].append(child)
        self.predecessors[child].append(parent)

    def remove_edge(self, parent: int, child: int) -> None:
        try:
            self.successors[parent].remove(child)
            self.predecessors[child].remove(parent)
        except (KeyError, ValueError):
            raise TopologyError(f"edge {parent}->{child} not in overlay") from None

    def copy(self) -> "Overlay":
        """Deep-enough copy for annealing moves (shares no mutable state)."""

        return Overlay(
            overlay_id=self.overlay_id,
            f=self.f,
            entry_points=self.entry_points,
            depth_of=dict(self.depth_of),
            successors={k: list(v) for k, v in self.successors.items()},
            predecessors={k: list(v) for k, v in self.predecessors.items()},
        )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def nodes(self) -> list[int]:
        return sorted(self.depth_of)

    @property
    def num_nodes(self) -> int:
        return len(self.depth_of)

    @property
    def num_edges(self) -> int:
        return sum(len(children) for children in self.successors.values())

    def edges(self) -> Iterator[tuple[int, int]]:
        for parent, children in self.successors.items():
            for child in children:
                yield parent, child

    def max_depth(self) -> int:
        return max(self.depth_of.values(), default=0)

    def layers(self) -> dict[int, list[int]]:
        """Depth → sorted nodes at that depth."""

        result: dict[int, list[int]] = {}
        for node, depth in self.depth_of.items():
            result.setdefault(depth, []).append(node)
        for nodes in result.values():
            nodes.sort()
        return dict(sorted(result.items()))

    def is_entry(self, node: int) -> bool:
        return node in self.entry_points

    def is_leaf(self, node: int) -> bool:
        return not self.successors.get(node)

    def contains(self, node: int) -> bool:
        return node in self.depth_of

    def valid_senders(self, node: int) -> frozenset[int]:
        """The only peers a correct node accepts this overlay's traffic from."""

        return frozenset(self.predecessors.get(node, ()))

    def shallower_counts(self) -> dict[int, int]:
        """Map depth → number of nodes strictly shallower than that depth."""

        layer_sizes: dict[int, int] = {}
        for depth in self.depth_of.values():
            layer_sizes[depth] = layer_sizes.get(depth, 0) + 1
        counts: dict[int, int] = {}
        running = 0
        for depth in sorted(layer_sizes):
            counts[depth] = running
            running += layer_sizes[depth]
        return counts

    def required_predecessors(
        self, node: int, shallower_counts: dict[int, int] | None = None
    ) -> int:
        """How many predecessors the robustness invariant demands of *node*.

        Pass a precomputed :meth:`shallower_counts` map when calling in a loop
        — the per-call recount is O(n) otherwise.
        """

        if self.is_entry(node):
            return 0
        if shallower_counts is not None:
            shallower = shallower_counts[self.depth_of[node]]
        else:
            shallower = sum(
                1 for d in self.depth_of.values() if d < self.depth_of[node]
            )
        return min(self.f + 1, shallower)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def reachable(self, failed: Iterable[int] = ()) -> set[int]:
        """Nodes reachable from non-failed entry points avoiding *failed*."""

        blocked = set(failed)
        frontier = [e for e in self.entry_points if e not in blocked]
        seen = set(frontier)
        while frontier:
            node = frontier.pop()
            for child in self.successors.get(node, ()):
                if child not in seen and child not in blocked:
                    seen.add(child)
                    frontier.append(child)
        return seen

    def arrival_times(self, space: OverlaySpace) -> dict[int, float]:
        """Earliest arrival time at each node, entry points at t = 0.

        Processes nodes in depth order (edges only deepen), so each node's
        time is ``min over predecessors`` of their time plus the link latency.
        Unreachable nodes get ``math.inf``.
        """

        times: dict[int, float] = {n: math.inf for n in self.depth_of}
        for entry in self.entry_points:
            times[entry] = 0.0
        ordered = sorted(self.depth_of, key=lambda n: self.depth_of[n])
        for node in ordered:
            if times[node] == math.inf:
                continue
            for child in self.successors.get(node, ()):
                candidate = times[node] + space.latency(node, child)
                if candidate < times[child]:
                    times[child] = candidate
        return times

    def forwarding_load(self) -> dict[int, int]:
        """Messages each node forwards per dissemination (= out-degree)."""

        return {node: len(children) for node, children in self.successors.items()}

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self, expected_nodes: Iterable[int] | None = None) -> None:
        """Raise :class:`OverlayConnectivityError` on any broken invariant."""

        if len(self.entry_points) != self.f + 1:
            raise OverlayConnectivityError(
                f"overlay {self.overlay_id} has {len(self.entry_points)} entry "
                f"points, expected f+1 = {self.f + 1}"
            )
        if expected_nodes is not None:
            missing = set(expected_nodes) - set(self.depth_of)
            if missing:
                raise OverlayConnectivityError(
                    f"overlay {self.overlay_id} misses nodes {sorted(missing)[:5]}..."
                    if len(missing) > 5
                    else f"overlay {self.overlay_id} misses nodes {sorted(missing)}"
                )
        for entry in self.entry_points:
            if self.depth_of.get(entry) != 0:
                raise OverlayConnectivityError(f"entry point {entry} not at depth 0")
            if self.predecessors.get(entry):
                raise OverlayConnectivityError(f"entry point {entry} has predecessors")
        for parent, child in self.edges():
            if self.depth_of[parent] >= self.depth_of[child]:
                raise OverlayConnectivityError(
                    f"edge {parent}->{child} violates depth ordering"
                )
        counts = self.shallower_counts()
        for node in self.depth_of:
            needed = self.required_predecessors(node, counts)
            if len(self.predecessors.get(node, ())) < needed:
                raise OverlayConnectivityError(
                    f"node {node} has {len(self.predecessors.get(node, ()))} "
                    f"predecessors, needs {needed}"
                )
        unreached = set(self.depth_of) - self.reachable()
        if unreached:
            raise OverlayConnectivityError(
                f"nodes not reachable from entry points: {sorted(unreached)[:5]}"
            )

    def tolerates_local_faults(self) -> bool:
        """True when no single set of ``f`` faulty predecessors can isolate a node.

        With >= f+1 predecessors each and f+1 entry points this holds by
        counting; provided as an explicit check for tests and audits.
        """

        try:
            self.validate()
        except OverlayConnectivityError:
            return False
        return True

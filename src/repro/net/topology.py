"""Physical network generation.

The system model (§III) is a labeled graph ``G = (V, E)`` with latency labels
``lat(e)`` and the assumption that every node is reachable through at least
``t`` disjoint paths.  We generate such graphs by assigning nodes to regions,
wiring each node to a mix of same-region and remote peers until everyone has at
least ``min_degree >= t`` neighbours, and then repairing connectivity if the
random wiring left islands.
"""

from __future__ import annotations

import os
import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from heapq import nsmallest
from itertools import chain, combinations, compress
from math import isnan
from typing import (
    TYPE_CHECKING, Callable, Collection, Iterable, Iterator, Mapping, Sequence,
)

from ..errors import TopologyError
from ..types import ALL_REGIONS, Region
from ..utils.rng import derive_rng
from ..utils.validation import require
from .latency import LatencyModel, LatencyParameters

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "PhysicalNetwork",
    "fill_helpers",
    "generate_physical_network",
    "is_vertex_connected",
    "mark_pool_worker",
]

# Probability that a random neighbour is chosen from the node's own region;
# keeps the graph latency-clustered the way real P2P networks are.
_SAME_REGION_BIAS = 0.5

# An undrawn pair: every draw is at least MIN_LATENCY_MS, never NaN.
_UNDRAWN = float("nan")
# Above every latency: how nearest() ranks a cross-region candidate it has
# not looked up, and the least draw of an empty cross-region store.
_UNREAD = float("inf")

# Set in sweep pool workers (see mark_pool_worker).
_pool_worker = False
# Candidate pairs each process of a split fill round reads at least: up to
# ~40 ms of draws (~10 µs each) against a fork, a pipe and a wait of ~2–5 ms.
# A round of fewer than two such shares forks nothing, so no network of a
# few hundred nodes forks, and a round forks no more helpers than it can feed.
_FILL_SHARE_FLOOR = 4_096
# Candidate pairs one fill round takes (it ends at a row's end): bounds what
# a helper holds before it replies, 8 bytes a candidate of its share.
_FILL_ROUND = 1 << 18

# Above this size, validate="auto" switches from the exact node-connectivity
# test (quadratic max-flow) to the O(V+E) structural check.
_FULL_VALIDATE_MAX_NODES = 1024


def _edges(adjacency: Mapping[int, Mapping[int, None]]) -> Iterator[tuple[int, int]]:
    """Each undirected edge once, in ``networkx.Graph.edges`` order (nodes in
    insertion order, each with its not-yet-visited neighbours in insertion
    order).  Latency labels are drawn in this order: every pinned digest
    depends on it."""

    seen: set[int] = set()
    for u, neighbors in adjacency.items():
        for v in neighbors:
            if v not in seen:
                yield u, v
        seen.add(u)


def _path_counter(
    adjacency: Mapping[int, Mapping[int, None]],
) -> Callable[[int, int, int], int]:
    """``count(u, v, limit)``: how many internally vertex-disjoint u–v paths
    exist (Menger), capped at *limit*.

    Unit-capacity augmenting paths on the vertex-split digraph: node *i*
    becomes ``in = 2i → out = 2i + 1`` and each edge the arcs ``u.out → v.in``
    and ``v.out → u.in``.  That digraph has no antiparallel arcs, so pushing a
    unit of flow is reversing the arcs of a path; a query undoes its
    reversals before returning, so one counter serves every pair of a check.
    """

    index = {node: i for i, node in enumerate(adjacency)}
    arcs: list[list[int]] = []
    for node, neighbors in adjacency.items():
        arcs.append([2 * index[node] + 1])
        arcs.append([2 * index[v] for v in neighbors])

    def count(u: int, v: int, limit: int) -> int:
        source, sink = 2 * index[u] + 1, 2 * index[v]
        flipped: list[tuple[int, int]] = []
        found = 0
        while found < limit:
            parent = {source: source}
            frontier = [source]
            while frontier and sink not in parent:  # breadth-first search
                reached = []
                for tail in frontier:
                    for head in arcs[tail]:
                        if head not in parent:
                            parent[head] = tail
                            reached.append(head)
                    if sink in parent:
                        break
                frontier = reached
            if sink not in parent:
                break
            found += 1
            head = sink
            while head != source:
                tail = parent[head]
                arcs[tail].remove(head)
                arcs[head].append(tail)
                flipped.append((tail, head))
                head = tail
        for tail, head in reversed(flipped):
            arcs[head].remove(tail)
            arcs[tail].append(head)
        return found

    return count


class _CrossRegionDraws:
    """Cross-region per-pair draws in sorted columns, one row per lower
    endpoint: ``rows[lo]`` is one ``array('d')`` holding the drawn higher
    endpoints ascending, then their draws in the same order.  A row of *n*
    draws is *n* ids and *n* draws, found by ``bisect`` over its first half
    (node ids are exact as doubles).  One array per row instead of a dict
    entry, a key tuple and a boxed float per pair.

    A mapping over ``(lo, hi)`` keys for :meth:`PhysicalNetwork._pair_slot`'s
    readers: a missing pair reads NaN, like an undrawn cell of a region's
    triangle.  ``transport_latency``, the hot reader, searches ``rows``
    inline instead of calling through it.
    """

    __slots__ = ("rows", "low")

    def __init__(self) -> None:
        self.rows: dict[int, array] = {}
        # The least draw ever kept: a lower bound on every kept draw.
        self.low = _UNREAD

    def _find(self, key: tuple[int, int]) -> tuple[array | None, int, int]:
        """``(row, n, at)``: the row of ``lo`` (None while it has no draw),
        its draw count and where ``hi`` sits or would be inserted."""

        lo, hi = key
        row = self.rows.get(lo)
        if row is None:
            return None, 0, 0
        n = len(row) >> 1
        return row, n, bisect_left(row, hi, 0, n)

    def __getitem__(self, key: tuple[int, int]) -> float:
        row, n, at = self._find(key)
        if at < n and row[at] == key[1]:
            return row[n + at]
        return _UNDRAWN

    def __contains__(self, key: tuple[int, int]) -> bool:
        row, n, at = self._find(key)
        return at < n and row[at] == key[1]

    def __setitem__(self, key: tuple[int, int], value: float) -> None:
        if value < self.low:
            self.low = value
        row, n, at = self._find(key)
        if row is None:
            self.rows[key[0]] = array("d", (key[1], value))
        elif at < n and row[at] == key[1]:
            row[n + at] = value
        else:
            row.insert(n + at, value)
            row.insert(at, key[1])

    def __len__(self) -> int:
        return sum(len(row) for row in self.rows.values()) >> 1


def mark_pool_worker() -> None:
    """Make every later :meth:`PhysicalNetwork.fill_pairs` of this process
    fork nothing.  A sweep pool worker calls it: the pool already runs one
    cell per CPU, and a fill that forked there would oversubscribe them."""

    global _pool_worker
    _pool_worker = True


def fill_helpers() -> int:
    """How many helpers a fill forks: one per CPU this process may run on
    beyond its own, none in a sweep pool worker or where there is no fork."""

    if _pool_worker or not hasattr(os, "fork"):
        return 0
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) - 1
    return (os.cpu_count() or 1) - 1


def is_vertex_connected(adjacency: Mapping[int, Mapping[int, None]], t: int) -> bool:
    """Whether the graph is *t*-vertex-connected — exact, not a heuristic.

    Esfahanian–Hakimi: with *v* a minimum-degree vertex, the connectivity is
    the least of ``deg(v)``, the local connectivity between *v* and each of
    its non-neighbours, and that between each non-adjacent pair of *v*'s
    neighbours.  Every local test stops at *t* paths: a decision procedure,
    not a max-flow computation.
    """

    if len(adjacency) <= t:
        return False
    pivot = min(adjacency, key=lambda node: len(adjacency[node]))
    around = adjacency[pivot]
    if len(around) < t:
        return False
    count = _path_counter(adjacency)
    pairs = chain(
        ((pivot, w) for w in adjacency if w != pivot and w not in around),
        ((x, y) for x, y in combinations(around, 2) if y not in adjacency[x]),
    )
    return all(count(x, y, t) >= t for x, y in pairs)


@dataclass
class PhysicalNetwork:
    """An immutable view of the physical substrate.

    ``adjacency`` maps each node to its neighbours — an insertion-ordered
    dict used as an ordered set (every value is ``None``), wired in both
    directions.  ``latencies`` maps each undirected edge (stored with
    ``u < v``) to its label ``lat(e)`` in milliseconds — the *expected*
    one-way delay used both for overlay optimization and as the base for
    per-message sampling.
    """

    adjacency: dict[int, dict[int, None]]
    regions: Mapping[int, Region]
    latencies: Mapping[tuple[int, int], float]
    latency_model: LatencyModel = field(repr=False)
    pair_seed: int = 0
    # Per-pair draws of the pairs without a link (see transport_latency),
    # NaN until drawn.  Same-region pairs live in one dense triangle per
    # region over its members' local indices (ids ascending): the pair of
    # local indices i < j sits at j*(j-1)/2 + i.  _slots maps a node to (its
    # region's triangle, its local index).  Cross-region pairs live in
    # _cross, sorted columns per lower endpoint.  Built by __post_init__, so
    # dataclasses.replace gets empty tables.
    _slots: dict[int, tuple[array, int]] = field(init=False, repr=False, compare=False)
    _cross: _CrossRegionDraws = field(init=False, repr=False, compare=False)
    _graph_view: nx.Graph | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        members: dict[Region, list[int]] = {}
        for node in sorted(self.regions):
            members.setdefault(self.regions[node], []).append(node)
        self._slots = {}
        self._cross = _CrossRegionDraws()
        for nodes in members.values():
            n = len(nodes)
            table = array("d", [_UNDRAWN]) * (n * (n - 1) // 2)
            for index, node in enumerate(nodes):
                self._slots[node] = (table, index)

    @property
    def graph(self) -> nx.Graph:
        """A read-only networkx rendering of :attr:`adjacency` (same node and
        ``edges`` order) for the code that needs a graph *library* — physical
        disjoint-path routing, tests.  Built, and networkx imported, on first
        use."""

        if self._graph_view is None:
            import networkx as nx

            graph = nx.Graph()
            graph.add_nodes_from(self.adjacency)
            graph.add_edges_from(self.edges())
            self._graph_view = graph
        return self._graph_view

    @property
    def num_nodes(self) -> int:
        return len(self.adjacency)

    def nodes(self) -> list[int]:
        return sorted(self.adjacency)

    def neighbors(self, node: int) -> list[int]:
        return sorted(self.adjacency[node])

    def edges(self) -> Iterator[tuple[int, int]]:
        return _edges(self.adjacency)

    def has_node(self, node: int) -> bool:
        return node in self.adjacency

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency.get(u, ())

    def latency(self, u: int, v: int) -> float:
        """The edge label ``lat(e_{u,v})``; raises for non-edges."""

        key = (u, v) if u < v else (v, u)
        try:
            return self.latencies[key]
        except KeyError:
            raise TopologyError(f"no physical link between {u} and {v}") from None

    def transport_latency(self, u: int, v: int) -> float:
        """Stable one-way latency between any two nodes.

        Physically adjacent pairs use their link label; other pairs use a
        deterministic per-pair draw from the regional model (the internet path
        between them), kept so repeated queries are free.  Overlay
        construction and the simulator both read this, so optimizing an
        overlay against these numbers is meaningful.
        """

        if u == v:
            return 0.0
        key = (u, v) if u < v else (v, u)
        if key in self.latencies:
            return self.latencies[key]
        table, i = self._slots[u]
        other, j = self._slots[v]
        if table is other:
            at = j * (j - 1) // 2 + i if i < j else i * (i - 1) // 2 + j
            drawn = table[at]
            if drawn != drawn:  # NaN: not drawn yet
                drawn = table[at] = self.latency_model.sample_pair(
                    self.pair_seed, u, v, self.regions[u], self.regions[v]
                )
            return drawn
        # _CrossRegionDraws.__getitem__, inlined: this runs once per source
        # and destination of every network's latency rows.
        row = self._cross.rows.get(key[0])
        if row is not None:
            n = len(row) >> 1
            at = bisect_left(row, key[1], 0, n)
            if at < n and row[at] == key[1]:
                return row[n + at]
        drawn = self._cross[key] = self.latency_model.sample_pair(
            self.pair_seed, u, v, self.regions[u], self.regions[v]
        )
        return drawn

    def _pair_slot(
        self, u: int, v: int
    ) -> tuple[array | _CrossRegionDraws, int | tuple[int, int]]:
        """Where the draw of the pair ``u != v`` lives: ``store[at]`` reads it
        (NaN until drawn) and ``store[at] = x`` keeps it.  Raises ``KeyError``
        for a node outside the membership."""

        table, i = self._slots[u]
        other, j = self._slots[v]
        if table is other:
            return table, (j * (j - 1) // 2 + i) if i < j else (i * (i - 1) // 2 + j)
        return self._cross, (u, v) if u < v else (v, u)

    def fill_pairs(self, rows: Iterable[tuple[int, Collection[int]]]) -> None:
        """Draw ahead, with forked helpers, the pairs ``(u, v)`` of *rows*
        ``(u, [v, ...])`` that :meth:`transport_latency` would still draw.

        The caller then reads those pairs and finds them drawn: a draw is a
        pure function of its pair, so only who draws changes, and the tables
        end as the reads alone would leave them (cross-region rows in the
        same insertion order when the reads follow row order).  Where no
        helper is forked — :func:`fill_helpers` is 0, or what is left of
        *rows* is too small to split — nothing is drawn here, and the reads
        draw those pairs as they come.  *rows* are taken in rounds of about
        ``_FILL_ROUND`` candidates, each cut into shares of at least
        ``_FILL_SHARE_FLOOR``: one for this process, one per helper
        (:mod:`repro.net.pair_fill`, loaded on the first round that forks).
        """

        helpers = fill_helpers()
        if not helpers:
            return
        rows = iter(rows)
        while True:
            batch, size = [], 0
            for u, row in rows:
                batch.append((u, row))
                size += len(row)
                if size >= _FILL_ROUND:
                    break
            forks = min(helpers, size // _FILL_SHARE_FLOOR - 1)
            if forks <= 0:
                return
            from .pair_fill import fill_round

            fill_round(self, batch, size, forks)

    def nearest(self, node: int, candidates: Iterable[int], k: int) -> list[int]:
        """The *k* candidates closest to *node* by :meth:`transport_latency`,
        ties in input order — exactly ``sorted(candidates, key=...)[:k]``.

        Only pairs whose latency can change the answer are drawn.  Physical
        links and same-region pairs are read first, in one pass over the
        node's links and triangle row.  Every other candidate is a
        cross-region pair: a kept draw is at least the least one the store
        ever kept, and a fresh draw at least ``LatencyModel.inter_floor_ms``.
        If the *k*-th latency read is under both, no cross-region candidate
        can displace it and none is looked up.  Otherwise the kept
        cross-region draws join, and the rest are drawn only if the *k*-th
        known latency is still not under the floor.
        """

        candidates = list(candidates)
        if k <= 0 or not candidates:
            return []
        latencies, slots = self.latencies, self._slots
        # The labels of node's physical links (latencies holds only edges).
        links = {}
        for other in self.adjacency.get(node, ()):
            key = (node, other) if node < other else (other, node)
            if key in latencies:
                links[other] = latencies[key]
        table, i = slots[node]
        base = i * (i - 1) // 2  # node's cells with the lower local indices
        # Per candidate: its link label, its triangle cell (NaN if undrawn;
        # node itself owns no cell), or inf for a cross-region pair.
        known = [
            links[other] if other in links
            else _UNREAD if other_table is not table
            else 0.0 if j == i
            else table[base + j if j < i else j * (j - 1) // 2 + i]
            for other, (other_table, j) in zip(candidates, map(slots.__getitem__, candidates))
        ]
        region = self.regions[node]
        draw, seed = self.latency_model.sample_pair, self.pair_seed
        for position in compress(range(len(known)), map(isnan, known)):
            other = candidates[position]
            j = slots[other][1]
            at = base + j if j < i else j * (j - 1) // 2 + i
            latency = table[at]  # a repeated candidate was drawn just now
            if latency != latency:
                latency = table[at] = draw(seed, node, other, region, region)
            known[position] = latency
        # nsmallest with a key is sorted(..., key=...)[:k]: ties in input order.
        rank = known.__getitem__
        picked = nsmallest(k, range(len(known)), key=rank)
        floor = self.latency_model.inter_floor_ms
        cross = self._cross
        if known[picked[-1]] < min(cross.low, floor):
            return [candidates[position] for position in picked]
        undrawn = []
        for position, latency in enumerate(known):
            if latency == _UNREAD:
                other = candidates[position]
                kept = cross[(node, other) if node < other else (other, node)]
                if kept == kept:
                    known[position] = kept
                else:
                    undrawn.append(position)
        picked = nsmallest(k, range(len(known)), key=rank)
        if undrawn and known[picked[-1]] >= floor:
            for position in undrawn:
                known[position] = self.transport_latency(node, candidates[position])
            picked = nsmallest(k, range(len(known)), key=rank)
        return [candidates[position] for position in picked]

    def region_of(self, node: int) -> Region:
        return self.regions[node]

    def degree(self, node: int) -> int:
        return len(self.adjacency[node])

    def min_cut_between(self, u: int, v: int) -> int:
        """Number of vertex-disjoint paths between *u* and *v* (Menger)."""

        return _path_counter(self.adjacency)(u, v, min(self.degree(u), self.degree(v)))

    def validate_connectivity(self, t: int) -> None:
        """Raise unless the graph is *t*-vertex-connected.

        Exact but expensive: :func:`is_vertex_connected` runs *t* augmenting
        searches for each of ~N vertex pairs, which is prohibitive beyond a
        few thousand nodes.  Use :meth:`validate_connectivity_fast` when the
        construction already guarantees *t*-connectivity structurally.
        """

        if self.num_nodes <= t:
            raise TopologyError(f"{self.num_nodes} nodes cannot be {t}-connected")
        if not is_vertex_connected(self.adjacency, t):
            raise TopologyError(f"physical network is not {t}-vertex-connected")

    def validate_connectivity_fast(self, t: int) -> None:
        """Check the cheap necessary conditions for *t*-vertex-connectivity.

        Verifies minimum degree >= *t* and single-component connectivity in
        O(V + E).  These are necessary but not sufficient in general; they are
        sufficient for graphs that contain a Harary ring-with-chords skeleton
        (every graph :func:`generate_physical_network` emits), because the
        skeleton alone is ``2*ceil(min_degree/2)``-vertex-connected and extra
        edges never reduce vertex connectivity.
        """

        if self.num_nodes <= t:
            raise TopologyError(f"{self.num_nodes} nodes cannot be {t}-connected")
        adjacency = self.adjacency
        worst = min(adjacency, key=lambda n: (len(adjacency[n]), n))
        if len(adjacency[worst]) < t:
            raise TopologyError(
                f"node {worst} has degree {len(adjacency[worst])} < t = {t}"
            )
        reached = {worst}
        stack = [worst]
        while stack:
            for neighbor in adjacency[stack.pop()]:
                if neighbor not in reached:
                    reached.add(neighbor)
                    stack.append(neighbor)
        if len(reached) < len(adjacency):
            raise TopologyError("physical network is not connected")


def _assign_regions(
    node_ids: Sequence[int], regions: Sequence[Region], rng: random.Random
) -> dict[int, Region]:
    """Spread nodes across regions roughly evenly, with random assignment."""

    assignment = {}
    shuffled = list(node_ids)
    rng.shuffle(shuffled)
    for position, node in enumerate(shuffled):
        assignment[node] = regions[position % len(regions)]
    return assignment


def _pick_neighbor(
    node: int,
    candidates_same: Sequence[int],
    candidates_other: Sequence[int],
    rng: random.Random,
) -> int | None:
    """Choose a peer, biased toward the node's own region."""

    pools: list[Sequence[int]] = []
    if candidates_same and rng.random() < _SAME_REGION_BIAS:
        pools = [candidates_same, candidates_other]
    else:
        pools = [candidates_other, candidates_same]
    for pool in pools:
        if pool:
            return rng.choice(pool)
    return None


def generate_physical_network(
    num_nodes: int,
    min_degree: int = 4,
    regions: Iterable[Region] | None = None,
    latency_parameters: LatencyParameters | None = None,
    latency_model: LatencyModel | None = None,
    seed: int = 0,
    validate: str = "auto",
) -> PhysicalNetwork:
    """Generate a region-clustered physical network.

    Every node ends with degree >= *min_degree*; the Harary ring-with-chords
    skeleton guarantees ``min_degree``-vertex-connectivity by construction so
    the disjoint path assumption of §III holds with ``t = min_degree``.

    *validate* selects how that guarantee is re-checked before returning:
    ``"full"`` runs the exact (quadratic) :func:`is_vertex_connected` test,
    ``"fast"`` the O(V+E) structural check (degree + connectedness — sufficient
    here because the skeleton is t-connected and edges are only ever added),
    and ``"auto"`` (default) picks ``"full"`` up to
    ``_FULL_VALIDATE_MAX_NODES`` nodes and ``"fast"`` beyond, which is what
    makes paper-scale ``N = 10,000`` generation finish in seconds.  Validation
    draws no randomness, so the returned network is byte-identical across all
    three modes.
    """

    require(num_nodes >= 2, f"need at least 2 nodes, got {num_nodes}")
    require(min_degree >= 1, f"min_degree must be >= 1, got {min_degree}")
    require(
        validate in ("auto", "full", "fast"),
        f"validate must be 'auto', 'full' or 'fast', got {validate!r}",
    )
    require(
        min_degree < num_nodes,
        f"min_degree {min_degree} impossible with {num_nodes} nodes",
    )

    region_list = tuple(regions) if regions is not None else ALL_REGIONS
    rng = derive_rng(seed, "topology")
    node_ids = list(range(num_nodes))
    region_of = _assign_regions(node_ids, region_list, rng)

    by_region: dict[Region, list[int]] = {}
    for node, region in region_of.items():
        by_region.setdefault(region, []).append(node)

    adjacency: dict[int, dict[int, None]] = {node: {} for node in node_ids}

    def link(u: int, v: int) -> None:
        adjacency[u][v] = adjacency[v][u] = None

    # A Harary-style ring-with-chords skeleton guarantees min_degree-vertex-
    # connectivity; random region-biased edges on top provide realism.
    half = max(1, min_degree // 2 + min_degree % 2)
    for node in node_ids:
        for offset in range(1, half + 1):
            link(node, (node + offset) % num_nodes)

    for node in node_ids:
        attempts = 0
        linked = adjacency[node]
        while len(linked) < min_degree and attempts < 20 * min_degree:
            attempts += 1
            same = [
                c for c in by_region[region_of[node]] if c != node and c not in linked
            ]
            other = [
                c
                for c in node_ids
                if c != node and region_of[c] != region_of[node] and c not in linked
            ]
            peer = _pick_neighbor(node, same, other, rng)
            if peer is None:
                break
            link(node, peer)

    # Sprinkle extra long-range edges (~1 per node) so the graph is not a bare ring.
    extra_edges = num_nodes
    for _ in range(extra_edges):
        link(*rng.sample(node_ids, 2))

    # Each physical link gets one latency draw from the regional model; this
    # fixed label is what overlay construction optimizes against and what the
    # simulator uses as the link's base delay.  A custom model may be
    # supplied; nearest() trusts its inter_floor_ms to bound every
    # cross-region pair draw.
    if latency_model is None:
        latency_model = LatencyModel(latency_parameters, derive_rng(seed, "latency"))
    latencies = {
        (min(u, v), max(u, v)): latency_model.sample(region_of[u], region_of[v])
        for u, v in _edges(adjacency)
    }

    network = PhysicalNetwork(
        adjacency=adjacency,
        regions=region_of,
        latencies=latencies,
        latency_model=latency_model,
        pair_seed=seed,
    )
    t = min(min_degree, num_nodes - 1)
    if validate == "full" or (validate == "auto" and num_nodes <= _FULL_VALIDATE_MAX_NODES):
        network.validate_connectivity(t)
    else:
        network.validate_connectivity_fast(t)
    return network

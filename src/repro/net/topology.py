"""Physical network generation.

The system model (§III) is a labeled graph ``G = (V, E)`` with latency labels
``lat(e)`` and the assumption that every node is reachable through at least
``t`` disjoint paths.  We generate such graphs by assigning nodes to regions,
wiring each node to a mix of same-region and remote peers until everyone has at
least ``min_degree >= t`` neighbours, and then repairing connectivity if the
random wiring left islands.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from ..errors import TopologyError
from ..types import ALL_REGIONS, Region
from ..utils.rng import derive_rng
from ..utils.validation import require
from .latency import LatencyModel, LatencyParameters

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["PhysicalNetwork", "generate_physical_network", "is_vertex_connected"]

# Probability that a random neighbour is chosen from the node's own region;
# keeps the graph latency-clustered the way real P2P networks are.
_SAME_REGION_BIAS = 0.5

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
    _pair_cache: dict[tuple[int, int], float] = field(
        default_factory=dict, repr=False, compare=False
    )
    # Bumped on every topology mutation; consumers holding derived caches
    # (e.g. Network's per-pair base-latency cache) compare it to decide when
    # to invalidate without the substrate having to know who they are.
    version: int = field(default=0, repr=False, compare=False)
    _graph_view: tuple[int, nx.Graph] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def graph(self) -> nx.Graph:
        """A read-only networkx rendering of :attr:`adjacency` (same node and
        ``edges`` order) for the code that needs a graph *library* — physical
        disjoint-path routing, tests.  Built, and networkx imported, on first
        use; rebuilt after a mutation."""

        view = self._graph_view
        if view is None or view[0] != self.version:
            import networkx as nx

            graph = nx.Graph()
            graph.add_nodes_from(self.adjacency)
            graph.add_edges_from(self.edges())
            view = self._graph_view = (self.version, graph)
        return view[1]

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
        between them), cached so repeated queries are free.  Overlay
        construction and the simulator both read this, so optimizing an
        overlay against these numbers is meaningful.
        """

        if u == v:
            return 0.0
        key = (u, v) if u < v else (v, u)
        if key in self.latencies:
            return self.latencies[key]
        cached = self._pair_cache.get(key)
        if cached is None:
            cached = self.latency_model.sample_pair(
                self.pair_seed, u, v, self.regions[u], self.regions[v]
            )
            self._pair_cache[key] = cached
        return cached

    def nearest(self, node: int, candidates: Iterable[int], k: int) -> list[int]:
        """The *k* candidates closest to *node* by :meth:`transport_latency`,
        ties in input order — exactly ``sorted(candidates, key=...)[:k]``.

        Only pairs whose latency can change the answer are drawn.  Same-region
        pairs, physical links and cached pairs are read first; a fresh
        cross-region draw is never below ``LatencyModel.inter_floor_ms``, so
        if the *k*-th known latency is under that floor no undrawn candidate
        can displace it, and the rest are never sampled.
        """

        if k <= 0:
            return []
        region = self.regions[node]
        latencies, cache = self.latencies, self._pair_cache
        known: list[tuple[float, int, int]] = []
        rest: list[tuple[int, int]] = []
        for index, other in enumerate(candidates):
            key = (node, other) if node < other else (other, node)
            if self.regions[other] == region or key in latencies or key in cache:
                known.append((self.transport_latency(node, other), index, other))
            else:
                rest.append((index, other))
        known.sort()
        floor = self.latency_model.inter_floor_ms
        if rest and (len(known) < k or known[k - 1][0] >= floor):
            known += [(self.transport_latency(node, o), i, o) for i, o in rest]
            known.sort()
        return [other for _, _, other in known[:k]]

    def region_of(self, node: int) -> Region:
        return self.regions[node]

    # ------------------------------------------------------------------
    # Mutation (permissionless churn, §VII-B)
    # ------------------------------------------------------------------

    def add_node_with_links(
        self, node: int, region: Region, neighbors: Sequence[int]
    ) -> None:
        """Join *node* to the physical network with links to *neighbors*."""

        if node in self.adjacency:
            raise TopologyError(f"node {node} already in the network")
        if not neighbors:
            raise TopologyError("a joining node needs at least one neighbour")
        for neighbor in neighbors:
            if neighbor not in self.adjacency:
                raise TopologyError(f"unknown neighbour {neighbor}")
        if not isinstance(self.regions, dict) or not isinstance(self.latencies, dict):
            raise TopologyError("this PhysicalNetwork instance is immutable")
        links = self.adjacency[node] = {}
        self.regions[node] = region
        for neighbor in neighbors:
            links[neighbor] = self.adjacency[neighbor][node] = None
            key = (min(node, neighbor), max(node, neighbor))
            self.latencies[key] = self.latency_model.sample_pair(
                self.pair_seed, node, neighbor, region, self.regions[neighbor]
            )
            # A pair that used to ride the internet path is now a direct
            # link; its old per-pair draw must not shadow the new label.
            self._pair_cache.pop(key, None)
        self.version += 1

    def remove_node(self, node: int) -> None:
        """Remove a departed node and its links."""

        if node not in self.adjacency:
            raise TopologyError(f"unknown node {node}")
        if not isinstance(self.regions, dict) or not isinstance(self.latencies, dict):
            raise TopologyError("this PhysicalNetwork instance is immutable")
        self.regions.pop(node, None)
        for neighbor in self.adjacency.pop(node):
            del self.adjacency[neighbor][node]
            self.latencies.pop((min(node, neighbor), max(node, neighbor)), None)
        # Drop stale per-pair draws too: if this id rejoins later (possibly
        # in a different region), transport_latency must re-sample.
        for key in [k for k in self._pair_cache if node in k]:
            del self._pair_cache[key]
        self.version += 1

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

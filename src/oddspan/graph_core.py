"""Core graph representation and structural primitives.

Vertices are dense integers 0..n-1.  Edges are canonical (min, max) pairs,
edge sets are frozensets of such pairs.  Everything here is a pure function
of its inputs; Graph instances are treated as immutable after construction.
"""

from __future__ import annotations

from collections import deque
from typing import AbstractSet, Iterable, NamedTuple, Sequence

from .errors import Disconnected, EmptyGraph, NotATree

__all__ = [
    "Edge",
    "EdgeSet",
    "Graph",
    "Bipartition",
    "edge",
    "degrees",
    "is_spanning_tree",
    "complement",
    "is_connected",
    "bipartition",
    "tree_bipartition",
    "forest_path",
    "edge_connectivity",
    "edge_connectivity_at_least",
    "bfs_distances",
    "diameter",
    "is_triangle_free",
    "complement_has_triangle",
    "find_root",
]

Edge = tuple[int, int]
EdgeSet = frozenset[Edge]


def edge(u: int, v: int) -> Edge:
    """Canonical form of an undirected edge: endpoints sorted, no loops."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph with per-vertex frozen neighbor sets.

    Duplicate edges in the input collapse silently (adjacency is a set);
    self-loops and out-of-range endpoints are rejected.  The edge set is
    built on first use and kept; equality and hashing stay on (n, adj).
    """

    __slots__ = ("n", "adj", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        self._freeze(nbrs)

    @classmethod
    def _from_neighbours(cls, nbrs: Sequence[AbstractSet[int]]) -> Graph:
        """Trusted constructor: ``nbrs[u]`` already holds u's neighbours,
        symmetric, in range and loop-free, so nothing is checked again."""
        g = cls.__new__(cls)
        g._freeze(nbrs)
        return g

    def _freeze(self, nbrs: Sequence[AbstractSet[int]]) -> None:
        self.n = len(nbrs)
        self.adj = tuple(map(frozenset, nbrs))
        self._edges: EdgeSet | None = None

    @property
    def m(self) -> int:
        return sum(map(len, self.adj)) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def min_degree(self) -> int:
        if self.n == 0:
            raise EmptyGraph("minimum degree of the empty graph")
        return min(len(s) for s in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edge_set(self) -> EdgeSet:
        if self._edges is None:
            self._edges = frozenset([(u, v) for u in range(self.n) for v in self.adj[u] if u < v])
        return self._edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class Bipartition(NamedTuple):
    """Two-coloring classes; normalized so vertex 0 sits in ``left``, so
    two equal splits compare equal."""

    left: frozenset[int]
    right: frozenset[int]


def degrees(edges: Iterable[Edge], n: int) -> list[int]:
    """Degree of each of 0..n-1 in the given edge set."""
    d = [0] * n
    for u, v in edges:
        d[u] += 1
        d[v] += 1
    return d


def _tree_walk(t: EdgeSet, n: int) -> tuple[list[list[int]], list[int]] | None:
    """Adjacency lists of t and BFS depths from vertex 0, or None if t
    is not a spanning tree on 0..n-1."""
    if n < 1 or len(t) != n - 1:
        return None
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in t:
        if not (0 <= u < n and 0 <= v < n):
            return None
        adj[u].append(v)
        adj[v].append(u)
    dist = bfs_distances(adj, 0)
    return None if -1 in dist else (adj, dist)


def _checked_tree_walk(t: EdgeSet, n: int) -> tuple[list[list[int]], list[int]]:
    walk = _tree_walk(t, n)
    if walk is None:
        raise NotATree(f"edge set of size {len(t)} is not a spanning tree on {n} vertices")
    return walk


def is_spanning_tree(t: EdgeSet, n: int) -> bool:
    """True iff t is a spanning tree on vertices 0..n-1."""
    return _tree_walk(t, n) is not None


def complement(g: Graph) -> Graph:
    """The graph on the same vertices whose edges are g's non-edges: each
    neighbour set is every vertex less g's neighbours and the vertex itself."""
    full = frozenset(range(g.n))
    return Graph._from_neighbours([full - a - {u} for u, a in enumerate(g.adj)])


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        raise EmptyGraph("connectivity of the empty graph is undefined here")
    return -1 not in bfs_distances(g.adj, 0)


def _depth_classes(dist: list[int]) -> Bipartition:
    """Even and odd BFS depths from vertex 0, so vertex 0 is on the left."""
    left: list[int] = []
    right: list[int] = []
    for v, d in enumerate(dist):
        (right if d & 1 else left).append(v)
    return Bipartition(frozenset(left), frozenset(right))


def bipartition(g: Graph) -> Bipartition | None:
    """The 2-coloring classes of a connected graph, or None on an odd cycle.

    One BFS decides connectivity and the coloring together: BFS depths
    differ by at most one along an edge, and an edge between two equal
    depths closes an odd cycle.
    """
    if g.n == 0:
        raise EmptyGraph("connectivity of the empty graph is undefined here")
    dist = bfs_distances(g.adj, 0)
    if -1 in dist:
        raise Disconnected("bipartition needs a connected graph")
    for u, d in enumerate(dist):
        for v in g.adj[u]:
            if dist[v] == d:
                return None
    return _depth_classes(dist)


def tree_bipartition(t: EdgeSet, n: int) -> Bipartition:
    """The unique 2-coloring of a spanning tree, vertex 0 on the left."""
    return _depth_classes(_checked_tree_walk(t, n)[1])


def forest_path(adj, u: int, v: int) -> list[Edge]:
    """Edges of the unique forest path from u to v, in order (must be connected).

    ``adj`` is indexed by vertex, as for ``bfs_distances``; the search
    stops as soon as it reaches v.
    """
    prev: dict[int, int] = {u: u}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == v:
            break
        for w in adj[x]:
            if w not in prev:
                prev[w] = x
                queue.append(w)
    path = []
    x = v
    while x != u:
        p = prev[x]
        path.append((p, x) if p < x else (x, p))
        x = p
    path.reverse()
    return path


def _max_flow_unit(g: Graph, s: int, t: int, bound: int) -> int:
    """min(max s-t flow, bound), every edge at capacity 1 in both directions;
    the search stops after ``bound`` augmenting paths.  An arc has residual
    capacity iff it is not in ``used``, the arcs that carry flow."""
    used: set[Edge] = set()
    flow = 0
    while flow < bound:
        parent = {s: s}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for v in g.adj[u]:
                if v not in parent and (u, v) not in used:
                    parent[v] = u
                    queue.append(v)
        if t not in parent:
            return flow
        v = t
        while v != s:
            u = parent[v]
            if (v, u) in used:
                used.remove((v, u))
            else:
                used.add((u, v))
            v = u
        flow += 1
    return flow


def _flow_sinks(g: Graph) -> list[int]:
    """The members other than 0 of a dominating set that contains vertex 0,
    picked greedily in vertex order.

    If λ < δ, each side of a minimum cut has a vertex with no neighbour
    across it (Matula 1987), so a dominating set meets both sides, and
    the unit flows from vertex 0 to these sinks find a cut of λ edges.
    """
    covered = {0, *g.adj[0]}
    sinks = []
    for v in range(1, g.n):
        if v not in covered:
            sinks.append(v)
            covered |= g.adj[v]
    return sinks


def edge_connectivity(g: Graph) -> int:
    """Minimum number of edges whose removal disconnects g.

    λ never exceeds the minimum degree δ, so each unit flow to a
    ``_flow_sinks`` member stops at δ, and λ = δ when there is none.
    Disconnected input returns 0.
    """
    if g.n < 2:
        raise EmptyGraph("edge connectivity needs at least two vertices")
    delta = g.min_degree()
    return min((_max_flow_unit(g, 0, t, delta) for t in _flow_sinks(g)), default=delta)


def edge_connectivity_at_least(g: Graph, k: int) -> bool:
    """``edge_connectivity(g) >= k`` without computing the exact value.

    Edge connectivity never exceeds the minimum degree, so a vertex of
    degree below k answers at once.  Otherwise λ < k would mean λ < δ, so
    each unit flow to a ``_flow_sinks`` member stops after k augmenting
    paths, and the first sink reached by fewer answers False.
    """
    if g.n < 2:
        raise EmptyGraph("edge connectivity needs at least two vertices")
    if k <= 0:
        return True
    if g.min_degree() < k:
        return False
    return all(_max_flow_unit(g, 0, t, k) == k for t in _flow_sinks(g))


def bfs_distances(adj, s: int) -> list[int]:
    """Hop distance from s to every vertex; -1 where unreachable.

    ``adj`` is any adjacency indexed by vertex 0..len(adj)-1: ``g.adj``,
    a list of lists, or a dict of sets.
    """
    dist = [-1] * len(adj)
    dist[s] = 0
    order = [s]  # the FIFO queue: the loop reads what it appends
    for u in order:
        d = dist[u] + 1
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = d
                order.append(v)
    return dist


def diameter(g: Graph) -> int:
    """Largest eccentricity, one level-by-level walk per source on vertex
    bitmasks: the next level is the union of the current level's
    neighbour masks, less the vertices already seen."""
    if not is_connected(g):
        raise Disconnected("diameter of a disconnected graph is infinite")
    nbr = [sum(1 << w for w in nbrs) for nbrs in g.adj]
    full = (1 << g.n) - 1
    worst = 0
    for s in range(g.n):
        seen = level = 1 << s
        ecc = 0
        while seen != full:
            reach = 0
            while level:
                low = level & -level
                level ^= low
                reach |= nbr[low.bit_length() - 1]
            level = reach & ~seen
            seen |= level
            ecc += 1
        worst = max(worst, ecc)
    return worst


def is_triangle_free(g: Graph) -> bool:
    for u in range(g.n):
        for v in g.adj[u]:
            if u < v and g.adj[u] & g.adj[v]:
                return False
    return True


def complement_has_triangle(g: Graph) -> bool:
    """Whether g has three pairwise non-adjacent vertices, that is a
    triangle in its complement, answered without building the complement.

    Non-adjacent u and v have such a third vertex exactly when their
    neighbourhoods, which contain neither of them, miss some other vertex.
    """
    n = g.n
    adj = g.adj
    for u in range(n):
        au = adj[u]
        for v in range(u + 1, n):
            if v not in au and len(au | adj[v]) < n - 2:
                return True
    return False


def find_root(parent: list[int], x: int) -> int:
    """Union-find root of x in a parent array, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x

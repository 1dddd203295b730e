"""Core graph representation and structural primitives.

Vertices are dense integers 0..n-1.  Edges are canonical (min, max) pairs,
edge sets are frozensets of such pairs.  Everything here is a pure function
of its inputs; Graph instances are treated as immutable after construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import Disconnected, EmptyGraph, NotATree, SelfLoop

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
    "tree_path",
    "symmetric_difference",
    "edge_connectivity",
    "edge_connectivity_at_least",
    "bfs_distances",
    "diameter",
    "is_triangle_free",
    "find_root",
]

Edge = tuple[int, int]
EdgeSet = frozenset[Edge]


def edge(u: int, v: int) -> Edge:
    """Canonical form of an undirected edge: endpoints sorted, no loops."""
    if u == v:
        raise SelfLoop(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph with per-vertex frozen neighbor sets.

    Duplicate edges in the input collapse silently (adjacency is a set);
    self-loops and out-of-range endpoints are rejected.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise SelfLoop(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        self.n = n
        self.adj = tuple(frozenset(s) for s in nbrs)

    @property
    def m(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def min_degree(self) -> int:
        if self.n == 0:
            raise EmptyGraph("minimum degree of the empty graph")
        return min(len(s) for s in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edge_set(self) -> EdgeSet:
        return frozenset((u, v) for u in range(self.n) for v in self.adj[u] if u < v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Bipartition:
    """Two-coloring classes; normalized so vertex 0 sits in ``left``."""

    left: frozenset[int]
    right: frozenset[int]

    def unordered(self) -> frozenset[frozenset[int]]:
        """Side-swap-insensitive form for comparisons."""
        return frozenset((self.left, self.right))


def degrees(edges: Iterable[Edge], n: int) -> list[int]:
    """Degree of each of 0..n-1 in the given edge set."""
    d = [0] * n
    for u, v in edges:
        d[u] += 1
        d[v] += 1
    return d


def _adjacency(edges: Iterable[Edge], n: int) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def is_spanning_tree(t: EdgeSet, n: int) -> bool:
    """True iff t is a spanning tree on vertices 0..n-1."""
    if n < 1 or len(t) != n - 1:
        return False
    if any(not (0 <= u < n and 0 <= v < n) for u, v in t):
        return False
    adj = _adjacency(t, n)
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                queue.append(v)
    return count == n


def complement(g: Graph) -> Graph:
    return Graph(
        g.n,
        (
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if v not in g.adj[u]
        ),
    )


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        raise EmptyGraph("connectivity of the empty graph is undefined here")
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                queue.append(v)
    return count == g.n


def _two_color(adj: list[list[int]] | tuple[frozenset[int], ...], n: int) -> tuple[list[int], bool]:
    """BFS 2-coloring from vertex 0, and whether no edge joins two equal colors.

    The search covers vertex 0's whole component, so vertices left at
    color -1 are exactly the unreached ones.
    """
    color = [-1] * n
    color[0] = 0
    proper = True
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if color[v] == -1:
                color[v] = 1 - color[u]
                queue.append(v)
            elif color[v] == color[u]:
                proper = False
    return color, proper


def bipartition(g: Graph) -> Bipartition | None:
    """The 2-coloring classes of a connected graph, or None on an odd cycle.

    One BFS decides connectivity and the coloring together.
    """
    if g.n == 0:
        raise EmptyGraph("connectivity of the empty graph is undefined here")
    color, proper = _two_color(g.adj, g.n)
    if -1 in color:
        raise Disconnected("bipartition needs a connected graph")
    if not proper:
        return None
    left = frozenset(v for v in range(g.n) if color[v] == 0)
    right = frozenset(v for v in range(g.n) if color[v] == 1)
    return Bipartition(left, right)


def tree_bipartition(t: EdgeSet, n: int) -> Bipartition:
    """The unique 2-coloring of a spanning tree, vertex 0 on the left."""
    if not is_spanning_tree(t, n):
        raise NotATree(f"edge set of size {len(t)} is not a spanning tree on {n} vertices")
    color, proper = _two_color(_adjacency(t, n), n)
    assert proper, "trees have no cycles"
    left = frozenset(v for v in range(n) if color[v] == 0)
    right = frozenset(v for v in range(n) if color[v] == 1)
    return Bipartition(left, right)


def tree_path(t: EdgeSet, n: int, u: int, v: int) -> EdgeSet:
    """Edge set of the unique u-v path in a spanning tree.

    Args:
        t: spanning tree edges on 0..n-1.
        n: vertex count.
        u, v: endpoints; u == v returns the empty path.

    Returns:
        The path's edges in canonical form.
    """
    if not is_spanning_tree(t, n):
        raise NotATree(f"edge set of size {len(t)} is not a spanning tree on {n} vertices")
    if u == v:
        return frozenset()
    adj = _adjacency(t, n)
    parent = [-1] * n
    parent[u] = u
    queue = deque([u])
    while queue:
        w = queue.popleft()
        if w == v:
            break
        for x in adj[w]:
            if parent[x] == -1:
                parent[x] = w
                queue.append(x)
    path: set[Edge] = set()
    w = v
    while w != u:
        path.add(edge(w, parent[w]))
        w = parent[w]
    return frozenset(path)


def symmetric_difference(a: EdgeSet, b: EdgeSet) -> EdgeSet:
    return frozenset(a ^ b)


def _max_flow_unit(g: Graph, s: int, t: int, bound: int | None = None) -> int:
    """Max s-t flow with every edge at capacity 1 in both directions.

    With ``bound`` the search stops after that many augmenting paths, so
    the result is min(max flow, bound).
    """
    cap: dict[Edge, int] = {}
    for u in range(g.n):
        for v in g.adj[u]:
            cap[(u, v)] = 1
    flow = 0
    while bound is None or flow < bound:
        parent = {s: s}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for v in g.adj[u]:
                if v not in parent and cap[(u, v)] > 0:
                    parent[v] = u
                    queue.append(v)
        if t not in parent:
            return flow
        v = t
        while v != s:
            u = parent[v]
            cap[(u, v)] -= 1
            cap[(v, u)] += 1
            v = u
        flow += 1
    return flow


def edge_connectivity(g: Graph) -> int:
    """Minimum number of edges whose removal disconnects g.

    Computed as the minimum over n-1 unit-capacity max-flows from vertex 0.
    Disconnected input returns 0.
    """
    if g.n < 2:
        raise EmptyGraph("edge connectivity needs at least two vertices")
    if not is_connected(g):
        return 0
    return min(_max_flow_unit(g, 0, t) for t in range(1, g.n))


def edge_connectivity_at_least(g: Graph, k: int) -> bool:
    """``edge_connectivity(g) >= k`` without computing the exact value.

    Edge connectivity never exceeds the minimum degree, so a vertex of
    degree below k answers at once.  Otherwise each unit flow from vertex
    0 stops after k augmenting paths, and the first sink reached by fewer
    answers False; a sink outside vertex 0's component is reached by none.
    """
    if g.n < 2:
        raise EmptyGraph("edge connectivity needs at least two vertices")
    if k <= 0:
        return True
    if g.min_degree() < k:
        return False
    return all(_max_flow_unit(g, 0, t, k) == k for t in range(1, g.n))


def bfs_distances(g: Graph, s: int) -> list[int]:
    """Hop distance from s to every vertex; -1 where unreachable."""
    dist = [-1] * g.n
    dist[s] = 0
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if dist[v] == -1:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def diameter(g: Graph) -> int:
    if not is_connected(g):
        raise Disconnected("diameter of a disconnected graph is infinite")
    return max(max(bfs_distances(g, s)) for s in range(g.n))


def is_triangle_free(g: Graph) -> bool:
    for u in range(g.n):
        for v in g.adj[u]:
            if u < v and g.adj[u] & g.adj[v]:
                return False
    return True


def find_root(parent: list[int], x: int) -> int:
    """Union-find root of x in a parent array, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x

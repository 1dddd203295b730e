"""Two edge-disjoint spanning trees, or a partition certificate.

The k = 2 case of the Nash-Williams/Tutte packing theorem.  The
augmenting scheme is matroid-union style: edges are offered to either
forest in canonical order; when an edge fits neither forest directly, a
breadth-first search over swap moves (relocate an edge of one forest
into the other to make room) either finds an augmenting chain or labels
a closed edge set whose vertex spans collapse into certificate parts.

A 2-degenerate graph, one that deleting vertices of degree at most 2
empties, is answered before any offer: the all-singletons partition,
crossed by all m edges.  Its every subgraph on s >= 2 vertices has at
most 2s - 3 edges, so by Nash-Williams (1964) its edges split into two
forests, no offer fails, and the offer loop would end at this same
certificate; m <= 2n - 3 < 2(n - 1) leaves no room for two trees.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import Disconnected, EmptyGraph
from .graph_core import Edge, EdgeSet, Graph, find_root, forest_path, is_connected, is_spanning_tree
from .oracle import enumerate_spanning_trees

_ROOT = ("root", -1)


@dataclass(frozen=True)
class PartitionCertificate:
    """Vertex partition with fewer than 2(|parts|-1) crossing edges."""

    parts: tuple[frozenset[int], ...]
    cross_edges: int


@dataclass(frozen=True)
class PackingOutcome:
    trees: tuple[EdgeSet, EdgeSet] | None = None
    cert: PartitionCertificate | None = None

    def __post_init__(self) -> None:
        # not an assert, so that ``python -O`` keeps the check
        if (self.trees is None) == (self.cert is None):
            raise ValueError("a packing outcome carries exactly one of trees and cert")


def two_edge_disjoint_spanning_trees(g: Graph) -> PackingOutcome:
    """Pack two edge-disjoint spanning trees or certify impossibility.

    Returns:
        PackingOutcome carrying either the two trees or a
        PartitionCertificate violating the k = 2 packing inequality.
    """
    if g.n < 2:
        raise EmptyGraph("packing needs n >= 2")
    if not is_connected(g):
        raise Disconnected("packing certificates are defined for connected inputs")
    n = g.n
    if _peels_to_empty(g):
        singletons = tuple(frozenset((v,)) for v in range(n))
        return PackingOutcome(cert=PartitionCertificate(singletons, g.m))
    forests: tuple[dict[int, set[int]], dict[int, set[int]]] = (
        {v: set() for v in range(n)},
        {v: set() for v in range(n)},
    )
    # The edge count of both forests, a union-find parent array per
    # forest, and the edges that failed offers labelled.  A failed offer
    # changes neither forest, and a success adds one edge, since its swaps
    # only move edges; once both forests span, every later offer would
    # fail, so the scan stops there.
    placed = 0
    roots = [list(range(n)), list(range(n))]
    closed: set[Edge] = set()

    for e0 in sorted(g.edge_set()):
        if placed == 2 * (n - 1):
            break
        label: dict[Edge, tuple[Edge, int]] = {e0: _ROOT}
        queue: deque[tuple[Edge, int]] = deque([(e0, 0), (e0, 1)])
        chain: tuple[Edge, int] | None = None
        while queue:
            f, i = queue.popleft()
            fu, fv = f
            if find_root(roots[i], fu) != find_root(roots[i], fv):
                chain = (f, i)
                break
            for h in forest_path(forests[i], fu, fv):
                if h not in label:
                    label[h] = (f, i)
                    queue.append((h, 1 - i))
        if chain is None:
            closed.update(label)
            continue
        # Apply the swap chain: insert at the success node, then walk up
        # replacing each forest edge by the edge that wanted its slot.
        # Each swap puts f in place of an edge on f's path in that
        # forest, which keeps its components; only the insertion joins
        # two components, of forest j, so linking their roots is exact.
        h, j = chain
        rj = roots[j]
        rj[find_root(rj, h[0])] = find_root(rj, h[1])
        forests[j][h[0]].add(h[1])
        forests[j][h[1]].add(h[0])
        placed += 1
        parent = label[h]
        while parent != _ROOT:
            f, i = parent
            forests[i][h[0]].discard(h[1])
            forests[i][h[1]].discard(h[0])
            forests[i][f[0]].add(f[1])
            forests[i][f[1]].add(f[0])
            h = f
            parent = label[h]

    if placed == 2 * (n - 1):
        t0, t1 = (frozenset((u, v) for u in f for v in f[u] if u < v) for f in forests)
        return PackingOutcome(trees=(t0, t1))
    return PackingOutcome(cert=_extract_certificate(g, closed))


def _peels_to_empty(g: Graph) -> bool:
    """Whether deleting a vertex of degree at most 2, again and again,
    empties g: whether g is 2-degenerate.  One pass, O(n + m)."""
    deg = [len(nbrs) for nbrs in g.adj]
    stack = [v for v, d in enumerate(deg) if d <= 2]
    # deg[w] is w's degree among the vertices not yet peeled, and a
    # vertex is pushed once: at the start, or when its degree falls to 2
    peeled = 0
    while stack:
        v = stack.pop()
        peeled += 1
        for w in g.adj[v]:
            deg[w] -= 1
            if deg[w] == 2:
                stack.append(w)
    return peeled == g.n


def _extract_certificate(g: Graph, closed: set[Edge]) -> PartitionCertificate:
    # The edges one failed offer labels are connected (each labelled path
    # joins the ends of an edge labelled before it) and span a class that
    # both forests doubly span; overlapping classes merge, so the parts
    # are the closed edges' components, listed at their least vertex.
    # Callers re-check with verify_packing.
    parent = list(range(g.n))
    for u, v in closed:
        parent[find_root(parent, u)] = find_root(parent, v)
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find_root(parent, v), []).append(v)
    parts = tuple(map(frozenset, groups.values()))
    return PartitionCertificate(parts=parts, cross_edges=_crossing_count(g, parts))


def _crossing_count(g: Graph, parts: tuple[frozenset[int], ...]) -> int:
    """Edges of g whose ends lie in different parts of a vertex partition."""
    part_of = {}
    for part in parts:
        for v in part:
            part_of[v] = part
    # a crossing edge leaves its part at both of its ends
    return sum(len(nbrs - part_of[v]) for v, nbrs in enumerate(g.adj)) // 2


def verify_packing(g: Graph, outcome: PackingOutcome) -> bool:
    """Re-check whichever side the outcome carries against g."""
    if outcome.trees is not None:
        t0, t1 = outcome.trees
        if t0 & t1:
            return False
        edges = g.edge_set()
        return all(t <= edges and is_spanning_tree(t, g.n) for t in (t0, t1))
    cert = outcome.cert
    assert cert is not None
    seen: set[int] = set()
    for part in cert.parts:
        if not part or part & seen:
            return False
        seen |= part
    if seen != set(range(g.n)):
        return False
    cross = _crossing_count(g, cert.parts)
    return cross == cert.cross_edges and cross < 2 * (len(cert.parts) - 1)


def exhaustive_pair_search(g: Graph) -> tuple[EdgeSet, EdgeSet] | None:
    """Test-support fallback: find two edge-disjoint spanning trees by
    enumerating first trees and checking the leftover edges stay
    connected.  Exponential; intended for n <= 8 cross-checks only.
    """
    if not is_connected(g):
        raise Disconnected("pair search expects a connected graph")
    if g.m < 2 * (g.n - 1):
        # two disjoint spanning trees need n - 1 edges each
        return None
    edges = g.edge_set()
    for t1 in enumerate_spanning_trees(g):
        rest = Graph(g.n, edges - t1)
        if is_connected(rest):
            # A connected leftover contains a spanning tree disjoint
            # from t1; take any one of them.
            return t1, next(enumerate_spanning_trees(rest))
    return None

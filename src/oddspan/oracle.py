"""Exhaustive ground truth at desk scale.

Spanning-tree enumeration, brute-force searches for odd spanning trees and
connected odd factors, and the verifiers that every constructive module's
output must pass.  Everything here is intentionally brute force; the caps
are errors rather than silent truncation because an oracle must never lie.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from .errors import Disconnected, SizeCap
from .graph_core import EdgeSet, Graph, _tree_walk, degrees, find_root, is_connected

NOT_SUBGRAPH = "not-subgraph"
WRONG_EDGE_COUNT = "wrong-edge-count"
HAS_CYCLE = "has-cycle"
NOT_CONNECTED = "not-connected"
NOT_SPANNING = "not-spanning"
EVEN_DEGREE_VERTEX = "even-degree-vertex"

ODD_TREE_VERTEX_CAP = 10
ODD_FACTOR_EDGE_CAP = 22


class VerifyReport(NamedTuple):
    """Outcome of a verifier; ``vertex`` pinpoints degree/coverage failures."""

    ok: bool
    failure: str | None = None
    vertex: int | None = None


_OK = VerifyReport(True)


def verify_odd_spanning_tree(g: Graph, t: EdgeSet) -> VerifyReport:
    """Check that t is a spanning tree of g with every degree odd.

    Checks run in a fixed order (subgraph, edge count, acyclicity, parity)
    so the reported failure is deterministic.  graph_core's tree walk
    decides acyclicity, and its adjacency lists give the degrees.
    """
    if not t <= g.edge_set():
        return VerifyReport(False, NOT_SUBGRAPH)
    if len(t) != g.n - 1:
        return VerifyReport(False, WRONG_EDGE_COUNT)
    walk = _tree_walk(t, g.n)
    if walk is None:  # n - 1 edges of g that miss a vertex close a cycle
        return VerifyReport(False, HAS_CYCLE)
    for v, nbrs in enumerate(walk[0]):
        if len(nbrs) % 2 == 0:
            return VerifyReport(False, EVEN_DEGREE_VERTEX, v)
    return _OK


def verify_connected_odd_factor(g: Graph, f: EdgeSet) -> VerifyReport:
    if not f <= g.edge_set():
        return VerifyReport(False, NOT_SUBGRAPH)
    h = Graph(g.n, f)
    for v, nbrs in enumerate(h.adj):
        if not nbrs:
            return VerifyReport(False, NOT_SPANNING, v)
    if not is_connected(h):
        return VerifyReport(False, NOT_CONNECTED)
    for v, nbrs in enumerate(h.adj):
        if len(nbrs) % 2 == 0:
            return VerifyReport(False, EVEN_DEGREE_VERTEX, v)
    return _OK


def _reconnectable(parent: list[int], ncomp: int, edges: list[tuple[int, int]], start: int) -> bool:
    # Can the components of `parent` still be merged using edges[start:]?
    # The roots are found inline, halving paths as ``find_root`` does.
    if len(edges) - start < ncomp - 1:
        return False  # each merge takes an edge
    scratch = parent.copy()
    left = ncomp
    for k in range(start, len(edges)):
        u, v = edges[k]
        while scratch[u] != u:
            scratch[u] = scratch[scratch[u]]
            u = scratch[u]
        while scratch[v] != v:
            scratch[v] = scratch[scratch[v]]
            v = scratch[v]
        if u != v:
            scratch[u] = v
            left -= 1
            if left == 1:
                return True
    return left == 1


def enumerate_spanning_trees(g: Graph) -> Iterator[EdgeSet]:
    """Iterate over every spanning tree of g once, in a fixed order.

    Deletion/contraction over edges in canonical order: including an edge
    contracts it (union-find), excluding it is allowed only when the
    remaining edges can still reconnect the current components (the bridge
    shortcut: bridges are never excluded).  So the chosen edges plus
    ``edges[i:]`` stay connected at every node, and the edges never run
    out while components remain.  Raises Disconnected when called, before
    the first tree is asked for.

    The search is exponential; callers are expected to stay at desk
    scale (soft cap n <= 10, not enforced).
    """
    if not is_connected(g):
        raise Disconnected(f"graph with {g.n} vertices is not connected")
    return _spanning_trees(sorted(g.edge_set()), g.n)


def _spanning_trees(edges: list[tuple[int, int]], n: int) -> Iterator[EdgeSet]:
    """The search of ``enumerate_spanning_trees`` on one explicit stack.

    One union-find array serves the whole search.  It links roots and
    never shortens a path, so unlinking a root undoes its link.  A frame
    ``(i, root, ncomp)`` is the return from the branch that included
    edge i by linking root: it unlinks root and tries the branch that
    excludes edge i.  The include branch is walked in place, down to a
    tree, so the nodes are visited in the order of the recursive
    include-first search.
    """
    chosen: list[tuple[int, int]] = []
    parent = list(range(n))
    stack: list[tuple[int, int, int]] = []
    i, ncomp = 0, n
    while True:
        while ncomp > 1:
            u, v = e = edges[i]
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            # an internal edge never helps, and excluding it cannot hurt feasibility
            if u != v:
                stack.append((i, u, ncomp))
                parent[u] = v
                ncomp -= 1
                chosen.append(e)
            i += 1
        yield frozenset(chosen)
        while stack:
            i, root, ncomp = stack.pop()
            parent[root] = root
            chosen.pop()
            if _reconnectable(parent, ncomp, edges, i + 1):
                break
        else:
            return
        i += 1


def find_odd_spanning_tree_bruteforce(g: Graph) -> EdgeSet | None:
    """Exhaustive search for an odd spanning tree, include-first.

    Deletion/contraction over edges in canonical order.  At every node
    the chosen edges plus ``edges[i:]`` form a connected graph: including
    edge i keeps that union as it is, excluding an edge inside one
    component cannot disconnect it, and excluding an edge between two
    components is allowed only when ``edges[i + 1:]`` can still reconnect
    them.  So the edges never run out while components remain, and only
    the last case needs ``_reconnectable``.

    Prunes on degree parity: once a vertex has no undecided incident
    edges left, its parity is final and must already be odd.
    """
    if g.n > ODD_TREE_VERTEX_CAP:
        raise SizeCap(f"odd-spanning-tree search capped at n <= {ODD_TREE_VERTEX_CAP}, got {g.n}")
    if not is_connected(g):
        raise Disconnected(f"graph with {g.n} vertices is not connected")
    if g.n % 2:
        return None  # handshake lemma: all degrees odd forces an even order
    n = g.n
    edges = sorted(g.edge_set())
    deg = [0] * n
    undecided = [len(a) for a in g.adj]
    chosen: list[tuple[int, int]] = []

    def rec(i: int, parent: list[int], ncomp: int) -> EdgeSet | None:
        # a lone vertex ends here too: its degree 0 is even
        if ncomp == 1:
            return frozenset(chosen) if all(d % 2 == 1 for d in deg) else None
        e = edges[i]
        u, v = e
        undecided[u] -= 1
        undecided[v] -= 1
        # the two roots, found as in ``_reconnectable``
        ru = u
        while parent[ru] != ru:
            parent[ru] = parent[parent[ru]]
            ru = parent[ru]
        rv = v
        while parent[rv] != rv:
            parent[rv] = parent[parent[rv]]
            rv = parent[rv]
        if ru != rv:
            deg[u] += 1
            deg[v] += 1
            # a vertex whose parity is final must be odd
            if (undecided[u] or deg[u] % 2) and (undecided[v] or deg[v] % 2):
                child = parent.copy()
                child[ru] = rv
                chosen.append(e)
                tree = rec(i + 1, child, ncomp - 1)
                if tree is not None:
                    return tree
                chosen.pop()
            deg[u] -= 1
            deg[v] -= 1
        tree = None
        # excluding an edge inside one component keeps the invariant for free
        if (
            (undecided[u] or deg[u] % 2)
            and (undecided[v] or deg[v] % 2)
            and (ru == rv or _reconnectable(parent, ncomp, edges, i + 1))
        ):
            tree = rec(i + 1, parent, ncomp)
        undecided[u] += 1
        undecided[v] += 1
        return tree

    return rec(0, list(range(n)), n)


def find_connected_odd_factor_bruteforce(g: Graph) -> EdgeSet | None:
    """Exhaustive search over edge subsets for a connected odd factor."""
    if g.m > ODD_FACTOR_EDGE_CAP:
        raise SizeCap(f"odd-factor search capped at m <= {ODD_FACTOR_EDGE_CAP}, got {g.m}")
    if not is_connected(g):
        raise Disconnected(f"graph with {g.n} vertices is not connected")
    n = g.n
    edges = sorted(g.edge_set())
    m = len(edges)
    deg = [0] * n
    undecided = degrees(edges, n)
    chosen: list[tuple[int, int]] = []

    def rec(i: int, parent: list[int], ncomp: int) -> EdgeSet | None:
        if i == m:
            return frozenset(chosen) if ncomp == 1 and all(d % 2 == 1 for d in deg) else None
        e = edges[i]
        u, v = e
        undecided[u] -= 1
        undecided[v] -= 1
        deg[u] += 1
        deg[v] += 1
        # a vertex whose parity is final must be odd
        if (undecided[u] or deg[u] % 2) and (undecided[v] or deg[v] % 2):
            ru, rv = find_root(parent, u), find_root(parent, v)
            child, nc = parent, ncomp
            if ru != rv:
                child = parent.copy()
                child[ru] = rv
                nc -= 1
            chosen.append(e)
            factor = rec(i + 1, child, nc)
            if factor is not None:
                return factor
            chosen.pop()
        deg[u] -= 1
        deg[v] -= 1
        factor = None
        if (
            (undecided[u] or deg[u] % 2)
            and (undecided[v] or deg[v] % 2)
            and (ncomp == 1 or _reconnectable(parent, ncomp, edges, i + 1))
        ):
            factor = rec(i + 1, parent, ncomp)
        undecided[u] += 1
        undecided[v] += 1
        return factor

    return rec(0, list(range(n)), n)

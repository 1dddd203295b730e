"""Odd spanning trees in split graphs, and double stars in complements.

A split graph partitions into an independent set X and a clique Y.  For
even order there is a clean obstruction: no odd spanning tree exists
exactly when every clique vertex has an odd number of independent-set
neighbors and those neighborhoods are pairwise disjoint.  Whenever the
obstruction fails, a tree assembles from a star forest centered on Y
plus a chain-and-spokes pattern inside the clique.

The same machinery yields a spanning double star in the complement of
any connected even-order graph of diameter at least four.  The complement
of a disconnected graph gets its double star directly, from two centres
in different components.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadWitness,
    ConditionHolds,
    DegenerateClique,
    DiameterTooSmall,
    Disconnected,
    EmptyGraph,
    NoDoubleStar,
    OddOrder,
)
from .graph_core import (
    EdgeSet,
    Graph,
    bfs_distances,
    degrees,
    edge,
    is_connected,
)


@dataclass(frozen=True)
class SplitPartition:
    """Split witness: X independent, Y a clique.  Y's order matters."""

    x: frozenset[int]
    y: tuple[int, ...]


def validate_partition(g: Graph, sp: SplitPartition) -> None:
    """Raise BadWitness unless sp is a genuine split partition of g."""
    xs = set(sp.x)
    ys = set(sp.y)
    if len(sp.y) != len(ys):
        raise BadWitness("duplicate vertices in the clique list")
    if xs & ys or xs | ys != set(range(g.n)):
        raise BadWitness("x and y must partition the vertex set")
    for u in xs:
        if g.adj[u] & xs:
            raise BadWitness(f"x side is not independent at vertex {u}")
    for v in ys:
        if not ys - {v} <= g.adj[v]:
            raise BadWitness(f"y side is not a clique at vertex {v}")


def find_split_partition(g: Graph) -> SplitPartition | None:
    """Recognize a split graph from its degree sequence.

    With degrees d_1 >= ... >= d_n and m the largest index with
    d_m >= m - 1, the graph is split iff
    sum_{i<=m} d_i == m(m-1) + sum_{i>m} d_i,
    in which case the top m vertices form a clique and the rest are
    independent.  Ties break by vertex id, so the output is canonical.
    """
    if g.n == 0:
        return SplitPartition(x=frozenset(), y=())
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    d = [g.degree(v) for v in order]
    m = max(i for i in range(1, g.n + 1) if d[i - 1] >= i - 1)
    if sum(d[:m]) != m * (m - 1) + sum(d[m:]):
        return None
    return SplitPartition(x=frozenset(order[m:]), y=tuple(sorted(order[:m])))


def _x_degrees_odd(g: Graph, sp: SplitPartition) -> bool:
    ys = set(sp.y)
    return all(len(g.adj[y] - ys) % 2 == 1 for y in sp.y)


def _neighborhoods_disjoint(g: Graph, sp: SplitPartition) -> bool:
    ys = set(sp.y)
    return all(len(g.adj[x] & ys) <= 1 for x in sp.x)


def split_no_tree_condition(g: Graph, sp: SplitPartition) -> bool:
    """True iff g has no odd spanning tree (even order, |Y| >= 2).

    Raises:
        DegenerateClique: |Y| = 1; the graph is a star, handled apart.
        OddOrder: the criterion only characterizes even order.
    """
    validate_partition(g, sp)
    if len(sp.y) == 1:
        raise DegenerateClique("singleton clique side")
    if g.n % 2:
        raise OddOrder(f"order {g.n} is odd")
    return _x_degrees_odd(g, sp) and _neighborhoods_disjoint(g, sp)


def build_y_star_forest(g: Graph, sp: SplitPartition) -> dict[int, int]:
    """Spanning star forest with at least one even-size star, as the
    center each independent vertex picks.

    Star size means leaf count.  If some center y0 has an even number
    of X-neighbors, give y0 all of them and send every other x to its
    lowest adjacent center.  Otherwise all X-degrees are odd and some x
    has two centers available; assigning everyone else lowest-first and
    then steering that x makes one star even.  sp must be a valid
    partition of g; ``split_odd_spanning_tree`` has validated it.

    Raises:
        ConditionHolds: no even star is achievable, so no tree exists.
    """
    ys = set(sp.y)
    assignment: dict[int, int] = {}
    even_centers = [y for y in sorted(sp.y) if len(g.adj[y] - ys) % 2 == 0]
    if even_centers:
        y0 = even_centers[0]
        for x in sorted(sp.x):
            assignment[x] = y0 if y0 in g.adj[x] else min(g.adj[x] & ys)
        return assignment
    shared = [x for x in sorted(sp.x) if len(g.adj[x] & ys) >= 2]
    if not shared:
        raise ConditionHolds("all X-degrees odd with disjoint neighborhoods")
    xstar = shared[0]
    yj, yk = sorted(g.adj[xstar] & ys)[:2]
    for x in sorted(sp.x):
        if x != xstar:
            assignment[x] = min(g.adj[x] & ys)
    load = sum(1 for c in assignment.values() if c == yj)
    assignment[xstar] = yj if load % 2 == 1 else yk
    return assignment


def split_odd_spanning_tree(g: Graph, sp: SplitPartition) -> EdgeSet:
    """Odd spanning tree of a connected split graph of even order.

    Reorders the clique so even stars come first, then connects the
    star forest with a chain through the odd stars and spokes from the
    remaining even centers into the chain's end.  A singleton clique
    means g is a star, which is its own odd spanning tree.

    Raises:
        OddOrder, ConditionHolds, Disconnected, EmptyGraph.
    """
    validate_partition(g, sp)
    if g.n == 0:
        raise EmptyGraph("no spanning tree in the empty graph")
    if g.n % 2:
        raise OddOrder(f"order {g.n} is odd")
    if not is_connected(g):
        raise Disconnected("split construction needs a connected graph")
    t = len(sp.y)
    if t == 1:
        return g.edge_set()
    # raises ConditionHolds exactly when the nonexistence criterion holds
    forest = build_y_star_forest(g, sp)
    sizes = {y: 0 for y in sp.y}
    for c in forest.values():
        sizes[c] += 1
    ynew = [sp.y[i] for i in sorted(range(t), key=lambda i: (sizes[sp.y[i]] % 2, i))]
    ec = sum(1 for y in sp.y if sizes[y] % 2 == 0)
    assert ec >= 2 and ec % 2 == 0, "even-star count must be a positive even number"
    edges = {edge(x, c) for x, c in forest.items()}
    for i in range(ec - 1, t - 1):
        edges.add(edge(ynew[i], ynew[i + 1]))
    for j in range(ec - 1):
        edges.add(edge(ynew[j], ynew[t - 1]))
    return frozenset(edges)


def double_star_in_complement(g: Graph) -> EdgeSet:
    """Spanning double star in the complement of g.

    Needs even order.  A connected g also needs diameter at least 4:
    take the least pair (v0, v4) at distance exactly 4 and build an
    auxiliary split graph on clique {v0, v4}: each neighbor of v0 can
    only attach to v4 in the complement and vice versa, while vertices
    far from both may attach to either.  The split construction then
    returns a spanning tree with exactly two internal vertices.  A
    disconnected g is handled by ``_cross_component_double_star``.

    Raises:
        OddOrder, EmptyGraph, DiameterTooSmall, NoDoubleStar.
    """
    if g.n % 2:
        raise OddOrder(f"order {g.n} is odd")
    if g.n == 0:
        raise EmptyGraph("connectivity of the empty graph is undefined here")
    # one pass: a BFS that misses a vertex means g is disconnected, and a
    # pair at distance exactly 4 exists iff the diameter is at least 4
    diam = 0
    for v0 in range(g.n):
        dist = bfs_distances(g.adj, v0)
        if -1 in dist:
            return _cross_component_double_star(g)
        if 4 in dist:
            v4 = dist.index(4)
            break
        diam = max(diam, *dist)
    else:
        raise DiameterTooSmall(diam, 4)
    edges = {edge(v0, v4)}
    for p in g.adj[v0]:
        edges.add(edge(p, v4))
    for q in g.adj[v4]:
        edges.add(edge(q, v0))
    near = g.adj[v0] | g.adj[v4] | {v0, v4}
    for w in range(g.n):
        if w not in near:
            edges.add(edge(w, v0))
            edges.add(edge(w, v4))
    gprime = Graph(g.n, edges)
    sp = SplitPartition(x=frozenset(range(g.n)) - {v0, v4}, y=(v0, v4))
    tree = split_odd_spanning_tree(gprime, sp)
    assert sum(1 for d in degrees(tree, g.n) if d >= 2) == 2
    return tree


def _cross_component_double_star(g: Graph) -> EdgeSet:
    """Double star in the complement of a disconnected even-order g.

    Centres v0 and v4 from different components are adjacent in the
    complement and share no neighbor in g.  N(v0) must hang on v4,
    N(v4) on v0, and every other leaf on either; each centre needs an
    even number of leaves, at least 2, for odd degree.  Takes the least
    pair where that split exists, giving v0 the fewest leaves it can have
    and the lowest free ones.  A pair inside one component that admits
    the split can trade one centre for a vertex of another component, so
    when no cross pair works the complement has no odd double star.

    Raises:
        NoDoubleStar: no cross-component pair admits the split.
    """
    n = g.n
    comp = [-1] * n
    for s in range(n):
        if comp[s] < 0:
            for w, d in enumerate(bfs_distances(g.adj, s)):
                if d >= 0:
                    comp[w] = s
    for v0 in range(n):
        for v4 in range(v0 + 1, n):
            if comp[v0] == comp[v4]:
                continue
            forced0, forced4 = g.adj[v4], g.adj[v0]
            on0 = max(len(forced0), 2)
            on0 += on0 % 2
            on4 = max(len(forced4), 2)
            on4 += on4 % 2
            if on0 + on4 > n - 2:
                continue
            taken = forced0 | forced4 | {v0, v4}
            free = [w for w in range(n) if w not in taken]
            leaves0 = forced0 | set(free[: on0 - len(forced0)])
            edges = {edge(v0, v4)}
            for w in range(n):
                if w not in (v0, v4):
                    edges.add(edge(w, v0 if w in leaves0 else v4))
            return frozenset(edges)
    raise NoDoubleStar(f"no spanning odd double star in the complement of this {n}-vertex graph")

"""Odd spanning trees in split graphs, and double stars in complements.

A split graph partitions into an independent set X and a clique Y.  For
even order there is a clean obstruction: no odd spanning tree exists
exactly when every clique vertex has an odd number of independent-set
neighbors and those neighborhoods are pairwise disjoint.  Whenever the
obstruction fails, a tree assembles from a star forest centered on Y
plus a chain-and-spokes pattern inside the clique.

A spanning odd double star in the complement of an even-order graph is
decided exactly by one rule on pairs of far-apart centres; every
connected graph of diameter at least four has one, as the paper shows.
"""

from __future__ import annotations

from operator import ge
from typing import NamedTuple

from .errors import BadWitness, Disconnected, OddOrder
from .graph_core import (
    EdgeSet,
    Graph,
    bfs_distances,
    edge,
    is_connected,
)


class SplitPartition(NamedTuple):
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
        if not g.adj[u].isdisjoint(xs):
            raise BadWitness(f"x side is not independent at vertex {u}")
    for v in ys:
        # v is no neighbour of itself, so only v is left when ys is a clique
        if len(ys - g.adj[v]) != 1:
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
    deg = list(map(len, g.adj))
    # a stable sort, so reverse=True keeps equal degrees in vertex order
    order = sorted(range(g.n), key=deg.__getitem__, reverse=True)
    d = list(map(deg.__getitem__, order))
    # d[i] - i falls strictly, so the indices with d[i] >= i are the first m
    m = sum(map(ge, d, range(g.n)))
    if sum(d[:m]) != m * (m - 1) + sum(d[m:]):
        return None
    return SplitPartition(frozenset(order[m:]), tuple(sorted(order[:m])))


def _x_degrees_odd(g: Graph, sp: SplitPartition) -> bool:
    ys = set(sp.y)
    return all(len(g.adj[y] - ys) % 2 == 1 for y in sp.y)


def _neighborhoods_disjoint(g: Graph, sp: SplitPartition) -> bool:
    ys = set(sp.y)
    return all(len(g.adj[x] & ys) <= 1 for x in sp.x)


def split_no_tree_condition(g: Graph, sp: SplitPartition) -> bool:
    """True iff the connected even-order g has no odd spanning tree.

    A single clique vertex makes g a star, its own odd spanning tree.

    Raises:
        OddOrder: the criterion only characterizes even order.
    """
    validate_partition(g, sp)
    if g.n % 2:
        raise OddOrder(f"order {g.n} is odd")
    return len(sp.y) >= 2 and _x_degrees_odd(g, sp) and _neighborhoods_disjoint(g, sp)


def build_y_star_forest(g: Graph, sp: SplitPartition) -> dict[int, int] | None:
    """Spanning star forest with at least one even-size star, as the
    center each independent vertex picks; None when there is none.

    Star size means leaf count.  If some center y0 has an even number
    of X-neighbors, give y0 all of them and send every other x to its
    lowest adjacent center.  Otherwise all X-degrees are odd and some x
    has two centers available; assigning everyone else lowest-first and
    then steering that x makes one star even.  With no such x the
    nonexistence criterion holds.  sp must be a valid partition of g;
    ``split_odd_spanning_tree`` has validated it.
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
        return None
    xstar = shared[0]
    yj, yk = sorted(g.adj[xstar] & ys)[:2]
    for x in sorted(sp.x):
        if x != xstar:
            assignment[x] = min(g.adj[x] & ys)
    load = sum(1 for c in assignment.values() if c == yj)
    assignment[xstar] = yj if load % 2 == 1 else yk
    return assignment


def split_odd_spanning_tree(g: Graph, sp: SplitPartition) -> EdgeSet | None:
    """Odd spanning tree of a connected split graph of even order, or
    None exactly when the nonexistence criterion holds.

    Reorders the clique so even stars come first, then connects the
    star forest with a chain through the odd stars and spokes from the
    remaining even centers into the chain's end.  A singleton clique
    means g is a star, which is its own odd spanning tree.

    Raises:
        OddOrder, Disconnected, EmptyGraph.
    """
    validate_partition(g, sp)
    if g.n % 2:
        raise OddOrder(f"order {g.n} is odd")
    if not is_connected(g):
        raise Disconnected("split construction needs a connected graph")
    t = len(sp.y)
    if t == 1:
        return g.edge_set()
    forest = build_y_star_forest(g, sp)
    if forest is None:
        return None
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


def double_star_in_complement(g: Graph) -> EdgeSet | None:
    """Spanning odd double star in the complement of g, or None if none exists.

    Centres u and v must be in different components of g or at distance
    at least 3 in it.  N(v) hangs on u, N(u) on v, and every other vertex
    on either; each centre needs an even number of leaves, at least 2.
    The first centre of a pair takes the fewest leaves it can, lowest ids
    first.  A disconnected g tries its cross-component pairs (u < v) in
    order, u first; a connected g tries its distance-4 pairs, then its
    distance-3 pairs, each as (v, u) with u < v.  No other pair is
    needed: every distance-4 pair admits the split, a longer shortest
    path holds a distance-4 pair, and when g is disconnected a pair
    inside one component that admits the split can swap a centre for a
    vertex of another component.

    Raises:
        OddOrder: a tree with odd degrees only spans even order.
    """
    n = g.n
    if n % 2:
        raise OddOrder(f"order {n} is odd")
    dist = [bfs_distances(g.adj, s) for s in range(n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if any(-1 in d for d in dist):
        order = [(u, v) for u, v in pairs if dist[u][v] == -1]
    else:
        order = [(v, u) for far in (4, 3) for u, v in pairs if dist[u][v] == far]
    for first, second in order:
        # each centre's least even leaf count of at least 2, forced ones included
        need = [max(2, k + k % 2) for k in (g.degree(second), g.degree(first))]
        if sum(need) > n - 2:
            continue
        taken = g.adj[first] | g.adj[second] | {first, second}
        free = [w for w in range(n) if w not in taken]
        on_first = g.adj[second] | set(free[: need[0] - g.degree(second)])
        leaves = (w for w in range(n) if w not in (first, second))
        legs = {edge(w, first if w in on_first else second) for w in leaves}
        return frozenset(legs | {edge(first, second)})
    return None

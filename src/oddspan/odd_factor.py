"""Connected odd factors via parity repair over a two-tree packing.

Pack two edge-disjoint spanning trees, then fix the parity of the first
tree by folding in second-tree paths between paired even-degree
vertices.  Symmetric differences flip degree parity exactly at the path
endpoints, and the repaired factor still contains the first tree, so
connectivity is inherited.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoTreePacking, NotATree, OddOrder
from .graph_core import EdgeSet, Graph, degrees, forest_path, is_spanning_tree, tree_adjacency
from .tree_packing import two_edge_disjoint_spanning_trees


@dataclass(frozen=True)
class OddFactorTrace:
    """Full record of the repair: inputs, pairing, paths, and result."""

    t1: EdgeSet
    t2: EdgeSet
    pairs: tuple[tuple[int, int], ...]
    paths: tuple[EdgeSet, ...]
    result: EdgeSet


def pair_even_vertices(t: EdgeSet, n: int) -> list[tuple[int, int]]:
    """Pair up the even-degree vertices of a spanning tree, ascending.

    On even n the count of even-degree tree vertices is even (degree sum
    2(n-1) forces an even number of odd-degree vertices, and n is even),
    so the pairing is total.
    """
    if not is_spanning_tree(t, n):
        raise NotATree(f"not a spanning tree on {n} vertices")
    evens = [v for v, d in enumerate(degrees(t, n)) if d % 2 == 0]
    assert len(evens) % 2 == 0, "odd count of even-degree vertices; is n odd?"
    return list(zip(evens[0::2], evens[1::2]))


def connected_odd_factor(g: Graph) -> OddFactorTrace:
    """Build a connected odd factor of g by parity repair.

    Requires even order and a two-tree packing; 4-edge-connectivity is a
    sufficient condition callers may check separately.

    Raises:
        OddOrder: no odd graph of odd order exists.
        NoTreePacking: carries the partition certificate.
    """
    if g.n % 2:
        raise OddOrder(f"order {g.n} is odd")
    outcome = two_edge_disjoint_spanning_trees(g)
    if outcome.cert is not None:
        raise NoTreePacking(outcome.cert)
    assert outcome.trees is not None
    t1, t2 = outcome.trees
    pairs = tuple(pair_even_vertices(t1, g.n))
    adj2 = tree_adjacency(t2, g.n)  # validated once for every pair's path
    paths = tuple(frozenset(forest_path(adj2, x, y)) for x, y in pairs)
    result = t1
    for p in paths:
        result = result ^ p
    # Parity bookkeeping: each path flips its two endpoints only.
    flips = [0] * g.n
    for x, y in pairs:
        flips[x] += 1
        flips[y] += 1
    d1 = degrees(t1, g.n)
    for v, d in enumerate(degrees(result, g.n)):
        assert d % 2 == (d1[v] + flips[v]) % 2 == 1, v
    assert t1 <= result, "repair must not disturb the first tree"
    return OddFactorTrace(t1=t1, t2=t2, pairs=pairs, paths=paths, result=result)

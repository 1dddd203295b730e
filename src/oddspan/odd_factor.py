"""Connected odd factors via parity repair over a two-tree packing.

Pack two edge-disjoint spanning trees, then fold into the first tree the
join of its even-degree vertices in the second.  The symmetric
difference flips degree parity exactly at those vertices and still
contains the first tree, so connectivity is inherited.  The factor is
returned unchecked; the CLI verifies it through ``cli.recheck`` before
it becomes an answer, and the sweep checks it through that same path.
Without a packing the answer is the packing's partition certificate.
"""

from __future__ import annotations

from .errors import OddOrder
from .graph_core import EdgeSet, Graph, _checked_tree_walk, degrees
from .tree_packing import PartitionCertificate, two_edge_disjoint_spanning_trees


def connected_odd_factor(g: Graph) -> EdgeSet | PartitionCertificate:
    """A connected odd factor of g, built by parity repair, or the
    partition certificate that refutes a two-tree packing.

    Requires even order and a two-tree packing; 4-edge-connectivity is a
    sufficient condition callers may check separately.  At even n the
    degree sum 2(n - 1) leaves the first tree an even number of
    even-degree vertices, so their join in the second tree exists.  It
    is unique: the edge from a vertex to its parent is the only edge of
    that tree across the cut around the vertex's subtree, so it is in
    the join iff the subtree holds an odd number of those vertices.
    Deepest first, each marked vertex takes the edge to its parent and
    flips the parent's mark, passing its subtree's parity up.

    Raises:
        OddOrder: no odd graph of odd order exists.
        NotATree: the packing's second tree is not a spanning tree.
    """
    if g.n % 2:
        raise OddOrder(f"order {g.n} is odd")
    outcome = two_edge_disjoint_spanning_trees(g)
    if outcome.trees is None:
        return outcome.cert
    t1, t2 = outcome.trees
    marked = [d % 2 == 0 for d in degrees(t1, g.n)]
    adj, depth = _checked_tree_walk(t2, g.n)
    join = []
    for v in sorted(range(g.n), key=depth.__getitem__, reverse=True):
        if marked[v]:
            p = next(w for w in adj[v] if depth[w] < depth[v])
            join.append((p, v) if p < v else (v, p))
            marked[p] = not marked[p]
    return t1 ^ frozenset(join)

"""Connected odd factors via parity repair over a two-tree packing.

Pack two edge-disjoint spanning trees, then fix the parity of the first
tree by folding in second-tree paths between paired even-degree
vertices.  Symmetric differences flip degree parity exactly at the path
endpoints, and the repaired factor still contains the first tree, so
connectivity is inherited.  The factor is returned unchecked; the CLI
verifies it through ``cli.recheck`` before it becomes an answer, and the
sweep checks it through that same path.
Without a packing the answer is the packing's partition certificate.
"""

from __future__ import annotations

from .errors import OddOrder
from .graph_core import EdgeSet, Graph, degrees, forest_path, tree_adjacency
from .tree_packing import PartitionCertificate, two_edge_disjoint_spanning_trees


def connected_odd_factor(g: Graph) -> EdgeSet | PartitionCertificate:
    """A connected odd factor of g, built by parity repair, or the
    partition certificate that refutes a two-tree packing.

    Requires even order and a two-tree packing; 4-edge-connectivity is a
    sufficient condition callers may check separately.  The first tree's
    even-degree vertices pair up in ascending order: at even n their
    count is even, as the degree sum 2(n - 1) leaves an even number of
    odd-degree vertices.

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
    evens = [v for v, d in enumerate(degrees(t1, g.n)) if d % 2 == 0]
    adj2 = tree_adjacency(t2, g.n)  # validated once for every pair's path
    factor = t1
    for x, y in zip(evens[0::2], evens[1::2]):
        factor = factor ^ frozenset(forest_path(adj2, x, y))
    return factor

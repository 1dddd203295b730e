"""Greedy odd spanning trees under a min-degree guarantee.

Start from a star whose center already has odd degree (dropping one
spoke if the graph is even-regular-ish), then repeatedly hang two new
leaves off one inside vertex.  Each step preserves the all-odd degree
invariant; minimum degree n/2 + 1 guarantees a usable inside vertex
exists until the tree spans.
"""

from __future__ import annotations

from .errors import OddOrder, OutOfScope
from .graph_core import EdgeSet, Graph, edge


def odd_spanning_tree_dense(g: Graph) -> EdgeSet:
    """Odd spanning tree of g, assuming min degree at least n/2 + 1.

    The star is the full star of the lowest odd-degree vertex; if every
    degree is even, that of the lowest maximum-degree vertex less the
    spoke to its lowest neighbor.  Each step then takes the lowest inside
    vertex with two outside neighbors and hangs the lowest two on it.

    Raises:
        EmptyGraph, OddOrder, OutOfScope: precondition failures.
    """
    n = g.n
    if n % 2:
        raise OddOrder(f"order {n} is odd")
    bound = n // 2 + 1
    if g.min_degree() < bound:
        raise OutOfScope(f"minimum degree {g.min_degree()} below required bound {bound}")
    odd = [v for v in range(n) if g.degree(v) % 2]
    if odd:
        v = odd[0]
        spokes = g.adj[v]
    else:
        dmax = max(g.degree(w) for w in range(n))
        v = min(w for w in range(n) if g.degree(w) == dmax)
        # both ends of the dropped spoke are inside, so no step can use it
        spokes = g.adj[v] - {min(g.adj[v])}
    tree = {edge(v, w) for w in spokes}
    inside = {v, *spokes}
    # The star holds more than n/2 vertices, and the number k outside stays
    # even.  Each outside vertex has at most k - 1 neighbors outside, so
    # they send at least k(n/2 + 2 - k) edges inside: more than the n - k
    # inside vertices for 2 <= k <= n/2 - 1, so some inside vertex has two.
    while len(inside) < n:
        z = next((z for z in sorted(inside) if len(g.adj[z] - inside) >= 2), None)
        if z is None:  # not an assert, so that ``python -O`` keeps the check
            raise AssertionError("dense greedy found no inside vertex with two outside neighbors")
        x, y = sorted(g.adj[z] - inside)[:2]
        tree |= {edge(z, x), edge(z, y)}
        inside |= {x, y}
    return frozenset(tree)

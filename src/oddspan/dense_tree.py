"""Greedy odd spanning trees under a min-degree guarantee.

Start from a star whose center already has odd degree (dropping one
spoke if the graph is even-regular-ish), then repeatedly hang two new
leaves off one inside vertex.  Each step preserves the all-odd degree
invariant; minimum degree n/2 + 1 guarantees a usable inside vertex
exists until the tree spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import EmptyGraph, GreedyStalled, MinDegreeTooLow, OddOrder
from .graph_core import Edge, EdgeSet, Graph, degrees, edge


@dataclass
class GrowthState:
    """Mutable scratch state for the greedy growth loop."""

    anchor: int
    removed_edge: Edge | None
    tree: set[Edge] = field(default_factory=set)
    inside: set[int] = field(default_factory=set)


def init_state(g: Graph) -> GrowthState:
    """Seed the growth with an odd-degree star.

    If some vertex has odd degree, its full star works.  Otherwise every
    degree is even; take a maximum-degree vertex and drop the spoke to
    its lowest neighbor, leaving an odd center.  Ties break to the
    lowest vertex id.
    """
    if g.n == 0:
        raise EmptyGraph("cannot grow a tree in the empty graph")
    if g.n % 2:
        raise OddOrder(f"order {g.n} is odd")
    bound = g.n // 2 + 1
    if g.min_degree() < bound:
        raise MinDegreeTooLow(g.min_degree(), bound)
    odd = [v for v in range(g.n) if g.degree(v) % 2]
    if odd:
        v = odd[0]
        removed: Edge | None = None
        spokes = sorted(g.adj[v])
    else:
        dmax = max(g.degree(v) for v in range(g.n))
        v = min(w for w in range(g.n) if g.degree(w) == dmax)
        vprime = min(g.adj[v])
        removed = edge(v, vprime)
        spokes = sorted(g.adj[v] - {vprime})
    st = GrowthState(anchor=v, removed_edge=removed)
    st.tree = {edge(v, w) for w in spokes}
    st.inside = {v, *spokes}
    return st


def grow_step(h: Graph, st: GrowthState) -> bool:
    """Attach two outside leaves to one inside vertex; False if stuck.

    h is the working graph: the input minus ``removed_edge``.  Mutates
    ``st`` in place.  Choices are lowest-first throughout.
    """
    for z in sorted(st.inside):
        outside = sorted(h.adj[z] - st.inside)
        if len(outside) >= 2:
            x, y = outside[0], outside[1]
            st.tree.add(edge(z, x))
            st.tree.add(edge(z, y))
            st.inside.add(x)
            st.inside.add(y)
            d = degrees(st.tree, h.n)
            assert all(d[w] % 2 == 1 for w in st.inside), "parity broke"
            return True
    return False


def odd_spanning_tree_dense(g: Graph) -> EdgeSet:
    """Odd spanning tree of g, assuming min degree at least n/2 + 1.

    Raises:
        OddOrder, MinDegreeTooLow: precondition failures.
        GreedyStalled: growth stuck before spanning; carries the state.
            Unreachable when the degree bound holds.
    """
    st = init_state(g)
    if st.removed_edge is None:
        h = g
    else:
        h = Graph(g.n, g.edge_set() - {st.removed_edge})
    while len(st.inside) < g.n:
        if not grow_step(h, st):
            raise GreedyStalled(st)
    return frozenset(st.tree)

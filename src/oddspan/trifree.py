"""Odd spanning trees in complements of triangle-free graphs.

For triangle-free g of even order, the complement has an odd spanning
tree unless g falls in a short list of excluded shapes.  The answer is
one ``(label, tree)`` pair: a construction branch id with its tree, or
an excluded family with no tree.  The construction is a case analysis
anchored either at vertex 0 (when every degree of g is odd) or at the
lowest even-degree vertex.  The branch ids let coverage be audited;
callers check the tree against the complement with ``oddspan.oracle``.

Neighborhoods of any vertex of g are independent, hence cliques in the
complement; that single fact powers most branches.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import Disconnected, EmptyGraph, OddOrder, OutOfScope
from .graph_core import (
    EdgeSet,
    Graph,
    bipartition,
    edge,
    is_triangle_free,
)

COMPLETE_BIPARTITE = "complete-bipartite"
TWO_K2 = "two-k2"
C5_OF_2 = "c5-of-2"
K2S2T = "k2s2t"
K2S2T_MINUS_E = "k2s2t-minus-e"
EXCLUDED_FAMILIES = (COMPLETE_BIPARTITE, TWO_K2, C5_OF_2, K2S2T, K2S2T_MINUS_E)


class TrifreeDecision(NamedTuple):
    """``label`` is the branch id when ``tree`` is an odd spanning tree of
    the complement, and the excluded family when ``tree`` is None."""

    label: str
    tree: EdgeSet | None


def recognize_excluded(g: Graph) -> str | None:
    """Match g against the shapes whose complements have no odd tree.

    Purely structural; non-matching inputs (of any kind) return None.
    """
    n = g.n
    if n == 4 and g.m == 2 and all(g.degree(v) == 1 for v in range(4)):
        return TWO_K2
    if n == 6 and sorted(g.degree(v) for v in range(6)) == [2, 2, 2, 2, 3, 3]:
        u, w = (v for v in range(6) if g.degree(v) == 3)
        if not g.has_edge(u, w) and len(g.adj[u] & g.adj[w]) == 2:
            return C5_OF_2
    try:
        bp = bipartition(g)
    except (Disconnected, EmptyGraph):
        return None
    if bp is None or n < 2:
        return None
    a, b = len(bp.left), len(bp.right)
    even = a % 2 == 0 and b % 2 == 0
    if g.m == a * b:
        return K2S2T if even else COMPLETE_BIPARTITE
    return K2S2T_MINUS_E if even and g.m == a * b - 1 else None


def _all_odd_tree(g: Graph) -> tuple[str, EdgeSet]:
    """Construction when every degree of g is odd.

    Anchored at vertex 0 with xs its neighborhood and ys the rest; a
    non-adjacent cross pair always exists here because the fully joined
    alternative is complete bipartite, which is excluded upstream.
    """
    xs = sorted(g.adj[0])
    ys = sorted(set(range(g.n)) - g.adj[0] - {0})
    pair = next(
        ((x, w) for x in xs for w in ys if not g.has_edge(x, w)),
        None,
    )
    assert pair is not None, "fully joined shape is complete bipartite"
    xstar, ystar = pair
    gaps = [w for w in ys if w != ystar and not g.has_edge(ystar, w)]
    if gaps:
        yp = gaps[0]
        tree = {edge(xstar, ystar), edge(ystar, yp)}
        tree |= {edge(0, w) for w in ys if w != yp}
        tree |= {edge(xstar, x) for x in xs if x != xstar}
        return "T1", frozenset(tree)
    # ystar reaches every other ys-vertex in g
    if len(xs) == 1:
        misses = [w for w in ys if w != ystar and not g.has_edge(xstar, w)]
        assert misses, "near-complete bipartite shape is excluded upstream"
        ypp = misses[0]
        others = [w for w in ys if w not in (ystar, ypp)]
        assert others
        yp = others[0]
        tree = {edge(xstar, ypp), edge(ypp, yp)}
        tree |= {edge(0, w) for w in ys if w != yp}
        return "T1", frozenset(tree)
    misses = [w for w in ys if w != ystar and not g.has_edge(xstar, w)]
    assert misses, "odd degree of xstar leaves a gap beside ystar"
    yp = misses[0]
    xp = min(x for x in xs if x != xstar)
    tree = {edge(xstar, ystar), edge(xstar, yp)}
    tree |= {edge(xstar, x) for x in xs if x not in (xstar, xp)}
    # xp misses ystar, else triangle-freeness makes N(xp) = {0, ystar}, an even degree
    tree.add(edge(xp, ystar))
    tree |= {edge(0, w) for w in ys if w != yp}
    return "T2", frozenset(tree)


def _theta_tree(
    y: int, x1: int, x2: int, a_side: list[int], b_side: list[int], c_side: list[int]
) -> tuple[str, EdgeSet]:
    """Branches where the complement is two cliques sharing c_side.

    The complement here looks like cliques on a_side + c_side and
    b_side + c_side, with x1 attached to a_side and x2; x2 to b_side
    and x1; and no edges between a_side and b_side.  Swapping
    (x1, a_side) with (x2, b_side) keeps that shape, so one swap makes
    the a side the hub and each tree below is built once.
    """
    alpha, beta, gamma = len(a_side), len(b_side), len(c_side)
    # g is build_theta(alpha, beta, gamma) of even order, and the shapes
    # (1, 1, 2), (1, 2, 1) and (2, 1, 1) are c5-of-2: excluded upstream
    if alpha == 1 and beta == 1:
        a, b, c = a_side[0], b_side[0], c_side
        tree = {edge(x1, a), edge(a, c[0]), edge(a, c[2])}
        tree |= {edge(c[2], c[i]) for i in range(3, gamma)}
        tree |= {edge(b, c[2]), edge(b, c[1]), edge(x2, b)}
        return "T11", frozenset(tree)
    if alpha % 2 == 1 and (beta % 2 == 0 or alpha == 1):
        x1, x2, a_side, b_side = x2, x1, b_side, a_side
        alpha, beta = beta, alpha
    if beta == 1 and gamma == 1:
        b, a = b_side[0], a_side
        tree = {edge(x1, x2), edge(x1, a[0]), edge(x1, a[2])}
        tree |= {edge(a[2], a[j]) for j in range(3, alpha)}
        tree |= {edge(y, a[2]), edge(y, a[1]), edge(b, y)}
        return "T11", frozenset(tree)
    if gamma == 1:
        # alpha, beta >= 2 and exactly one of them even: alpha, by the swap
        assert alpha % 2 == 0 and beta % 2 == 1 and beta >= 3
        tree = {edge(x1, a_side[0]), edge(y, a_side[0])}
        tree |= {edge(a_side[0], w) for w in a_side[1:]}
        tree |= {edge(x2, b_side[0]), edge(y, b_side[0]), edge(y, b_side[-1])}
        tree |= {edge(b_side[0], w) for w in b_side[1:-1]}
        return "T12", frozenset(tree)
    # gamma >= 2 and not both sides singletons, so the swap left alpha >= 2
    assert alpha >= 2
    tid = "T9" if alpha % 2 == 0 else "T10"
    spoke = min(w for w in c_side if w != y)
    tree = {edge(x1, x2), edge(x1, a_side[0]), edge(x1, a_side[1])}
    tree.add(edge(a_side[0], y))
    tree |= {edge(a_side[0], w) for w in a_side[2:]}
    tree |= {edge(y, w) for w in b_side}
    tree |= {edge(y, w) for w in c_side if w not in (y, spoke)}
    tree.add(edge(a_side[0], spoke) if tid == "T9" else edge(y, spoke))
    return tid, frozenset(tree)


def _even_anchor_tree(g: Graph) -> tuple[str, EdgeSet]:
    """Construction anchored at the lowest even-degree vertex y.

    xs is the neighborhood of y and ys the rest, y included; y_i maps
    each x to the ys-vertices it misses in g.
    """
    y = min(v for v in range(g.n) if g.degree(v) % 2 == 0)
    xs = sorted(g.adj[y])
    ys = sorted(set(range(g.n)) - g.adj[y])
    if not xs:
        # y is isolated in g, so it dominates the complement
        tree = frozenset(edge(y, w) for w in range(g.n) if w != y)
        return "STAR", tree
    y_i = {x: {w for w in ys if not g.has_edge(x, w)} for x in xs}
    hits = {w: [x for x in xs if w in y_i[x]] for w in ys}
    rich = [w for w in ys if len(hits[w]) >= 2]
    if rich:
        yp = rich[0]
        p, q = hits[yp][0], hits[yp][1]
        tree = {edge(y, w) for w in ys if w != y}
        tree |= {edge(yp, p), edge(yp, q)}
        tree |= {edge(p, x) for x in xs if x not in (p, q)}
        return "T3", frozenset(tree)
    # ys has more than two vertices: with two, g is K(2, |xs|) or that
    # minus an edge, both excluded upstream
    independent = all(
        not g.has_edge(ys[i], ys[j])
        for i in range(len(ys))
        for j in range(i + 1, len(ys))
    )
    if independent:
        wide = [x for x in xs if len(y_i[x]) >= 2]
        if wide:
            xi = wide[0]
            a, b = sorted(y_i[xi])[:2]
            tree = {edge(xi, a), edge(xi, b)}
            tree |= {edge(a, w) for w in ys if w not in (a, b)}
            tree |= {edge(xi, x) for x in xs if x != xi}
            return "T4", frozenset(tree)
        # two pairs at least: with fewer, g is K(|xs|, |ys|) or that minus
        # an edge, both sides even, so excluded upstream
        pairs = [(x, min(y_i[x])) for x in xs if y_i[x]]
        (xa, ya), (xb, yb) = pairs[0], pairs[1]
        if len(xs) >= 4:
            xc = min(x for x in xs if x not in (xa, xb))
            tree = {edge(xa, ya), edge(xb, yb)}
            tree |= {edge(ya, w) for w in ys if w not in (ya, yb)}
            tree |= {edge(xa, xb), edge(xb, xc)}
            tree |= {edge(xa, x) for x in xs if x not in (xa, xb, xc)}
            return "T5", frozenset(tree)
        yc = min(w for w in ys if w not in (ya, yb))
        tree = {edge(xa, ya), edge(xb, yb), edge(ya, yb), edge(ya, yc)}
        tree |= {edge(yb, w) for w in ys if w not in (ya, yb, yc)}
        return "T6", frozenset(tree)
    # ys has an edge ab and each x misses a or b, as g is triangle-free;
    # none is missed twice (T3), so there are two x's, one at each end
    x1, x2 = xs
    a_side = sorted(y_i[x1])
    b_side = sorted(y_i[x2])
    c_side = [w for w in ys if w not in y_i[x1] and w not in y_i[x2]]
    gap = next(
        ((ya, yb) for ya in a_side for yb in b_side if not g.has_edge(ya, yb)),
        None,
    )
    if gap is not None:
        ya, yb = gap
        if len(b_side) == 1:
            x1, x2, a_side, b_side, ya, yb = x2, x1, b_side, a_side, yb, ya
        # every ys-edge joins a_side to b_side, so two singleton sides
        # with a gap leave ys independent: that frame was built as T6
        assert len(b_side) >= 2
        y3 = min(w for w in b_side if w != yb)
        tree = {edge(x1, ya), edge(ya, yb), edge(x2, yb), edge(yb, y3)}
        tree |= {edge(y, w) for w in ys if w not in (y, yb, y3)}
        return "T7", frozenset(tree)
    return _theta_tree(y, x1, x2, a_side, b_side, c_side)


def trifree_complement_tree(g: Graph) -> TrifreeDecision:
    """Decide and build: odd spanning tree in the complement of g.

    Raises:
        EmptyGraph, OutOfScope, OddOrder: input out of scope.
    """
    if g.n == 0:
        raise EmptyGraph("no spanning tree over zero vertices")
    if not is_triangle_free(g):
        raise OutOfScope("input must be triangle-free")
    if g.n % 2:
        raise OddOrder(f"order {g.n} is odd")
    family = recognize_excluded(g)
    if family is not None:
        return TrifreeDecision(family, None)
    if all(g.degree(v) % 2 == 1 for v in range(g.n)):
        return TrifreeDecision(*_all_odd_tree(g))
    return TrifreeDecision(*_even_anchor_tree(g))

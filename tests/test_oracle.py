import pytest

from common import complete, cycle, es, path
from oddspan import oracle
from oddspan.errors import Disconnected, EmptyGraph, SizeCap
from oddspan.families import gen_complete_bipartite, gen_random
from oddspan.graph_core import Graph, degrees, find_root, is_connected
from oddspan.oracle import (
    EVEN_DEGREE_VERTEX,
    HAS_CYCLE,
    NOT_CONNECTED,
    NOT_SPANNING,
    NOT_SUBGRAPH,
    ODD_FACTOR_EDGE_CAP,
    ODD_TREE_VERTEX_CAP,
    WRONG_EDGE_COUNT,
    _reconnectable,
    enumerate_spanning_trees,
    find_connected_odd_factor_bruteforce,
    find_odd_spanning_tree_bruteforce,
    verify_connected_odd_factor,
    verify_odd_spanning_tree,
)


def test_verify_tree_ok():
    rep = verify_odd_spanning_tree(complete(4), es((0, 1), (0, 2), (0, 3)))
    assert rep.ok and rep.failure is None and rep.vertex is None


def test_verify_tree_failures_in_order():
    g = complete(4)
    assert verify_odd_spanning_tree(cycle(4), es((0, 1), (0, 2), (0, 3))).failure == NOT_SUBGRAPH
    assert verify_odd_spanning_tree(g, es((0, 1))).failure == WRONG_EDGE_COUNT
    assert verify_odd_spanning_tree(g, es((0, 1), (0, 2), (1, 2))).failure == HAS_CYCLE
    rep = verify_odd_spanning_tree(path(4), es((0, 1), (1, 2), (2, 3)))
    assert rep.failure == EVEN_DEGREE_VERTEX
    assert rep.vertex == 1  # lowest even vertex reported


def test_verify_factor_ok():
    assert verify_connected_odd_factor(complete(4), complete(4).edge_set()).ok


def test_verify_factor_failures():
    g = complete(4)
    assert verify_connected_odd_factor(cycle(4), es((0, 2))).failure == NOT_SUBGRAPH
    rep = verify_connected_odd_factor(g, es((0, 1)))
    assert rep.failure == NOT_SPANNING and rep.vertex == 2
    assert verify_connected_odd_factor(g, es((0, 1), (2, 3))).failure == NOT_CONNECTED
    rep = verify_connected_odd_factor(cycle(4), cycle(4).edge_set())
    assert rep.failure == EVEN_DEGREE_VERTEX and rep.vertex == 0


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_spanning_trees(cycle(4))) == 4
    assert sum(1 for _ in enumerate_spanning_trees(complete(4))) == 16
    assert sum(1 for _ in enumerate_spanning_trees(path(5))) == 1
    assert list(enumerate_spanning_trees(Graph(1))) == [frozenset()]


def test_enumerate_cayley():
    # n^(n-2) labeled trees in the complete graph
    for n in range(2, 7):
        assert sum(1 for _ in enumerate_spanning_trees(complete(n))) == n ** (n - 2)


def test_enumerate_visits_valid_trees():
    got = list(enumerate_spanning_trees(complete(4)))
    assert len(got) == len(set(got)) == 16
    for t in got:
        assert len(t) == 3


def test_enumerate_early_stop():
    trees = enumerate_spanning_trees(complete(4))
    assert next(trees) == es((0, 1), (0, 2), (0, 3))


def test_enumerate_disconnected():
    # raised by the call itself, before the first tree is asked for
    with pytest.raises(Disconnected):
        enumerate_spanning_trees(Graph(4, [(0, 1), (2, 3)]))


def test_find_odd_tree_first_hit_is_frozen():
    assert find_odd_spanning_tree_bruteforce(complete(4)) == es((0, 1), (0, 2), (0, 3))
    assert find_odd_spanning_tree_bruteforce(Graph(2, [(0, 1)])) == es((0, 1))


def test_find_odd_tree_negative_cases():
    assert find_odd_spanning_tree_bruteforce(cycle(4)) is None
    assert find_odd_spanning_tree_bruteforce(cycle(6)) is None  # only path trees
    assert find_odd_spanning_tree_bruteforce(path(4)) is None
    # odd order: handshake forbids all-odd degrees
    for g in (cycle(5), complete(5), path(3), Graph(1)):
        assert find_odd_spanning_tree_bruteforce(g) is None


def test_find_odd_tree_skips_the_search_at_odd_order(monkeypatch):
    # the handshake lemma answers an odd order; exhausting K9 took over a second
    def refuse(*args):
        raise AssertionError("searched a graph of odd order")

    monkeypatch.setattr(oracle, "_reconnectable", refuse)
    assert find_odd_spanning_tree_bruteforce(complete(9)) is None
    # the connectivity error still comes first (test_size_caps holds the cap's)
    with pytest.raises(Disconnected):
        find_odd_spanning_tree_bruteforce(Graph(5, [(0, 1)]))


def test_find_odd_tree_agrees_with_verifier():
    from oddspan.sweep import all_connected_graphs

    hits = 0
    for g in all_connected_graphs(4):
        t = find_odd_spanning_tree_bruteforce(g)
        if t is not None:
            hits += 1
            assert verify_odd_spanning_tree(g, t).ok
    assert hits > 0


def test_find_factor_frozen():
    assert find_connected_odd_factor_bruteforce(complete(4)) == complete(4).edge_set()
    assert find_connected_odd_factor_bruteforce(cycle(4)) is None
    assert find_connected_odd_factor_bruteforce(cycle(6)) is None
    assert find_connected_odd_factor_bruteforce(cycle(5)) is None
    f = find_connected_odd_factor_bruteforce(gen_complete_bipartite(3, 3))
    assert f is not None and verify_connected_odd_factor(gen_complete_bipartite(3, 3), f).ok


def test_find_factor_on_the_factor_universe(monkeypatch):
    # the factor sweep accepts a verified factor without asking this oracle,
    # so the oracle's completeness on those graphs is checked here
    from oddspan import sweep

    cases = []
    monkeypatch.setattr(sweep, "_report", lambda title, checker, gs, workers: cases.extend(gs))
    sweep.sweep_factor()
    small = [g for g in cases if g.m <= ODD_FACTOR_EDGE_CAP]
    assert small[:3] == [complete(6), gen_complete_bipartite(4, 4), sweep.circulant(8, (1, 2))]
    assert len(small) > 3
    for g in small:
        f = find_connected_odd_factor_bruteforce(g)
        assert f is not None and verify_connected_odd_factor(g, f).ok, g


def test_size_caps():
    with pytest.raises(SizeCap):
        find_odd_spanning_tree_bruteforce(path(ODD_TREE_VERTEX_CAP + 1))
    with pytest.raises(SizeCap):
        find_connected_odd_factor_bruteforce(path(ODD_FACTOR_EDGE_CAP + 2))
    with pytest.raises(Disconnected):
        find_odd_spanning_tree_bruteforce(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(Disconnected):
        find_connected_odd_factor_bruteforce(Graph(4, [(0, 1), (2, 3)]))


# Frozen copies of the two searches as they were before the search
# invariant let them skip the reconnect tests and the edge-count guard.
# The searches must keep visiting the same nodes in the same order.


def _frozen_enumerate(g):
    n = g.n
    if n == 1:
        return [frozenset()]
    edges = sorted(g.edge_set())
    m = len(edges)
    chosen = []
    out = []

    def rec(i, parent, ncomp):
        if ncomp == 1:
            out.append(frozenset(chosen))
            return
        if i == m or m - i < ncomp - 1:
            return
        u, v = edges[i]
        ru, rv = find_root(parent, u), find_root(parent, v)
        if ru != rv:
            child = parent.copy()
            child[ru] = rv
            chosen.append(edges[i])
            rec(i + 1, child, ncomp - 1)
            chosen.pop()
            if _reconnectable(parent, ncomp, edges, i + 1):
                rec(i + 1, parent, ncomp)
        else:
            rec(i + 1, parent, ncomp)

    rec(0, list(range(n)), n)
    return out


def _frozen_find_odd_tree(g):
    n = g.n
    if n == 1:
        return None
    edges = sorted(g.edge_set())
    m = len(edges)
    deg = [0] * n
    undecided = degrees(edges, n)
    chosen = []
    found = None

    def parity_ok(w):
        return undecided[w] > 0 or deg[w] % 2 == 1

    def rec(i, parent, ncomp):
        nonlocal found
        if ncomp == 1:
            if all(d % 2 == 1 for d in deg):
                found = frozenset(chosen)
                return True
            return False
        if i == m or m - i < ncomp - 1:
            return False
        u, v = edges[i]
        undecided[u] -= 1
        undecided[v] -= 1
        try:
            ru, rv = find_root(parent, u), find_root(parent, v)
            if ru != rv:
                deg[u] += 1
                deg[v] += 1
                if parity_ok(u) and parity_ok(v):
                    child = parent.copy()
                    child[ru] = rv
                    chosen.append(edges[i])
                    if rec(i + 1, child, ncomp - 1):
                        return True
                    chosen.pop()
                deg[u] -= 1
                deg[v] -= 1
            if parity_ok(u) and parity_ok(v) and _reconnectable(parent, ncomp, edges, i + 1):
                return rec(i + 1, parent, ncomp)
            return False
        finally:
            undecided[u] += 1
            undecided[v] += 1

    rec(0, list(range(n)), n)
    return found


def test_find_odd_tree_matches_frozen_search():
    from oddspan.sweep import all_connected_graphs

    graphs = [g for n in range(1, 7) for g in all_connected_graphs(n)]
    # odd order searches the whole tree space, so n = 9 stays sparse
    grid = [(n, p) for n in (7, 8, 10) for p in (0.3, 0.5, 0.7, 0.9)]
    grid += [(9, 0.3), (9, 0.5)]
    seeded = (gen_random(n, p, seed) for n, p in grid for seed in range(60))
    graphs += [g for g in seeded if is_connected(g)]
    for g in graphs:
        assert find_odd_spanning_tree_bruteforce(g) == _frozen_find_odd_tree(g), g.edge_set()


def test_enumerate_order_matches_frozen_search():
    from oddspan.sweep import all_connected_graphs

    for n in range(1, 6):
        for g in all_connected_graphs(n):
            assert list(enumerate_spanning_trees(g)) == _frozen_enumerate(g), g.edge_set()


# Frozen copies of the two verifiers as they were when the tree verifier
# ran its own union-find and both counted degrees from the edge set.  The
# verifiers must keep reporting the same failure at the same vertex.


def _frozen_verify_tree(g, t):
    if not t <= g.edge_set():
        return (False, NOT_SUBGRAPH, None)
    if len(t) != g.n - 1:
        return (False, WRONG_EDGE_COUNT, None)
    parent = list(range(g.n))
    for u, v in sorted(t):
        ru, rv = find_root(parent, u), find_root(parent, v)
        if ru == rv:
            return (False, HAS_CYCLE, None)
        parent[ru] = rv
    for v, d in enumerate(degrees(t, g.n)):
        if d % 2 == 0:
            return (False, EVEN_DEGREE_VERTEX, v)
    return (True, None, None)


def _frozen_verify_factor(g, f):
    if not f <= g.edge_set():
        return (False, NOT_SUBGRAPH, None)
    deg = degrees(f, g.n)
    for v, d in enumerate(deg):
        if d == 0:
            return (False, NOT_SPANNING, v)
    if not is_connected(Graph(g.n, f)):
        return (False, NOT_CONNECTED, None)
    for v, d in enumerate(deg):
        if d % 2 == 0:
            return (False, EVEN_DEGREE_VERTEX, v)
    return (True, None, None)


def test_verifiers_match_frozen_verifiers():
    seen = set()
    for n in range(6):
        full = sorted(complete(n).edge_set())
        hosts = [complete(n)] + ([cycle(n)] if n >= 3 else [])
        for mask in range(1 << len(full)):
            s = frozenset(e for i, e in enumerate(full) if mask >> i & 1)
            for g in hosts:
                for new, old in ((verify_odd_spanning_tree, _frozen_verify_tree),
                                 (verify_connected_odd_factor, _frozen_verify_factor)):
                    if n == 0 and new is verify_connected_odd_factor:
                        # connectivity of the empty graph is undefined
                        for verify in (new, old):
                            with pytest.raises(EmptyGraph):
                                verify(g, s)
                        continue
                    rep = new(g, s)
                    assert (rep.ok, rep.failure, rep.vertex) == old(g, s), (n, sorted(s))
                    seen.add((new.__name__, rep.failure))
    # every failure of each verifier fired somewhere in the universe
    tree = {NOT_SUBGRAPH, WRONG_EDGE_COUNT, HAS_CYCLE, EVEN_DEGREE_VERTEX, None}
    factor = {NOT_SUBGRAPH, NOT_SPANNING, NOT_CONNECTED, EVEN_DEGREE_VERTEX, None}
    assert seen == {("verify_odd_spanning_tree", f) for f in tree} | {
        ("verify_connected_odd_factor", f) for f in factor}

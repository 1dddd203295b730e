import random
from collections import Counter, deque
from itertools import permutations

import pytest

from common import complete, cycle, es, joined_cliques, line_events, path
from oddspan import graph_core
from oddspan.errors import Disconnected, EmptyGraph, NotATree
from oddspan.families import gen_complete_bipartite, gen_random
from oddspan.graph_core import (
    Graph,
    bfs_distances,
    bipartition,
    complement,
    complement_has_triangle,
    diameter,
    edge,
    edge_connectivity,
    edge_connectivity_at_least,
    find_root,
    forest_path,
    is_connected,
    is_spanning_tree,
    is_triangle_free,
    tree_bipartition,
)
from oddspan.oracle import enumerate_spanning_trees
from oddspan.sweep import all_connected_graphs, all_graphs, circulant


def test_edge_normalizes_and_rejects_loops():
    assert edge(3, 1) == (1, 3)
    assert edge(1, 3) == (1, 3)
    with pytest.raises(ValueError, match="^self-loop at vertex 2$"):
        edge(2, 2)


def test_graph_basics():
    g = Graph(4, [(0, 1), (1, 0), (2, 3)])
    assert g.m == 2  # duplicates collapse
    assert g.degree(1) == 1
    assert g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.edge_set() == es((0, 1), (2, 3))
    assert g == Graph(4, [(2, 3), (0, 1)])


def test_edge_set_is_built_once_and_leaves_equality_alone():
    for n in range(6):
        for g in all_graphs(n):
            for h in (g, complement(g)):
                rebuilt = frozenset((u, v) for u in range(h.n) for v in h.adj[u] if u < v)
                twin = Graph(h.n, ((v, u) for u, v in rebuilt))
                assert h._edges is None and twin._edges is None
                # the edge count reads degrees, not the edge set
                assert h.m == len(rebuilt) and h._edges is None
                edges = h.edge_set()
                assert edges == rebuilt
                assert h.edge_set() is edges
                assert h.m == len(edges) == sum(map(len, h.adj)) // 2
                # one side cached, the other not: still equal, same hash
                assert twin._edges is None
                assert h == twin and twin == h
                assert hash(h) == hash(twin)


def test_graph_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError, match="^vertex count must be nonnegative, got -1$"):
        Graph(-1)
    with pytest.raises(ValueError, match="^self-loop at vertex 1$"):
        Graph(3, [(0, 1), (1, 1)])


def test_min_degree_empty_graph():
    with pytest.raises(EmptyGraph):
        Graph(0).min_degree()
    assert complete(4).min_degree() == 3
    assert path(4).min_degree() == 1


def test_complement_involution_seeded():
    # 500 random graphs, n up to 12
    for i in range(500):
        n = 2 + i % 11
        g = gen_random(n, 0.1 * (i % 10), i)
        assert complement(complement(g)) == g


def _pair_loop_complement(g):
    return Graph(g.n, ((u, v) for u in range(g.n) for v in range(u + 1, g.n) if v not in g.adj[u]))


def test_complement_matches_the_pair_loop():
    graphs = [g for n in range(7) for g in all_graphs(n)]
    assert len(graphs) == 1 + 1 + 2 + 8 + 64 + 1024 + 32768
    graphs += [gen_random(2 + i % 59, 0.1 * (i % 11), i) for i in range(300)]
    for g in graphs:
        h = complement(g)
        want = _pair_loop_complement(g)
        assert h == want and hash(h) == hash(want), (g.n, sorted(g.edge_set()))
        assert h.edge_set() == want.edge_set()
        assert all(type(a) is frozenset for a in h.adj)


def test_trusted_constructor_equals_the_checked_one():
    graphs = [g for n in range(6) for g in all_graphs(n)]
    graphs += [gen_random(2 + i % 59, 0.1 * (i % 11), i) for i in range(100)]
    for g in graphs:
        edges = sorted(g.edge_set())
        nbrs = [set() for _ in range(g.n)]
        for u, v in edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        trusted = Graph._from_neighbours(nbrs)
        checked = Graph(g.n, edges)
        assert trusted._edges is None
        assert trusted == checked and checked == trusted
        assert hash(trusted) == hash(checked)
        assert trusted.edge_set() == checked.edge_set() == frozenset(edges)
        assert trusted.n == g.n and all(type(a) is frozenset for a in trusted.adj)


def test_complement_counts():
    g = complement(complete(4))
    assert g.m == 0
    h = complement(path(4))
    assert h.m == 6 - 3
    assert h.edge_set() == es((0, 2), (0, 3), (1, 3))


def test_is_connected():
    assert is_connected(path(5))
    assert is_connected(Graph(1))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
    assert not is_connected(Graph(2))


def test_is_spanning_tree():
    assert is_spanning_tree(es((0, 1), (1, 2)), 3)
    assert not is_spanning_tree(es((0, 1)), 3)
    assert not is_spanning_tree(es((0, 1), (1, 2), (0, 2)), 3)
    assert not is_spanning_tree(es((0, 1), (2, 3), (0, 1)), 4)


def test_bipartition_normalized_vertex_zero_left():
    bp = bipartition(cycle(4))
    assert bp is not None
    assert bp.left == frozenset({0, 2})
    assert bp.right == frozenset({1, 3})
    assert bipartition(cycle(5)) is None
    with pytest.raises(Disconnected):
        bipartition(Graph(4, [(0, 1), (2, 3)]))


def test_tree_bipartition_path(monkeypatch):
    # one BFS both checks the tree and colours it
    calls = []
    real = graph_core.bfs_distances

    def counting(adj, s):
        calls.append(s)
        return real(adj, s)

    monkeypatch.setattr(graph_core, "bfs_distances", counting)
    bp = tree_bipartition(es((0, 1), (1, 2), (2, 3)), 4)
    assert bp.left == frozenset({0, 2})
    assert bp.right == frozenset({1, 3})
    assert calls == [0]


def test_bipartite_graph_trees_share_bipartition():
    g = gen_complete_bipartite(2, 3)
    want = bipartition(g)
    seen = [tree_bipartition(t, g.n) for t in enumerate_spanning_trees(g)]
    assert len(seen) == 12  # 2^2 * 3^1 by the bipartite tree count
    assert all(s == want for s in seen)


def test_nonbipartite_graph_has_two_tree_bipartitions():
    seen = {tree_bipartition(t, 4) for t in enumerate_spanning_trees(complete(4))}
    assert len(seen) >= 2


def test_tree_path():
    adj = _adjacency_shapes(5, es((0, 1), (1, 2), (2, 3), (2, 4)))[1]
    assert forest_path(adj, 0, 3) == [(0, 1), (1, 2), (2, 3)]
    assert forest_path(adj, 3, 4) == [(2, 3), (2, 4)]
    assert forest_path(adj, 1, 1) == []


def test_tree_path_and_adjacency_reject_non_trees():
    for t, n in (
        (es((0, 1), (1, 2), (0, 2)), 3),  # a cycle
        (es((0, 1)), 3),  # too few edges
        (es((0, 1), (1, 3)), 3),  # an endpoint out of range
        (es((0, 1), (0, 2), (1, 2), (3, 4)), 5),  # n - 1 edges, two parts
    ):
        with pytest.raises(NotATree):  # tree_bipartition shares the checked tree walk
            tree_bipartition(t, n)


def test_tree_path_endpoint_degrees():
    # endpoints odd (degree 1), interior degree 2, for a spread of pairs
    t = es((0, 1), (1, 2), (1, 3), (3, 4), (4, 5))
    adj = _adjacency_shapes(6, t)[1]  # one adjacency walks every path
    for u in range(6):
        for v in range(6):
            p = frozenset(forest_path(adj, u, v))
            if u == v:
                assert p == frozenset()
                continue
            deg = {}
            for a, b in p:
                deg[a] = deg.get(a, 0) + 1
                deg[b] = deg.get(b, 0) + 1
            assert deg[u] == 1 and deg[v] == 1
            assert all(d == 2 for w, d in deg.items() if w not in (u, v))


def _adjacency_shapes(n, edges):
    """The same graph as a tuple of frozensets, a list of lists and a dict of sets."""
    lists = [[] for _ in range(n)]
    for u, v in edges:
        lists[u].append(v)
        lists[v].append(u)
    return (
        Graph(n, edges).adj,
        lists,
        {v: set(nbrs) for v, nbrs in enumerate(lists)},
    )


def test_bfs_distances_and_forest_path_on_every_adjacency_shape():
    # a two-component forest: the tree 0-1-2-3 with 2-4 hung on it, and 5-6
    forest = [(0, 1), (1, 2), (2, 3), (2, 4), (5, 6)]
    for adj in _adjacency_shapes(7, forest):
        assert bfs_distances(adj, 0) == [0, 1, 2, 3, 3, -1, -1]
        assert bfs_distances(adj, 6) == [-1, -1, -1, -1, -1, 1, 0]
        assert forest_path(adj, 3, 4) == [(2, 3), (2, 4)]
        assert forest_path(adj, 0, 3) == [(0, 1), (1, 2), (2, 3)]
        assert forest_path(adj, 4, 0) == [(2, 4), (1, 2), (0, 1)]
        assert forest_path(adj, 6, 5) == [(5, 6)]
        assert forest_path(adj, 1, 1) == []
        for u, v in ((0, 5), (6, 4), (3, 6)):
            with pytest.raises(Disconnected):
                forest_path(adj, u, v)
    for adj in _adjacency_shapes(5, cycle(5).edge_set()):
        assert bfs_distances(adj, 0) == [0, 1, 2, 2, 1]


def test_star_import_binds_every_public_name():
    names = {}
    exec("from oddspan.graph_core import *", names)
    assert set(graph_core.__all__) <= set(names)
    assert "forest_path" in names and "symmetric_difference" not in names
    assert "tree_path" not in names and "tree_adjacency" not in names


def test_edge_connectivity_named():
    assert edge_connectivity(path(4)) == 1
    assert edge_connectivity(cycle(4)) == 2
    assert edge_connectivity(complete(4)) == 3
    assert edge_connectivity(circulant(8, (1, 2))) == 4
    assert edge_connectivity(Graph(4, [(0, 1), (2, 3)])) == 0


def test_edge_connectivity_at_most_min_degree():
    for i in range(200):
        n = 3 + i % 8
        g = gen_random(n, 0.3 + 0.07 * (i % 10), i)
        if g.m == 0:
            continue
        assert edge_connectivity(g) <= g.min_degree()


def _min_cut_bruteforce(g):
    """Fewest edges across any split of the vertices into two nonempty sides."""
    adj = [sum(1 << u for u in g.adj[v]) for v in range(g.n)]
    # every side that holds vertex 0: the odd masks below the full one
    return min(
        sum((adj[v] & ~side).bit_count() for v in range(g.n) if side >> v & 1)
        for side in range(1, (1 << g.n) - 1, 2)
    )


def test_edge_connectivity_at_least_matches_exact_on_small_graphs():
    # every labeled graph with n <= 6, disconnected and edgeless ones included
    bounded = below_degree = 0
    for n in range(2, 7):
        for g in all_graphs(n):
            lam = _min_cut_bruteforce(g)
            assert edge_connectivity(g) == lam, (n, sorted(g.edge_set()))
            below_degree += lam < g.min_degree()
            for k in range(7):
                assert edge_connectivity_at_least(g, k) == (lam >= k), (n, sorted(g.edge_set()), k)
                bounded += lam < k <= g.min_degree()
    # the answer often rests on the bounded flows, not on the degree test
    assert bounded > 500 and below_degree > 500


def test_edge_connectivity_flows_only_to_a_dominating_set(monkeypatch):
    g, cut = gen_random(40, 0.5, 1), joined_cliques(10, 3)
    # the exact value as one flow to every other vertex finds it
    every = [min(graph_core._max_flow_unit(h, 0, t, h.n) for t in range(1, h.n)) for h in (g, cut)]
    assert every == [g.min_degree(), 3] and cut.min_degree() == 9
    real, sinks = graph_core._max_flow_unit, []

    def counted(h, s, t, bound):
        sinks.append(t)
        return real(h, s, t, bound)

    monkeypatch.setattr(graph_core, "_max_flow_unit", counted)
    assert [edge_connectivity(g), edge_connectivity(cut)] == every
    assert sinks == [1, 2, 3, 6, 12, 31, 11]
    sinks.clear()
    assert edge_connectivity_at_least(g, g.min_degree()) and not edge_connectivity_at_least(cut, 4)
    assert sinks == [1, 2, 3, 6, 12, 31, 11]


def test_edge_connectivity_at_least_matches_exact_seeded():
    # plain draws, and two dense draws joined by one to three edges, whose
    # cut sits below the minimum degree
    bounded = 0
    for i in range(90):
        n = 8 + i % 9
        if i % 2 == 0:
            g = gen_random(n, 0.3 + 0.1 * (i % 7), i)
        else:
            h = n // 2
            a, b = gen_random(h, 0.9, i), gen_random(n - h, 0.9, i + 1)
            links = [(j, h + j) for j in range(1 + i % 3)]
            g = Graph(n, [*a.edge_set(), *((u + h, v + h) for u, v in b.edge_set()), *links])
        lam = edge_connectivity(g)
        # one flow to every other vertex, as the value was computed before
        assert lam == min(graph_core._max_flow_unit(g, 0, t, n) for t in range(1, n)), (n, i)
        for k in range(n + 1):
            assert edge_connectivity_at_least(g, k) == (lam >= k), (n, i, k)
            bounded += lam < k <= g.min_degree()
    assert bounded > 0


def test_edge_connectivity_at_least_named():
    g = joined_cliques(5, 3)
    assert g.min_degree() == 4 and edge_connectivity(g) == 3
    assert edge_connectivity_at_least(g, 3)
    assert not edge_connectivity_at_least(g, 4)
    assert edge_connectivity_at_least(circulant(8, (1, 2)), 4)
    assert not edge_connectivity_at_least(cycle(4), 4)
    # minimum degree 1 but no path from vertex 0 to vertex 2
    assert not edge_connectivity_at_least(Graph(4, [(0, 1), (2, 3)]), 1)
    assert edge_connectivity_at_least(Graph(4), 0)
    for n in (0, 1):
        with pytest.raises(EmptyGraph):
            edge_connectivity_at_least(Graph(n), 0)
        with pytest.raises(EmptyGraph):
            edge_connectivity(Graph(n))


def _capacity_table_flow(g, s, t, bound):
    """A frozen copy of the unit flow as it was with a capacity dict of
    2m entries, built afresh for every call."""
    cap = {}
    for u in range(g.n):
        for v in g.adj[u]:
            cap[(u, v)] = 1
    flow = 0
    while flow < bound:
        parent = {s: s}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for v in g.adj[u]:
                if v not in parent and cap[(u, v)] > 0:
                    parent[v] = u
                    queue.append(v)
        if t not in parent:
            return flow
        v = t
        while v != s:
            u = parent[v]
            cap[(u, v)] -= 1
            cap[(v, u)] += 1
            v = u
        flow += 1
    return flow


def test_unit_flow_matches_the_capacity_table_on_small_graphs():
    # every ordered pair of ends, not just sinks of vertex 0, and every bound
    for n in range(2, 6):
        for g in all_connected_graphs(n):
            for s, t in permutations(range(n), 2):
                for bound in range(1, n + 1):
                    got = graph_core._max_flow_unit(g, s, t, bound)
                    assert got == _capacity_table_flow(g, s, t, bound), (n, g.edge_set(), s, t)


def test_unit_flow_matches_the_capacity_table_seeded():
    draws = 0
    for i in range(60):
        n = 8 + (i * 13) % 33
        g = gen_random(n, 0.1 + 0.1 * (i % 5), i)
        if not is_connected(g):
            continue
        draws += 1
        for t in range(1, n):
            for bound in range(1, n + 1):
                got = graph_core._max_flow_unit(g, 0, t, bound)
                assert got == _capacity_table_flow(g, 0, t, bound), (n, i, t, bound)
    assert draws >= 40


def test_unit_flow_keeps_no_capacity_table(monkeypatch):
    # on a path each flow is one augmenting path, which the 2m-entry table
    # used to outweigh
    g = path(600)
    ours = line_events([graph_core._max_flow_unit], lambda: edge_connectivity(g))
    monkeypatch.setattr(graph_core, "_max_flow_unit", _capacity_table_flow)
    table = line_events([_capacity_table_flow], lambda: edge_connectivity(g))
    assert ours <= 0.6 * table, (ours, table)


def test_find_root_halves_paths():
    parent = [0, 0, 1, 2, 3]
    assert find_root(parent, 4) == 0
    assert parent == [0, 0, 0, 2, 2]
    assert find_root(parent, 4) == 0
    assert find_root([0, 1, 2], 2) == 2


def test_diameter():
    assert diameter(path(5)) == 4
    assert diameter(complete(4)) == 1
    assert diameter(cycle(8)) == 4
    with pytest.raises(Disconnected):
        diameter(Graph(4, [(0, 1), (2, 3)]))


def _diameter_by_bfs(g):
    return max(max(bfs_distances(g.adj, s)) for s in range(g.n))


def test_diameter_matches_bfs_from_every_source():
    checked = 0
    for n in range(1, 7):
        for g in all_connected_graphs(n):
            assert diameter(g) == _diameter_by_bfs(g), (n, sorted(g.edge_set()))
            checked += 1
    assert checked == 27476
    diameters = set()
    for i in range(120):
        g = gen_random(2 + i % 59, 0.05 + 0.1 * (i % 9), i)
        if is_connected(g):
            diameters.add(diameter(g))
            assert diameter(g) == _diameter_by_bfs(g), i
    assert len(diameters) >= 5


def _seeded_tree(n, rng):
    """A tree on 0..n-1: each vertex past the first joins an earlier one,
    under a random relabelling."""
    label = list(range(n))
    rng.shuffle(label)
    return Graph(n, [(label[v], label[rng.randrange(v)]) for v in range(1, n)])


def test_tree_and_low_degree_shortcuts_match_the_general_code():
    # a tree's diameter takes two sweeps and λ <= δ <= 1 takes one BFS;
    # the references are a BFS from every source and a unit flow from
    # vertex 0 to every other vertex
    rng = random.Random(39)
    shapes = Counter()
    for i in range(150):
        n = 2 + i % 60
        g = _seeded_tree(n, rng)
        if i % 3:
            # a draw with a pendant vertex: δ <= 1, connected or not
            h = gen_random(n, 0.05 + 0.1 * (i % 5), i)
            g = Graph(n + 1, [*h.edge_set(), (rng.randrange(n), n)])
        lam = min(graph_core._max_flow_unit(g, 0, t, g.n) for t in range(1, g.n))
        assert edge_connectivity(g) == lam, (i, sorted(g.edge_set()))
        if is_connected(g):
            assert diameter(g) == _diameter_by_bfs(g), (i, sorted(g.edge_set()))
        shapes[g.m == g.n - 1, lam] += 1
    assert shapes[True, 1] >= 50 and shapes[False, 1] >= 50 and shapes[False, 0] >= 20


def test_is_triangle_free():
    assert is_triangle_free(cycle(4))
    assert is_triangle_free(cycle(6))
    assert is_triangle_free(gen_complete_bipartite(2, 3))
    assert not is_triangle_free(complete(3))
    assert not is_triangle_free(complete(4))
    assert is_triangle_free(Graph(3))


def test_complement_has_triangle_matches_built_complement():
    graphs = [g for n in range(7) for g in all_graphs(n)]
    graphs += [gen_random(n, p, seed) for n in range(7, 41, 3) for p in (0.5, 0.8, 0.95)
               for seed in range(10)]
    hits = 0
    for g in graphs:
        want = not is_triangle_free(complement(g))
        assert complement_has_triangle(g) == want, (g.n, sorted(g.edge_set()))
        hits += want
    assert 0 < hits < len(graphs)

import pytest

from common import complete, cycle, es
from oddspan import graph_core, odd_factor
from oddspan.errors import NotATree, OddOrder
from oddspan.families import gen_bridge_join, gen_complete, gen_complete_bipartite, gen_random
from oddspan.graph_core import degrees, forest_path
from oddspan.odd_factor import connected_odd_factor
from oddspan.oracle import verify_connected_odd_factor
from oddspan.sweep import all_connected_graphs, circulant
from oddspan.tree_packing import (
    PackingOutcome,
    PartitionCertificate,
    two_edge_disjoint_spanning_trees,
)


def _check_factor(g, f):
    t1, t2 = two_edge_disjoint_spanning_trees(g).trees
    # the repair keeps the first tree and adds second-tree edges only
    assert t1 <= f
    assert f - t1 <= t2
    assert verify_connected_odd_factor(g, f).ok


def test_factor_k6():
    g = complete(6)
    _check_factor(g, connected_odd_factor(g))


def test_factor_k44():
    g = gen_complete_bipartite(4, 4)
    _check_factor(g, connected_odd_factor(g))


def test_factor_circulant():
    g = circulant(8, (1, 2))
    _check_factor(g, connected_odd_factor(g))


def test_second_tree_is_validated_once_for_all_pairs(monkeypatch):
    # two even pairs, and one tree walk, of the second tree only
    g = circulant(8, (1, 2))
    t1, t2 = two_edge_disjoint_spanning_trees(g).trees
    assert sum(1 for d in degrees(t1, g.n) if d % 2 == 0) == 4
    built = []
    real = graph_core._tree_walk

    def counting(edges, n):
        built.append(frozenset(edges))
        return real(edges, n)

    monkeypatch.setattr(graph_core, "_tree_walk", counting)
    f = connected_odd_factor(g)
    assert built == [t2]
    _check_factor(g, f)


def _pair_loop_factor(t1, t2, n):
    """A frozen copy of the first repair: the first tree's even-degree
    vertices paired in ascending order, each pair's second-tree path
    folded in by symmetric difference."""
    adj = [[] for _ in range(n)]
    for u, v in t2:
        adj[u].append(v)
        adj[v].append(u)
    evens = [v for v, d in enumerate(degrees(t1, n)) if d % 2 == 0]
    factor = t1
    for x, y in zip(evens[0::2], evens[1::2]):
        factor = factor ^ frozenset(forest_path(adj, x, y))
    return factor


def _matches_pair_loop(graphs):
    """How many of graphs have a packing; on each, the factor equals the pair loop's."""
    packed = 0
    for g in graphs:
        trees = two_edge_disjoint_spanning_trees(g).trees
        if trees is not None:
            assert connected_odd_factor(g) == _pair_loop_factor(*trees, g.n), g.adj
            packed += 1
    return packed


def test_factor_matches_pair_loop_on_every_small_graph():
    assert _matches_pair_loop(g for n in (4, 6) for g in all_connected_graphs(n)) == 4609


def test_factor_matches_pair_loop_on_seeded_graphs():
    draws = (gen_random(8 + 2 * (s % 17), 0.5, s) for s in range(60))
    assert _matches_pair_loop(draws) == 56


def test_repair_walks_no_forest_path(monkeypatch):
    # a path as first tree leaves its n - 2 interior vertices even
    n = 12
    t1 = frozenset((v, v + 1) for v in range(n - 1))
    t2 = frozenset([(0, v) for v in range(2, n)] + [(1, 3)])
    monkeypatch.setattr(
        odd_factor, "two_edge_disjoint_spanning_trees",
        lambda g: PackingOutcome(trees=(t1, t2)),
    )
    walks = []
    real = graph_core.forest_path

    def counting(adj, u, v):
        walks.append((u, v))
        return real(adj, u, v)

    for module in (graph_core, odd_factor):  # wherever a repair would look the walk up
        monkeypatch.setattr(module, "forest_path", counting, raising=False)
    f = connected_odd_factor(complete(n))
    assert walks == []
    assert t1 <= f and verify_connected_odd_factor(complete(n), f).ok


def test_bad_second_tree_raises_not_a_tree(monkeypatch):
    t1 = es((0, 1), (1, 2), (2, 3))
    cyclic = es((0, 1), (1, 3), (0, 3))  # n - 1 edges: the cycle 0-1-3, and 2 unreached
    monkeypatch.setattr(
        odd_factor, "two_edge_disjoint_spanning_trees",
        lambda g: PackingOutcome(trees=(t1, cyclic)),
    )
    with pytest.raises(NotATree):
        connected_odd_factor(complete(4))


def test_factor_paths_live_in_second_tree():
    g = complete(8)
    _check_factor(g, connected_odd_factor(g))


def test_odd_order_rejected():
    with pytest.raises(OddOrder):
        connected_odd_factor(complete(5))


def test_no_packing_carries_certificate():
    cert = connected_odd_factor(cycle(4))
    assert isinstance(cert, PartitionCertificate)
    assert cert == two_edge_disjoint_spanning_trees(cycle(4)).cert
    assert cert.cross_edges < 2 * (len(cert.parts) - 1)


def test_bridge_join_has_no_packing():
    g = gen_bridge_join(gen_complete(4), gen_complete(4), 0, 0)
    cert = connected_odd_factor(g)
    assert isinstance(cert, PartitionCertificate)
    assert cert == two_edge_disjoint_spanning_trees(g).cert

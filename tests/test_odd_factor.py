import pytest

from common import complete, cycle, es
from oddspan import graph_core, odd_factor
from oddspan.errors import NoTreePacking, NotATree, OddOrder
from oddspan.families import gen_bridge_join, gen_complete, gen_complete_bipartite
from oddspan.graph_core import degrees, is_spanning_tree
from oddspan.odd_factor import connected_odd_factor, pair_even_vertices
from oddspan.oracle import verify_connected_odd_factor
from oddspan.sweep import circulant
from oddspan.tree_packing import PackingOutcome


def test_pair_even_vertices_all_odd_star():
    assert pair_even_vertices(es((0, 1), (0, 2), (0, 3)), 4) == []


def test_pair_even_vertices_path():
    assert pair_even_vertices(es((0, 1), (1, 2), (2, 3)), 4) == [(1, 2)]
    t6 = es((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))
    assert pair_even_vertices(t6, 6) == [(1, 2), (3, 4)]


def test_pair_even_vertices_rejects_non_trees():
    with pytest.raises(NotATree):
        pair_even_vertices(es((0, 1), (1, 2), (0, 2)), 3)
    with pytest.raises(NotATree):
        pair_even_vertices(es((0, 1)), 4)


def _check_trace(g, trace):
    t1, t2 = trace.t1, trace.t2
    assert is_spanning_tree(t1, g.n) and is_spanning_tree(t2, g.n)
    assert not (t1 & t2)
    assert len(trace.pairs) == len(trace.paths)
    # repaired tree keeps every edge of the first tree
    assert t1 <= trace.result
    assert verify_connected_odd_factor(g, trace.result).ok
    assert all(d % 2 == 1 for d in degrees(trace.result, g.n))


def test_factor_k6():
    g = complete(6)
    _check_trace(g, connected_odd_factor(g))


def test_factor_k44():
    g = gen_complete_bipartite(4, 4)
    _check_trace(g, connected_odd_factor(g))


def test_factor_circulant():
    g = circulant(8, (1, 2))
    _check_trace(g, connected_odd_factor(g))


def test_second_tree_is_validated_once_for_all_pairs(monkeypatch):
    # two even pairs; the first tree is checked by pair_even_vertices,
    # the second once for both of its paths
    g = circulant(8, (1, 2))
    built = []
    real = graph_core._adjacency

    def counting(edges, n):
        built.append(frozenset(edges))
        return real(edges, n)

    monkeypatch.setattr(graph_core, "_adjacency", counting)
    trace = connected_odd_factor(g)
    assert len(trace.pairs) == 2
    assert built == [trace.t1, trace.t2]
    _check_trace(g, trace)


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
    trace = connected_odd_factor(g)
    for p in trace.paths:
        assert p <= trace.t2


def test_odd_order_rejected():
    with pytest.raises(OddOrder):
        connected_odd_factor(complete(5))


def test_no_packing_carries_certificate():
    with pytest.raises(NoTreePacking) as info:
        connected_odd_factor(cycle(4))
    cert = info.value.cert
    assert cert is not None
    assert cert.cross_edges < 2 * (len(cert.parts) - 1)


def test_bridge_join_has_no_packing():
    g = gen_bridge_join(gen_complete(4), gen_complete(4), 0, 0)
    with pytest.raises(NoTreePacking):
        connected_odd_factor(g)

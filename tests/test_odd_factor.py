import pytest

from common import complete, cycle, es
from oddspan import graph_core, odd_factor
from oddspan.errors import NotATree, OddOrder
from oddspan.families import gen_bridge_join, gen_complete, gen_complete_bipartite
from oddspan.graph_core import degrees
from oddspan.odd_factor import connected_odd_factor
from oddspan.oracle import verify_connected_odd_factor
from oddspan.sweep import circulant
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

import pytest

from common import complete, cycle, es
from oddspan.dense_tree import odd_spanning_tree_dense
from oddspan.errors import EmptyGraph, OddOrder, OutOfScope
from oddspan.families import gen_complete_bipartite, gen_random
from oddspan.graph_core import Graph, is_connected
from oddspan.oracle import find_odd_spanning_tree_bruteforce, verify_odd_spanning_tree


def test_k4_star():
    assert odd_spanning_tree_dense(complete(4)) == es((0, 1), (0, 2), (0, 3))


def test_k6_star():
    t = odd_spanning_tree_dense(complete(6))
    assert t == es((0, 1), (0, 2), (0, 3), (0, 4), (0, 5))
    assert verify_odd_spanning_tree(complete(6), t).ok


def test_degree_bound_is_strict():
    with pytest.raises(OutOfScope, match="^minimum degree 1 below required bound 2$"):
        odd_spanning_tree_dense(Graph(2, [(0, 1)]))
    with pytest.raises(OutOfScope, match="^minimum degree 2 below required bound 4$"):
        odd_spanning_tree_dense(cycle(6))


def test_k33_below_bound_but_tree_exists():
    # the bound is sufficient, not necessary
    g = gen_complete_bipartite(3, 3)
    with pytest.raises(OutOfScope, match="^minimum degree 3 below required bound 4$"):
        odd_spanning_tree_dense(g)
    t = find_odd_spanning_tree_bruteforce(g)
    assert t is not None and verify_odd_spanning_tree(g, t).ok


def test_octahedron_init_drops_one_spoke():
    # all degrees even: lowest max-degree vertex sheds its least neighbor,
    # so the star is 0-2, 0-4, 0-5, and vertex 2 then takes 1 and 3
    g = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if v != u + 3])
    t = odd_spanning_tree_dense(g)
    assert t == es((0, 2), (0, 4), (0, 5), (1, 2), (2, 3))
    assert verify_odd_spanning_tree(g, t).ok


def test_rejects_odd_order_and_empty():
    with pytest.raises(OddOrder):
        odd_spanning_tree_dense(complete(5))
    with pytest.raises(EmptyGraph):
        odd_spanning_tree_dense(Graph(0))


def test_seeded_dense_instances():
    built = 0
    seed = 0
    while built < 20:
        g = gen_random(8, 0.85, seed)
        seed += 1
        if not is_connected(g) or g.min_degree() < 5:
            continue
        built += 1
        assert verify_odd_spanning_tree(g, odd_spanning_tree_dense(g)).ok

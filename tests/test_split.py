import sys
from itertools import combinations

import pytest

from common import complete, cycle, es, path
from oddspan import split
from oddspan.cli import decide
from oddspan.errors import BadWitness, OddOrder
from oddspan.families import gen_random, gen_random_split
from oddspan.graph_core import Graph, complement, degrees, edge, is_connected
from oddspan.oracle import verify_odd_spanning_tree
from oddspan.split import (
    SplitPartition,
    build_y_star_forest,
    double_star_in_complement,
    find_split_partition,
    split_no_tree_condition,
    split_odd_spanning_tree,
    validate_partition,
)
from oddspan.sweep import all_graphs


def test_recognition_k4():
    sp = find_split_partition(complete(4))
    assert sp is not None
    assert sp.x == frozenset() and sp.y == (0, 1, 2, 3)


def test_recognition_c4_is_not_split():
    assert find_split_partition(cycle(4)) is None
    assert find_split_partition(cycle(5)) is None


def test_recognition_star():
    sp = find_split_partition(Graph(4, [(0, 1), (0, 2), (0, 3)]))
    assert sp is not None
    assert sp.y == (0, 1) and sp.x == frozenset({2, 3})


def test_recognition_path4():
    sp = find_split_partition(path(4))
    assert sp is not None
    assert sp.y == (1, 2) and sp.x == frozenset({0, 3})
    assert split_no_tree_condition(path(4), sp)


def test_validate_partition_rejects_bad_shapes():
    g = complete(4)
    with pytest.raises(BadWitness):
        validate_partition(g, SplitPartition(x=frozenset({0, 1}), y=(2,)))  # not a partition
    with pytest.raises(BadWitness):
        validate_partition(g, SplitPartition(x=frozenset({0, 1}), y=(2, 3)))  # X not independent
    h = path(4)
    with pytest.raises(BadWitness):
        validate_partition(h, SplitPartition(x=frozenset({1, 2}), y=(0, 3)))  # Y not a clique
    with pytest.raises(BadWitness):
        validate_partition(g, SplitPartition(x=frozenset(), y=(0, 1, 2, 2, 3)))


def test_condition_false_on_even_attachment():
    g = Graph(4, [(0, 2), (1, 2), (2, 3)])
    sp = find_split_partition(g)
    assert sp.y == (0, 2) and sp.x == frozenset({1, 3})
    assert not split_no_tree_condition(g, sp)
    t = split_odd_spanning_tree(g, sp)
    assert t == es((0, 2), (1, 2), (2, 3))
    assert degrees(t, 4) == [1, 1, 3, 1]


def test_condition_true_private_pendants():
    g = Graph(6, [(3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)])
    sp = SplitPartition(x=frozenset({0, 1, 2}), y=(3, 4, 5))
    assert split_no_tree_condition(g, sp)
    assert build_y_star_forest(g, sp) is None
    assert split_odd_spanning_tree(g, sp) is None


def test_condition_rejects_odd_order():
    g, sp = gen_random_split(3, 4, 1.0, 0)
    with pytest.raises(OddOrder):
        split_no_tree_condition(g, sp)


def test_singleton_clique_returns_star():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    sp = SplitPartition(x=frozenset({1, 2, 3}), y=(0,))
    assert not split_no_tree_condition(g, sp)
    t = split_odd_spanning_tree(g, sp)
    assert t == g.edge_set()
    assert verify_odd_spanning_tree(g, t).ok


def test_construction_steers_through_odd_centers():
    # every clique vertex has odd outside attachment; one x sees two centers
    g = Graph(6, [(3, 4), (3, 5), (4, 5), (0, 3), (0, 5), (1, 4), (1, 5), (2, 5)])
    sp = SplitPartition(x=frozenset({0, 1, 2}), y=(3, 4, 5))
    assert not split_no_tree_condition(g, sp)
    forest = build_y_star_forest(g, sp)
    sizes = {y: 0 for y in sp.y}
    for x, y in forest.items():
        assert g.has_edge(x, y)
        sizes[y] += 1
    assert sum(1 for y in sp.y if sizes[y] % 2 == 0) >= 2
    t = split_odd_spanning_tree(g, sp)
    assert t == es((0, 5), (1, 4), (2, 5), (4, 5), (3, 4))
    assert verify_odd_spanning_tree(g, t).ok


def test_x_vertices_are_leaves():
    checked = 0
    seed = 0
    while checked < 300:
        s, t = 1 + seed % 5, 2 + seed % 4
        g, sp = gen_random_split(s, t, 0.3 + 0.2 * (seed % 3), seed)
        seed += 1
        if (s + t) % 2 or not is_connected(g):
            continue
        if split_no_tree_condition(g, sp):
            continue
        tree = split_odd_spanning_tree(g, sp)
        assert verify_odd_spanning_tree(g, tree).ok
        deg = degrees(tree, g.n)
        assert all(deg[x] == 1 for x in sp.x)
        checked += 1


def test_star_forest_even_star_count_over_seeds():
    # the chain assembly needs at least two even stars, in an even count
    checked = 0
    seed = 0
    while checked < 1000:
        s, t = 1 + seed % 5, 2 + seed % 4
        g, sp = gen_random_split(s, t, 0.25 + 0.25 * (seed % 3), seed)
        seed += 1
        if (s + t) % 2 or not is_connected(g):
            continue
        if split_no_tree_condition(g, sp):
            continue
        forest = build_y_star_forest(g, sp)
        sizes = {y: 0 for y in sp.y}
        for y in forest.values():
            sizes[y] += 1
        evens = sum(1 for y in sp.y if sizes[y] % 2 == 0)
        assert evens >= 2 and evens % 2 == 0
        checked += 1


def test_double_star_p6_frozen():
    t = double_star_in_complement(path(6))
    assert t == es((0, 3), (0, 4), (0, 5), (1, 4), (2, 4))
    assert verify_odd_spanning_tree(complement(path(6)), t).ok
    internal = [v for v in range(6) if sum(1 for e in t if v in e) >= 2]
    assert internal == [0, 4]


def test_double_star_c8():
    g = cycle(8)
    t = double_star_in_complement(g)
    assert verify_odd_spanning_tree(complement(g), t).ok
    internal = [v for v in range(8) if sum(1 for e in t if v in e) >= 2]
    assert len(internal) == 2


def test_double_star_preconditions():
    # the complement of K4 has no edges; K1 plus a triangle has too few
    # vertices for two centres of odd degree
    assert double_star_in_complement(complete(4)) is None
    assert double_star_in_complement(Graph(4, [(1, 2), (1, 3), (2, 3)])) is None
    assert double_star_in_complement(Graph(0)) is None
    with pytest.raises(OddOrder):
        double_star_in_complement(path(5))


def _odd_double_stars(n: int) -> list[frozenset]:
    """Every spanning double star of K_n whose two centres have odd degree."""
    out = []
    for a, b in combinations(range(n), 2):
        rest = [w for w in range(n) if w not in (a, b)]
        for k in range(2, len(rest) - 1, 2):
            for on_a in combinations(rest, k):
                legs = {edge(w, a if w in on_a else b) for w in rest}
                out.append(frozenset(legs | {edge(a, b)}))
    return out


def test_double_star_on_disconnected_graphs_matches_exhaustive_search():
    built = refused = 0
    for n in (2, 4, 6):
        stars = _odd_double_stars(n)
        for g in all_graphs(n):
            t = double_star_in_complement(g)
            if all(s & g.edge_set() for s in stars):
                assert t is None, sorted(g.edge_set())
                refused += 1
                continue
            assert t in stars and verify_odd_spanning_tree(complement(g), t).ok
            built += 1
    assert (built, refused) == (20233, 12601)
    stars = _odd_double_stars(8)
    for p in (0.2, 0.3, 0.5):
        for seed in range(300):
            g = gen_random(8, p, seed)
            t = double_star_in_complement(g)
            if t is None:
                assert all(s & g.edge_set() for s in stars), (p, seed)
            else:
                assert t in stars and verify_odd_spanning_tree(complement(g), t).ok, (p, seed)


def test_random_split_graphs_are_recognized():
    for seed in range(100):
        g, _ = gen_random_split(1 + seed % 5, 2 + seed % 4, 0.5, seed)
        sp = find_split_partition(g)
        assert sp is not None
        validate_partition(g, sp)
    # the degree test alone stands behind the partition it returns
    accepted = 0
    for g in (g for n in range(7) for g in all_graphs(n)):
        sp = find_split_partition(g)
        if sp is not None:
            validate_partition(g, sp)
            accepted += 1
    assert accepted == 10356


def test_decide_validates_a_split_partition_once(monkeypatch):
    calls = []
    real = split.validate_partition

    def counting(g, sp):
        calls.append(sp)
        return real(g, sp)

    # patch every binding, as ``from .split import ...`` copies it
    for mod in list(sys.modules.values()):
        ours = getattr(mod, "__name__", "").startswith("oddspan")
        if ours and getattr(mod, "validate_partition", None) is real:
            monkeypatch.setattr(mod, "validate_partition", counting)
    cert = decide(complete(4))
    assert (cert.verdict, cert.method) == ("EXISTS", "split-criterion")
    assert len(calls) == 1

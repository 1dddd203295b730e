import os
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest

from common import complete, cycle, line_events, path
from oddspan import tree_packing
from oddspan.errors import Disconnected, EmptyGraph
from oddspan.families import gen_complete_bipartite, gen_random
from oddspan.graph_core import (
    Graph,
    edge_connectivity,
    find_root,
    forest_path,
    is_connected,
    is_spanning_tree,
)
from oddspan.oracle import enumerate_spanning_trees
from oddspan.sweep import all_connected_graphs, circulant
from oddspan.tree_packing import (
    PackingOutcome,
    PartitionCertificate,
    exhaustive_pair_search,
    two_edge_disjoint_spanning_trees,
    verify_packing,
)


def test_k4_packs():
    out = two_edge_disjoint_spanning_trees(complete(4))
    assert out.trees is not None
    t1, t2 = out.trees
    assert is_spanning_tree(t1, 4) and is_spanning_tree(t2, 4)
    assert not (t1 & t2)
    assert verify_packing(complete(4), out)


def test_c4_certificate():
    out = two_edge_disjoint_spanning_trees(cycle(4))
    assert out.trees is None
    cert = out.cert
    # 4 cross edges < 2 * (4 - 1)
    assert len(cert.parts) == 4
    assert cert.cross_edges == 4
    assert verify_packing(cycle(4), out)


def test_path_certificate():
    out = two_edge_disjoint_spanning_trees(path(5))
    assert out.trees is None
    assert verify_packing(path(5), out)


@pytest.mark.parametrize("fields", ["", "trees=(frozenset(), frozenset()), cert=c"])
def test_outcome_with_both_or_neither_side_is_refused_under_python_optimize(fields):
    # the check must survive ``python -O``, which strips assert statements
    script = (
        "from oddspan.tree_packing import PackingOutcome, PartitionCertificate\n"
        "c = PartitionCertificate(parts=(frozenset({0}),), cross_edges=0)\n"
        f"PackingOutcome({fields})\n"
    )
    src = str(Path(tree_packing.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 1
    assert done.stderr.endswith(
        "ValueError: a packing outcome carries exactly one of trees and cert\n"
    )


def test_verify_packing_rejects_weak_certificate():
    # K4 over two pairs has 4 crossing edges, which is not below 2(p-1)=2
    cert = PartitionCertificate(parts=(frozenset({0, 1}), frozenset({2, 3})), cross_edges=4)
    assert not verify_packing(complete(4), PackingOutcome(cert=cert))


def test_verify_packing_rejects_overlapping_trees():
    t = frozenset({(0, 1), (0, 2), (0, 3)})
    assert not verify_packing(complete(4), PackingOutcome(trees=(t, t)))


def test_verify_packing_rejects_wrong_cross_count():
    out = two_edge_disjoint_spanning_trees(cycle(4))
    doctored = PartitionCertificate(parts=out.cert.parts, cross_edges=out.cert.cross_edges + 1)
    assert not verify_packing(cycle(4), PackingOutcome(cert=doctored))


def test_four_edge_connected_always_packs():
    for g in (circulant(8, (1, 2)), complete(5), complete(6), gen_complete_bipartite(4, 4)):
        assert edge_connectivity(g) >= 4
        out = two_edge_disjoint_spanning_trees(g)
        assert out.trees is not None
        assert verify_packing(g, out)


def test_partition_inequality_on_random_partitions():
    # whenever two disjoint trees exist, every partition P of V must be
    # crossed by at least 2(|P|-1) edges; sample 200 partitions per graph
    rng = random.Random(0)
    for g in (complete(6), gen_complete_bipartite(4, 4), circulant(8, (1, 2))):
        assert two_edge_disjoint_spanning_trees(g).trees is not None
        for _ in range(200):
            k = rng.randrange(2, g.n + 1)
            label = [rng.randrange(k) for _ in range(g.n)]
            parts = {}
            for v, c in enumerate(label):
                parts.setdefault(c, set()).add(v)
            blocks = list(parts.values())
            cross = sum(1 for u, v in g.edge_set() if label[u] != label[v])
            assert cross >= 2 * (len(blocks) - 1)


def test_agrees_with_exhaustive_pair_search():
    for n in range(2, 6):
        for g in all_connected_graphs(n):
            out = two_edge_disjoint_spanning_trees(g)
            pair = exhaustive_pair_search(g)
            assert (out.trees is None) == (pair is None)
            assert verify_packing(g, out)


def test_exhaustive_pair_search_k4():
    pair = exhaustive_pair_search(complete(4))
    assert pair is not None
    t1, t2 = pair
    assert is_spanning_tree(t1, 4) and is_spanning_tree(t2, 4) and not (t1 & t2)
    assert exhaustive_pair_search(cycle(4)) is None


def test_packing_and_pair_search_refuse_small_or_disconnected_input():
    for n in (0, 1):
        with pytest.raises(EmptyGraph):
            two_edge_disjoint_spanning_trees(Graph(n))
    two_k4 = Graph(8, [(u + s, v + s) for s in (0, 4) for u in range(4) for v in range(u + 1, 4)])
    with pytest.raises(Disconnected):
        two_edge_disjoint_spanning_trees(two_k4)
    with pytest.raises(Disconnected):
        exhaustive_pair_search(two_k4)


def _components(forest, n):
    """Component label of every vertex, found from scratch by a DFS per component."""
    comp = [-1] * n
    for start in range(n):
        if comp[start] != -1:
            continue
        comp[start] = start
        stack = [start]
        while stack:
            x = stack.pop()
            for w in forest[x]:
                if comp[w] == -1:
                    comp[w] = start
                    stack.append(w)
    return comp


def _offer_every_edge(g):
    """The packing loop without its early exits: both forests' components
    are rebuilt from scratch before every edge, and every edge is offered.

    Returns the outcome and the number of augmentations whose swap chain
    moved at least one edge between forests."""
    n = g.n
    forests = ({v: set() for v in range(n)}, {v: set() for v in range(n)})
    in_forest = {}
    failed = []
    swapped = 0
    for e0 in sorted(g.edge_set()):
        comp = [_components(forests[i], n) for i in (0, 1)]
        label = {e0: tree_packing._ROOT}
        queue = deque([(e0, 0), (e0, 1)])
        chain = None
        while queue:
            f, i = queue.popleft()
            if comp[i][f[0]] != comp[i][f[1]]:
                chain = (f, i)
                break
            for h in forest_path(forests[i], f[0], f[1]):
                if h not in label:
                    label[h] = (f, i)
                    queue.append((h, 1 - i))
        if chain is None:
            failed.append((e0, set(label)))
            continue
        h, j = chain
        swapped += h != e0
        forests[j][h[0]].add(h[1])
        forests[j][h[1]].add(h[0])
        in_forest[h] = j
        parent = label[h]
        while parent != tree_packing._ROOT:
            f, i = parent
            forests[i][h[0]].discard(h[1])
            forests[i][h[1]].discard(h[0])
            forests[i][f[0]].add(f[1])
            forests[i][f[1]].add(f[0])
            in_forest[f] = i
            h = f
            parent = label[h]
    t0 = frozenset(e for e, i in in_forest.items() if i == 0)
    t1 = frozenset(e for e, i in in_forest.items() if i == 1)
    if len(t0) == n - 1 and len(t1) == n - 1:
        return PackingOutcome(trees=(t0, t1)), swapped
    return PackingOutcome(cert=_frozen_certificate(g, failed)), swapped


def _frozen_certificate(g, failed):
    """A certificate extraction apart from the packing's: a union-find over
    each failed offer's vertex set, parts sorted by their least vertex."""
    parent = list(range(g.n))
    for e0, labelled in failed:
        verts = {e0[0], e0[1]}.union(*labelled)
        anchor = min(verts)
        for v in verts:
            ra, rv = find_root(parent, anchor), find_root(parent, v)
            if ra != rv:
                parent[rv] = ra
    groups = {}
    for v in range(g.n):
        groups.setdefault(find_root(parent, v), set()).add(v)
    parts = tuple(frozenset(vs) for vs in sorted(groups.values(), key=min))
    part_of = {v: part for part in parts for v in part}
    cross = sum(part_of[u] != part_of[v] for u, v in g.edge_set())
    return PartitionCertificate(parts=parts, cross_edges=cross)


def _unpruned_pair_search(g):
    """exhaustive_pair_search without the edge-count test: every spanning
    tree is tried as the first tree, in enumeration order, until the
    leftover edges connect the graph (checked here with a union-find)."""
    edges = g.edge_set()
    for t1 in enumerate_spanning_trees(g):
        rest = edges - t1
        parent = list(range(g.n))
        comps = g.n
        for u, v in rest:
            ru, rv = find_root(parent, u), find_root(parent, v)
            if ru != rv:
                parent[ru] = rv
                comps -= 1
        if comps == 1:
            return t1, next(enumerate_spanning_trees(Graph(g.n, rest)))
    return None


def test_packing_matches_offer_every_edge_on_small_graphs(monkeypatch):
    extracted = 0
    extract = tree_packing._extract_certificate

    def counted(g, closed):
        nonlocal extracted
        extracted += 1
        return extract(g, closed)

    monkeypatch.setattr(tree_packing, "_extract_certificate", counted)
    stopped_early = 0
    swapped = 0
    peeled = 0
    graphs = 0
    for n in range(2, 7):
        for g in all_connected_graphs(n):
            graphs += 1
            before = extracted
            out = two_edge_disjoint_spanning_trees(g)
            # a certificate that skipped the extraction came from the peel
            peeled += out.cert is not None and extracted == before
            edges = sorted(g.edge_set())
            ref, swaps = _offer_every_edge(g)
            assert out == ref, (n, edges)
            swapped += swaps
            if out.trees is not None:
                # the last edge either tree took comes before the last edge
                stopped_early += max(map(edges.index, out.trees[0] | out.trees[1])) < g.m - 1
    assert graphs == 27475
    # 2-degenerate graphs are answered before the offer loop
    assert peeled >= 20000
    assert stopped_early > 1000
    # augmentations that swap edges between forests are where the packing
    # keeps its forests' union-find roots without a rebuild
    assert swapped > 1000


def test_peel_leaves_graphs_with_a_failed_offer_to_the_loop():
    # K5 minus (0, 1) with a pendant path: m = 11 < 2(n - 1) = 12, yet the
    # offer of some K5 edge fails and keeps 0..4 in one part
    g = Graph(7, [e for e in complete(5).edge_set() if e != (0, 1)] + [(4, 5), (5, 6)])
    out = two_edge_disjoint_spanning_trees(g)
    assert out.cert.parts == (frozenset(range(5)), frozenset({5}), frozenset({6}))
    assert out.cert.cross_edges == 2
    assert verify_packing(g, out)
    # K4 with the path 3-4-5 is not 2-degenerate either, but no offer
    # fails, so the loop ends at the singletons
    g = Graph(6, list(complete(4).edge_set()) + [(3, 4), (4, 5)])
    assert not tree_packing._peels_to_empty(g)
    out = two_edge_disjoint_spanning_trees(g)
    assert out.cert.parts == tuple(frozenset({v}) for v in range(6))
    assert out.cert.cross_edges == 8
    assert out == _offer_every_edge(g)[0]


def test_packing_matches_offer_every_edge_seeded():
    # dense draws up to n = 30, then draws up to n = 40 of average degree
    # 3 to 6.5, near the 2(n - 1) edges that two trees need
    draws = [gen_random(8 + i % 23, 0.3 + 0.1 * (i % 7), i) for i in range(60)]
    for i in range(48):
        n = 8 + (i * 7) % 33
        draws.append(gen_random(n, (3 + i % 8 / 2) / (n - 1), i))
    kinds = set()
    for g in draws:
        if not is_connected(g):
            continue
        out = two_edge_disjoint_spanning_trees(g)
        assert out == _offer_every_edge(g)[0], (g.n, sorted(g.edge_set()))
        peeled = tree_packing._peels_to_empty(g)
        kinds.add("trees" if out.trees else "peeled" if peeled else "certificate")
    assert kinds == {"trees", "peeled", "certificate"}


def _moebius(n):
    return Graph(n, [(v, (v + 1) % n) for v in range(n)] + [(v, v + n // 2) for v in range(n // 2)])


def test_packing_matches_offer_every_edge_on_moebius_ladders():
    # cubic and not 2-degenerate, so every edge goes through the offer
    # loop, and forest components of many sizes merge
    for n in range(6, 61, 6):
        g = _moebius(n)
        assert not tree_packing._peels_to_empty(g)
        out = two_edge_disjoint_spanning_trees(g)
        assert out == _offer_every_edge(g)[0], n
        assert verify_packing(g, out)


def test_component_tracking_stays_near_linear():
    # four times the vertices costs about four times the line events
    # (4.0); deciding components by the lack of a forest path read 14.4
    def work(n):
        g = _moebius(n)
        fns = [two_edge_disjoint_spanning_trees, tree_packing.forest_path, find_root]
        return line_events(fns, lambda: two_edge_disjoint_spanning_trees(g))

    small, large = work(150), work(600)
    assert large <= 8 * small, (small, large)


def test_pair_search_matches_unpruned_on_small_graphs():
    pruned = 0
    for n in range(2, 7):
        for g in all_connected_graphs(n):
            pair = exhaustive_pair_search(g)
            assert pair == _unpruned_pair_search(g), (n, sorted(g.edge_set()))
            pruned += g.m < 2 * (n - 1)
    assert pruned > 0

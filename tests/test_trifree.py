import ast
import hashlib
import inspect
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from common import _FrozenSplitMix, complete, cycle, es, path
from oddspan import graph_core, trifree
from oddspan.errors import EmptyGraph, OddOrder, OutOfScope
from oddspan.families import gen_c5k, gen_complete_bipartite, gen_complete_bipartite_minus_edge
from oddspan.graph_core import Graph, complement, edge, is_connected, is_triangle_free
from oddspan.oracle import verify_odd_spanning_tree
from oddspan.sweep import all_graphs, build_theta, crafted_trifree_instances
from oddspan.trifree import (
    C5_OF_2,
    COMPLETE_BIPARTITE,
    K2S2T,
    K2S2T_MINUS_E,
    TWO_K2,
    recognize_excluded,
    trifree_complement_tree,
)

# expected trees for the crafted instances, frozen by hand-tracing the
# construction; keyed by the instance label used in the sweep module
FROZEN_TREES = {
    "three-matchings": es((1, 2), (2, 4), (0, 2), (0, 3), (0, 5)),
    "edge-plus-star": es((1, 3), (3, 4), (0, 2), (0, 3), (0, 5), (0, 6), (0, 7)),
    "cube-like": es((1, 4), (1, 7), (2, 4), (1, 3), (0, 4), (0, 5), (0, 6)),
    "hexagon": es((0, 2), (0, 3), (0, 4), (1, 3), (3, 5)),
    "k44-minus-two-at-one": es((1, 5), (1, 6), (0, 5), (5, 7), (1, 2), (1, 3), (1, 4)),
    "k44-minus-matching": es((0, 4), (1, 5), (0, 2), (0, 3), (4, 5), (5, 6), (4, 7)),
    "k24-minus-matching": es((0, 2), (1, 3), (2, 3), (2, 4), (3, 5)),
    "theta-with-gap": es((3, 5), (5, 6), (4, 6), (6, 7), (0, 1), (0, 2), (0, 5)),
    "theta-2-1-3": es((3, 4), (3, 5), (3, 6), (0, 5), (0, 7), (0, 2), (1, 5)),
    "theta-3-3-2": es(
        (2, 3), (2, 4), (2, 5), (0, 4), (4, 6), (0, 7), (0, 8), (0, 9), (0, 1)
    ),
    "blown-cycle-4": es((4, 6), (0, 6), (2, 6), (2, 3), (2, 5), (1, 5), (5, 7)),
    "theta-1-4-1": es((1, 2), (2, 4), (2, 6), (6, 7), (0, 6), (0, 5), (0, 3)),
    "theta-2-3-1": es((1, 3), (3, 4), (0, 3), (2, 5), (5, 6), (0, 5), (0, 7)),
}

GOLDEN = Path(__file__).parent / "golden"


def _relabel(g, rng):
    # Fisher-Yates on splitmix draws, so the relabelings match on every platform
    perm = list(range(g.n))
    for i in range(g.n - 1, 0, -1):
        j = rng.next() % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return Graph(g.n, (edge(perm[u], perm[v]) for u, v in g.edge_set()))


def _theta_shapes():
    # every theta graph of even order <= 20, then each minus one of its first
    # three a-b edges: the gap shapes that T7 builds
    for sides in range(4, 19, 2):
        for alpha in range(1, sides - 1):
            for beta in range(1, sides - alpha):
                gamma = sides - alpha - beta
                g = build_theta(alpha, beta, gamma)
                yield g
                a_b = [e for e in sorted(g.edge_set()) if e[0] >= gamma + 2]
                for e in a_b[:3]:
                    yield Graph(g.n, g.edge_set() - {e})


def _theta_golden_graphs():
    """Every triangle-free graph of even order <= 6, then each theta shape
    with four seeded relabelings."""
    for n in (2, 4, 6):
        yield from (g for g in all_graphs(n) if is_triangle_free(g))
    rng = _FrozenSplitMix(0)
    for g in _theta_shapes():
        yield g
        for _ in range(4):
            yield _relabel(g, rng)


def test_theta_trees_match_golden():
    # pinned before the mirrored theta and T7 branches were folded into one
    # body each; the crafted instances pin one tree per branch only
    digest = hashlib.sha256()
    counts: Counter[str] = Counter()
    for g in _theta_golden_graphs():
        label, tree = trifree_complement_tree(g)
        if tree is not None:
            assert verify_odd_spanning_tree(complement(g), tree).ok
        edges = " ".join(f"{u}-{v}" for u, v in sorted(tree or ()))
        digest.update(f"{label} {edges}\n".encode())
        counts[label] += 1
    lines = [f"sha256 {digest.hexdigest()}"] + [f"{k} {c}" for k, c in sorted(counts.items())]
    want = (GOLDEN / "construct" / "trifree-theta-trees.txt").read_text()
    assert "\n".join(lines) + "\n" == want


def _return_lines(fn):
    lines, start = inspect.getsourcelines(fn)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    return {start + node.lineno - 1 for node in ast.walk(tree) if isinstance(node, ast.Return)}


def test_every_construction_return_fires():
    # criterion 3b asks for every tree id; this asks for every branch, so a
    # body that no input reaches fails here
    builders = (trifree._all_odd_tree, trifree._even_anchor_tree, trifree._theta_tree)
    codes = {fn.__code__ for fn in builders}
    want = set().union(*map(_return_lines, builders))
    seen = set()

    def on_line(frame, event, arg):
        if event == "line":
            seen.add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code in codes else None

    graphs = [*_theta_golden_graphs(), *(g for _, g, _ in crafted_trifree_instances())]
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        for g in graphs:
            trifree_complement_tree(g)
    finally:
        sys.settrace(previous)
    assert sorted(want - seen) == [], "trifree.py lines never reached"


def _is_complete_bipartite(g):
    return recognize_excluded(g) in (COMPLETE_BIPARTITE, K2S2T)


def test_is_complete_bipartite():
    assert _is_complete_bipartite(cycle(4))
    assert not _is_complete_bipartite(path(4))
    assert _is_complete_bipartite(gen_complete_bipartite(1, 5))
    assert not _is_complete_bipartite(Graph(4, [(0, 1), (2, 3)]))
    assert not _is_complete_bipartite(complete(4))
    assert not _is_complete_bipartite(Graph(1))
    assert not _is_complete_bipartite(Graph(0))


def test_recognition_runs_one_bipartition_and_no_connectivity_test(monkeypatch):
    calls = []
    for name in ("is_connected", "bipartition"):
        real = getattr(graph_core, name)

        def counting(g, name=name, real=real):
            calls.append(name)
            return real(g)

        # patch every binding, as ``from .graph_core import ...`` copies it
        for mod in list(sys.modules.values()):
            ours = getattr(mod, "__name__", "").startswith("oddspan")
            if ours and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting)
    k33 = gen_complete_bipartite(3, 3)
    assert trifree.recognize_excluded(k33) == COMPLETE_BIPARTITE
    assert calls == ["bipartition"]


def test_complement_disconnects_iff_complete_bipartite():
    # an edge inside either side of a complement cut closes a triangle
    for n in range(1, 7):
        for g in all_graphs(n):
            if is_triangle_free(g):
                assert is_connected(complement(g)) != _is_complete_bipartite(g)


def test_recognize_excluded_families():
    # no family has fewer than two vertices
    assert recognize_excluded(Graph(0)) is None
    assert recognize_excluded(Graph(1)) is None
    assert recognize_excluded(Graph(4, [(0, 1), (2, 3)])) == TWO_K2
    assert recognize_excluded(gen_c5k(2)) == C5_OF_2
    assert recognize_excluded(gen_complete_bipartite(2, 2)) == K2S2T
    assert recognize_excluded(gen_complete_bipartite(2, 4)) == K2S2T
    assert recognize_excluded(gen_complete_bipartite_minus_edge(2, 4)) == K2S2T_MINUS_E
    assert recognize_excluded(gen_complete_bipartite(1, 3)) == COMPLETE_BIPARTITE
    assert recognize_excluded(gen_complete_bipartite(2, 3)) == COMPLETE_BIPARTITE
    assert recognize_excluded(cycle(6)) is None
    assert recognize_excluded(gen_c5k(3)) is None
    # P4 really is K22 minus an edge
    assert recognize_excluded(path(4)) == K2S2T_MINUS_E
    assert recognize_excluded(path(6)) is None


def test_label_names_a_branch_exactly_when_there_is_a_tree():
    graphs = [g for n in (2, 4, 6) for g in all_graphs(n) if is_triangle_free(g)]
    graphs += [g for _, g, _ in crafted_trifree_instances()]
    labels = Counter()
    for g in graphs:
        label, tree = trifree_complement_tree(g)
        branch = label == "STAR" or label[0] == "T" and label[1:].isdigit()
        assert branch == (tree is not None), (label, sorted(g.edge_set()))
        assert (label in trifree.EXCLUDED_FAMILIES) == (tree is None), label
        labels[tree is None] += 1
    assert labels[False] and labels[True]


def test_crafted_instances_hit_expected_branches():
    for label, g, want in crafted_trifree_instances():
        decision = trifree_complement_tree(g)
        assert decision.label == want, label
        if want[0] == "T" or want == "STAR":
            assert verify_odd_spanning_tree(complement(g), decision.tree).ok, label
        else:
            assert decision.tree is None


def test_crafted_trees_are_frozen():
    by_label = {label: g for label, g, _ in crafted_trifree_instances()}
    for label, want in FROZEN_TREES.items():
        decision = trifree_complement_tree(by_label[label])
        assert decision.tree == want, label


@pytest.mark.parametrize("shape, want", [((1, 2, 3), "T9"), ((1, 3, 2), "T10")])
def test_theta_trees_hung_on_the_second_attachment(shape, want):
    # alpha = 1 is odd, so the attachments swap and the beta side is the
    # hub: T9 when beta is even, T10 when it is odd; the crafted instances
    # build T9 and T10 without the swap
    g = build_theta(*shape)
    decision = trifree_complement_tree(g)
    assert g.n == 8 and decision.label == want
    assert verify_odd_spanning_tree(complement(g), decision.tree).ok


def test_path6_tree():
    decision = trifree_complement_tree(path(6))
    assert decision.label == "T3"
    assert decision.tree == es((1, 3), (1, 4), (1, 5), (0, 4), (2, 4))


def test_star_decision_on_empty_pair():
    decision = trifree_complement_tree(Graph(2))
    assert decision.label == "STAR"
    assert decision.tree == es((0, 1))


def test_decision_rejects_bad_inputs():
    with pytest.raises(EmptyGraph):
        trifree_complement_tree(Graph(0))
    with pytest.raises(OutOfScope, match="^input must be triangle-free$"):
        trifree_complement_tree(complete(3))
    with pytest.raises(OddOrder):
        trifree_complement_tree(cycle(5))


def test_build_theta_shape():
    g = build_theta(2, 3, 1)
    # shared vertex 0, attachments 1 and 2, then 2 + 3 side vertices
    assert g.n == 8
    assert g.has_edge(0, 1) and g.has_edge(0, 2)
    for a in (3, 4):
        for b in (5, 6, 7):
            assert g.has_edge(a, b)
    assert not g.has_edge(1, 2)
    h = complement(g)
    # the complement glues two cliques at vertex 0 with pendant attachments
    assert h.has_edge(1, 3) and h.has_edge(1, 4) and h.has_edge(2, 5)


def test_small_thetas_collapse_to_excluded_family():
    # the theta branches build from the next even shapes up, and have no
    # exit for these three
    for shape in ((1, 1, 2), (1, 2, 1), (2, 1, 1)):
        assert recognize_excluded(build_theta(*shape)) == C5_OF_2, shape
    for shape in ((1, 1, 4), (1, 4, 1), (4, 1, 1)):
        assert recognize_excluded(build_theta(*shape)) is None, shape


def test_retired_t8_frames_are_built_as_t6():
    # T8 wanted an even anchor of degree 2, no doubly missed ys-vertex,
    # more than two ys-vertices, and singleton sides with a gap between
    # them.  Every ys-edge joins a_side to b_side, so ys is independent
    # there and the T6 branch builds the tree first.
    seen = 0
    for g in (g for n in (4, 6) for g in all_graphs(n)):
        if not is_triangle_free(g) or all(g.degree(v) % 2 for v in range(g.n)):
            continue
        y = min(v for v in range(g.n) if g.degree(v) % 2 == 0)
        xs, ys = sorted(g.adj[y]), sorted(set(range(g.n)) - g.adj[y])
        y_i = {x: {w for w in ys if not g.has_edge(x, w)} for x in xs}
        if len(xs) != 2 or len(ys) == 2:
            continue
        x1, x2 = xs
        if y_i[x1] & y_i[x2]:
            continue
        if len(y_i[x1]) != 1 or len(y_i[x2]) != 1:
            continue
        (ya,), (yb,) = y_i[x1], y_i[x2]
        if g.has_edge(ya, yb):
            continue
        seen += 1
        assert not any(g.has_edge(u, w) for u in ys for w in ys)
        assert trifree_complement_tree(g).label == "T6"
    assert seen == 180

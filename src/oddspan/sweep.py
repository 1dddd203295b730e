"""Exhaustive and seeded verification universes.

Each sweep runs a checker over a full labeled universe at small n plus a
deterministic seeded sample at larger n, and returns a report whose
disagreement list must stay empty.

The dense, split, trifree and factor universes each check one
``cli.METHODS`` entry through the path that ``check``, ``construct`` and
``verify`` use.  ``cli.run_method`` answers, and its EXISTS witness is
verified where it is built.  Every other answer must pass
``cli.recheck``, an UNKNOWN answer is a disagreement, and ``cli``'s
oracle stage must find no tree where the answer is NOT_EXISTS.  Verdicts
are tallied as ``VERDICT method``.  The packing and bipartition universes
check library lemmas, with checkers of their own.

Workers > 1 distributes cases over a process pool; the merge is by case
order, so reports are identical at any worker count.
"""

from __future__ import annotations

import multiprocessing
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import partial
from itertools import compress, product
from typing import NamedTuple

from . import cli
from .errors import Disconnected, EmptyGraph
from .families import (
    gen_complete_bipartite,
    gen_complete_bipartite_minus_edge,
    gen_c5k,
    gen_random,
    gen_random_split,
)
from .graph_core import (
    Graph,
    bipartition,
    complement,
    degrees,
    edge,
    edge_connectivity_at_least,
    is_connected,
    is_triangle_free,
    tree_bipartition,
)
from .oracle import _spanning_trees
from .split import SplitPartition, find_split_partition, split_no_tree_condition
from .tree_packing import exhaustive_pair_search, two_edge_disjoint_spanning_trees, verify_packing

# what a checker found on one case: (disagreement, verdict, coverage shape)
Outcome = tuple[str | None, str | None, str | None]


@dataclass
class SweepReport:
    """Outcome tallies plus a must-stay-empty disagreement list."""

    universe: str
    checked: int = 0
    verdicts: dict[str, int] = field(default_factory=dict)
    disagreements: list[str] = field(default_factory=list)
    coverage: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def lines(self) -> list[str]:
        out = [f"universe {self.universe}", f"checked {self.checked}"]
        for k in sorted(self.verdicts):
            out.append(f"verdict {k} {self.verdicts[k]}")
        for k in sorted(self.coverage):
            out.append(f"coverage {k} {self.coverage[k]}")
        out.append(f"disagreements {len(self.disagreements)}")
        out.extend(self.disagreements)
        return out


def _row_sets(n: int) -> list[frozenset[int]]:
    """The vertex set of every bitmask row on 0..n-1, indexed by the row."""
    return [frozenset(v for v in range(n) if row >> v & 1) for row in range(1 << n)]


def _components(rows: list[int], todo: int) -> tuple[int, ...]:
    """The components, as vertex bitmasks, that the neighbour bitmask
    rows give the vertices of ``todo``."""
    comps = []
    while todo:
        seen = front = todo & -todo
        while front:
            low = front & -front
            front ^= low
            new = rows[low.bit_length() - 1] & ~seen
            seen |= new
            front |= new
        comps.append(seen)
        todo &= ~seen
    return tuple(comps)


def _walk(n: int, connected: bool) -> Iterator[Graph]:
    """Every labeled graph on 0..n-1 by edge bitmask, or only the
    connected ones.  Bit i of the mask is the i-th pair in lexicographic
    order, so vertex 0's n - 1 pairs are the low bits and change fastest:
    each graph on 1..n-1 is built once, and then every neighbourhood of
    vertex 0 is joined to it in turn, or only those that meet every
    component of it."""
    if n == 0:
        yield Graph._from_neighbours([])
        return
    sets = _row_sets(n)
    zero_rows = sets[::2]  # vertex 0's row for each low mask, one bit up
    ends = [(u, 1 << v, v, 1 << u) for u in range(1, n) for v in range(u + 1, n)]
    # per component tuple, whether each low mask meets every component
    meets: dict[tuple[int, ...], list[bool]] = {}
    for mask in range(1 << len(ends)):
        rows = [0] * n
        while mask:
            low = mask & -mask
            mask ^= low
            u, bv, v, bu = ends[low.bit_length() - 1]
            rows[u] |= bv
            rows[v] |= bu
        # the last factor changes fastest, so vertices run n-1 down to 1
        # and vertex 1's bit, the lowest, flips every step
        rests = product(*[(sets[rows[v]], sets[rows[v] | 1]) for v in range(n - 1, 0, -1)])
        joined = zip(zero_rows, rests)
        if connected:
            comps = _components(rows, (1 << n) - 2)
            if comps not in meets:
                meets[comps] = [all(low << 1 & c for c in comps) for low in range(1 << n - 1)]
            joined = compress(joined, meets[comps])
        for row0, rest in joined:
            yield Graph._from_neighbours((row0, *rest[::-1]))


def all_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on vertex set 0..n-1, by edge bitmask."""
    return _walk(n, False)


def all_connected_graphs(n: int) -> Iterator[Graph]:
    """Every connected labeled graph on 0..n-1, in the order of
    ``all_graphs``; connectivity is read off the bitmask rows, so only
    the connected ones are built."""
    if n == 0:
        raise EmptyGraph("connectivity of the empty graph is undefined here")
    return _walk(n, True)


def circulant(n: int, steps: tuple[int, ...]) -> Graph:
    return Graph(n, (edge(v, (v + s) % n) for v in range(n) for s in steps))


def build_theta(alpha: int, beta: int, gamma: int) -> Graph:
    """Triangle-free graph whose complement is a two-clique theta shape.

    Labels: 0..gamma-1 shared, then the two attachment vertices, then
    alpha and beta clique-side vertices.  The returned graph joins the
    first attachment to the beta and shared sides, the second to the
    alpha and shared sides, and the alpha side completely to the beta
    side.
    """
    assert alpha >= 1 and beta >= 1 and gamma >= 1
    cs = list(range(gamma))
    x1, x2 = gamma, gamma + 1
    a_side = list(range(gamma + 2, gamma + 2 + alpha))
    b_side = list(range(gamma + 2 + alpha, gamma + 2 + alpha + beta))
    edges = [edge(x1, w) for w in b_side + cs]
    edges += [edge(x2, w) for w in a_side + cs]
    edges += [edge(a, b) for a in a_side for b in b_side]
    return Graph(gamma + 2 + alpha + beta, edges)


def crafted_trifree_instances() -> list[tuple[str, Graph, str]]:
    """Named instances steering each construction branch or family."""
    k44_at_one = [
        (p, q)
        for p in (1, 2, 3, 4)
        for q in (0, 5, 6, 7)
        if (p, q) not in ((1, 5), (1, 6))
    ]
    k44_matching = [
        (p, q)
        for p in (0, 1, 2, 3)
        for q in (4, 5, 6, 7)
        if (p, q) not in ((0, 4), (1, 5))
    ]
    k24_matching = [
        (p, q) for p in (0, 1) for q in (2, 3, 4, 5) if (p, q) not in ((0, 2), (1, 3))
    ]
    theta_gap = build_theta(1, 2, 3)
    theta_gap = Graph(theta_gap.n, theta_gap.edge_set() - {(5, 6)})
    return [
        ("three-matchings", Graph(6, [(0, 1), (2, 3), (4, 5)]), "T1"),
        ("edge-plus-star", Graph(8, [(0, 1)] + [(2, y) for y in range(3, 8)]), "T1"),
        (
            "cube-like",
            Graph(
                8,
                [
                    (0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7),
                    (1, 5), (1, 6), (2, 5), (2, 7), (3, 6), (3, 7),
                ],
            ),
            "T2",
        ),
        ("hexagon", circulant(6, (1,)), "T3"),
        ("k44-minus-two-at-one", Graph(8, k44_at_one), "T4"),
        ("k44-minus-matching", Graph(8, k44_matching), "T5"),
        ("k24-minus-matching", Graph(6, k24_matching), "T6"),
        ("theta-with-gap", theta_gap, "T7"),
        ("theta-2-1-3", build_theta(2, 1, 3), "T9"),
        ("theta-3-3-2", build_theta(3, 3, 2), "T10"),
        ("blown-cycle-4", gen_c5k(4), "T11"),
        ("theta-1-4-1", build_theta(1, 4, 1), "T11"),
        ("theta-4-1-1", build_theta(4, 1, 1), "T11"),
        ("theta-2-3-1", build_theta(2, 3, 1), "T12"),
        ("theta-3-2-1", build_theta(3, 2, 1), "T12"),
        ("isolated-anchor", Graph(4, [(1, 2)]), "STAR"),
        ("empty-pair", Graph(2, []), "STAR"),
        ("two-k2", Graph(4, [(0, 1), (2, 3)]), "two-k2"),
        ("c5-of-2", gen_c5k(2), "c5-of-2"),
        ("k22", gen_complete_bipartite(2, 2), "k2s2t"),
        ("k24-minus-edge", gen_complete_bipartite_minus_edge(2, 4), "k2s2t-minus-e"),
        ("k13", gen_complete_bipartite(1, 3), "complete-bipartite"),
    ]


def _seeded(draw, keep, want: int) -> list[Graph]:
    """Deterministic stream: the first ``want`` graphs ``draw(i)`` that ``keep`` accepts."""
    out = []
    i = 0
    while len(out) < want:
        assert i < 500000, "seeded universe failed to fill; filters too tight"
        g = draw(i)
        i += 1
        if keep(g):
            out.append(g)
    return out


def _where(g: Graph) -> str:
    return f"n={g.n} edges={tuple(sorted(g.edge_set()))}"


def _report(title: str, checker, cases: list, workers: int) -> SweepReport:
    """Run ``checker`` on every case and tally its outcomes; a None
    verdict or shape leaves the case out of that count."""
    if workers <= 1 or len(cases) < 64:
        results = [checker(c) for c in cases]
    else:
        with multiprocessing.Pool(workers) as pool:
            results = list(pool.imap(checker, cases, chunksize=64))
    rep = SweepReport(universe=title)
    for failure, verdict, shape in results:
        rep.checked += 1
        if failure:
            rep.disagreements.append(failure)
        if verdict:
            rep.verdicts[verdict] = rep.verdicts.get(verdict, 0) + 1
        if shape:
            rep.coverage[shape] = rep.coverage.get(shape, 0) + 1
    return rep


class _Row(NamedTuple):
    """One method universe: the ``cli.METHODS`` names to run, and the
    paper's extra property of an EXISTS answer, which maps (case,
    certificate, what the universe knew of the case) to (failure,
    coverage shape)."""

    names: tuple[str, ...]
    extra: Callable[..., tuple[str | None, str | None]] | None = None


def _method_case(row: _Row, g: Graph, *known) -> Outcome:
    """Answer the case through ``cli.run_method`` and check the answer;
    ``known`` is what the universe found out about g when it chose it."""
    try:
        cert = cli.run_method(g, *row.names)
    except AssertionError as exc:  # a witness that failed verification where it was built
        return (f"{exc} on {_where(g)}", None, None)
    verdict = f"{cert.verdict} {cert.method}"
    shape = None
    failure = None if cert.verified else cli.recheck(g, cert)
    if failure is None:
        if cert.verdict == cli.UNKNOWN:
            failure = "no answer"
        elif cert.verdict == cli.NOT_EXISTS and cli.run_method(g, "oracle").verdict == cli.EXISTS:
            failure = "the oracle finds a tree"
        elif cert.verdict == cli.EXISTS and row.extra is not None:
            failure, shape = row.extra(g, cert, *known)
    if failure is None:
        return (None, verdict, shape)
    return (f"{verdict} fails: {failure} on {_where(g)}", verdict, shape)


def _dense_enough(g: Graph) -> bool:
    # connected: non-adjacent u, v have 2(n//2 + 1) > n - 2 neighbours besides u, v, so share one
    return g.min_degree() >= g.n // 2 + 1


def sweep_dense(seeded: int = 500, workers: int = 1, max_n: int = 6) -> SweepReport:
    """Greedy tree on every dense-enough graph: small-n exhaustive plus
    a seeded slice at n in 8..12."""
    cases = [g for n in range(2, max_n + 1, 2) for g in all_graphs(n) if _dense_enough(g)]
    cases += _seeded(lambda i: gen_random((8, 10, 12)[i % 3], 0.85, i), _dense_enough, seeded)
    title = f"dense min-degree graphs, exhaustive n<={max_n} plus {seeded} seeded"
    return _report(title, partial(_method_case, _Row(("dense",))), cases, workers)


def _split_tree_checks(
    g: Graph, cert: cli.Certificate, sp: SplitPartition
) -> tuple[str | None, None]:
    """Beside the verified tree: the nonexistence criterion must not hold
    on g's split partition sp, and the tree hangs every independent-side
    vertex as a leaf."""
    if split_no_tree_condition(g, sp):
        return ("the split criterion claims no tree", None)
    deg = degrees(cert.edges, g.n)
    if all(deg[x] == 1 for x in sp.x):
        return (None, None)
    return ("an independent-side vertex is not a leaf", None)


_SPLIT_ROW = _Row(("split",), extra=_split_tree_checks)


def _split_case(case: tuple[Graph, SplitPartition]) -> Outcome:
    """A split case: the graph, and the partition that chose it, which
    the tree checks take as it is."""
    return _method_case(_SPLIT_ROW, *case)


def sweep_split(seeded: int = 500, workers: int = 1, max_n: int = 6) -> SweepReport:
    """Criterion-vs-oracle equivalence on split graphs with |Y| >= 2: a
    verified tree refutes the criterion, and a criterion answer must
    pass recheck and the oracle."""
    cases = []
    for n in range(2, max_n + 1):
        for g in all_connected_graphs(n):
            sp = find_split_partition(g)
            if sp is not None and len(sp.y) >= 2:
                cases.append((g, sp))
    grid = [(s, t) for s in range(1, 7) for t in range(2, 6) if (s + t) % 2 == 0]
    ps = (0.3, 0.6, 0.9)

    def draw(i: int) -> Graph:
        s, t = grid[i % len(grid)]
        return gen_random_split(s, t, ps[(i // len(grid)) % len(ps)], i)[0]

    cases += [(g, find_split_partition(g)) for g in _seeded(draw, is_connected, seeded)]
    title = f"connected split graphs, exhaustive n<={max_n} plus {seeded} seeded"
    return _report(title, _split_case, cases, workers)


def _trifree_branch(g: Graph, cert: cli.Certificate) -> tuple[None, str | None]:
    """The construction branch that built the tree, for the coverage tally."""
    return (None, cert.branch)


def sweep_trifree(seeded: int = 300, workers: int = 1, max_n: int = 6) -> SweepReport:
    """Triangle-free decision vs oracle on the complement.

    Universe: the complements of every labeled triangle-free graph of
    even order up to max_n, of the crafted per-branch instances, and of
    seeded triangle-free samples at n = 8.
    """
    hs = [h for n in range(2, max_n + 1, 2) for h in all_graphs(n) if is_triangle_free(h)]
    hs += [h for _, h, _ in crafted_trifree_instances()]
    hs += _seeded(lambda i: gen_random(8, 0.3, i), is_triangle_free, seeded)
    title = f"triangle-free graphs, exhaustive even n<={max_n} plus crafted plus {seeded} seeded"
    row = _Row(("trifree",), extra=_trifree_branch)
    return _report(title, partial(_method_case, row), [complement(h) for h in hs], workers)


def _packing_case(g: Graph) -> Outcome:
    outcome = two_edge_disjoint_spanning_trees(g)
    if not verify_packing(g, outcome):
        return (f"packing outcome fails verification on {_where(g)}", "invalid", None)
    if outcome.trees is not None:
        return (None, "trees", None)
    if exhaustive_pair_search(g) is not None:
        failure = f"certificate issued but a disjoint pair exists on {_where(g)}"
        return (failure, "certificate", None)
    if edge_connectivity_at_least(g, 4):
        return (f"4-edge-connected graph got a certificate: {_where(g)}", "certificate", None)
    return (None, "certificate", None)


def sweep_packing(workers: int = 1, max_n: int = 6) -> SweepReport:
    """Tree packing vs exhaustive pair search on all connected graphs."""
    cases = [g for n in range(2, max_n + 1) for g in all_connected_graphs(n)]
    return _report(f"connected graphs n<={max_n}", _packing_case, cases, workers)


def sweep_factor(seeded: int = 100, workers: int = 1) -> SweepReport:
    """Parity-repair factors on named graphs plus seeded 4-edge-connected ones."""
    named = [
        Graph(6, ((u, v) for u in range(6) for v in range(u + 1, 6))),
        Graph(8, ((u, v) for u in range(8) for v in range(u + 1, 8))),
        gen_complete_bipartite(4, 4),
        circulant(8, (1, 2)),
    ]
    grid = (6, 8, 10, 12)
    ps = (0.7, 0.85)

    def draw(i: int) -> Graph:
        return gen_random(grid[i % len(grid)], ps[(i // len(grid)) % len(ps)], i)

    cases = named + _seeded(draw, lambda g: edge_connectivity_at_least(g, 4), seeded)
    title = f"named 4-edge-connected graphs plus {seeded} seeded"
    return _report(title, partial(_method_case, _Row(("factor",))), cases, workers)


def _bipartition_case(g: Graph) -> Outcome:
    # bipartition's BFS has found g connected, which is all that
    # enumerate_spanning_trees would test before this search
    bp = bipartition(g)
    n = g.n
    edges = sorted(g.edge_set())
    trees = _spanning_trees(edges, n)
    if bp is not None:
        for t in trees:
            if tree_bipartition(t, n) != bp:
                return (f"tree {sorted(t)} disagrees on {_where(g)}", "bipartite", None)
        return (None, "bipartite", None)
    first = tree_bipartition(next(trees), n)
    # a tree's partition can differ from the first one's only if the tree
    # has an edge inside one side of it
    left = first.left
    inside = {e for e in edges if (e[0] in left) == (e[1] in left)}
    for t in trees:
        if not inside.isdisjoint(t) and tree_bipartition(t, n) != first:
            return (None, "non-bipartite", None)
    return (f"non-bipartite graph with a forced partition: {_where(g)}", "non-bipartite", None)


def _non_bipartite(g: Graph) -> bool:
    try:
        return bipartition(g) is None
    except Disconnected:
        return False


def sweep_bipartition(seeded: int = 200, workers: int = 1, max_n: int = 6) -> SweepReport:
    """Spanning trees of bipartite graphs all inherit the bipartition;
    non-bipartite graphs always exhibit two differing tree partitions."""
    cases = [g for n in range(2, max_n + 1) for g in all_connected_graphs(n)]
    ps = (0.3, 0.5, 0.7)
    cases += _seeded(lambda i: gen_random(7, ps[i % len(ps)], i), _non_bipartite, seeded)
    title = f"connected graphs n<={max_n} plus {seeded} seeded non-bipartite n=7"
    return _report(title, _bipartition_case, cases, workers)


"""Graph family generators and checkable nonexistence certificates.

Seeded generators use a fixed splitmix-style 64-bit mixer (documented in
the README) so that identical parameters produce identical graphs on
every platform; golden files depend on this.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, combinations, compress, product
from typing import Iterable, NamedTuple

from . import trifree
from .errors import BadWitness, Disconnected, EmptyGraph, OddOrder
from .graph_core import (
    Bipartition,
    Graph,
    bfs_distances,
    bipartition,
    complement,
    complement_has_triangle,
    edge,
    is_connected,
)
from .split import SplitPartition, split_no_tree_condition, validate_partition

BIPARTITE_EVEN_PARTS = "bipartite-even-parts"
BRIDGE_EVEN_SIDES = "bridge-even-sides"
SPLIT_CONDITION = "split-condition"
EXCLUDED_FAMILY = "excluded-family"

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# The block kernel lays k consecutive outputs in 128-bit lanes of one
# int, lane j holding the (j + 1)-th, and runs both rounds on every lane
# at once.  Each lane is masked to 64 bits after every right shift,
# which drops the bits pulled down from the lane above, so a 64 x 64-bit
# product still fits its lane.  A stream is drawn _BLOCK lanes at a
# time, which bounds the memory for draws at any length.
_BLOCK = 4096


@cache
def _block_constants() -> tuple[int, int, int]:
    """1 in every lane, 2^64 - 1 in every lane, (j + 1) * gamma mod 2^64
    in lane j; built on first use, by doubling the lane count."""
    ones = ramp = 1
    lanes = 1
    while lanes < _BLOCK:
        ramp += (ramp + lanes * ones) << 128 * lanes
        ones += ones << 128 * lanes
        lanes *= 2
    low = ones * _MASK64
    return ones, low, (_GAMMA * ramp) & low


def _lanes(state: int, k: int) -> tuple[int, int]:
    """The int with 1 in each of k <= _BLOCK lanes, and the k outputs
    that follow state (0..2^64 - 1) in those lanes."""
    ones, low, steps = _block_constants()
    if k < _BLOCK:
        ones, steps = ones >> 128 * (_BLOCK - k), steps & ((1 << 128 * k) - 1)
    z = (state * ones + steps) & low
    z = (((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9) & low
    z = (((z ^ (z >> 27)) & low) * 0x94D049BB133111EB) & low
    return ones, (z ^ (z >> 31)) & low


def _keep_bits(state: int, k: int, bias: int) -> bytes:
    """One byte per lane: 1 where the output is below threshold.

    bias is 2^64 + threshold - 1, so bias minus an output lies in
    0..2^65 - 1, no lane borrows from the next, and bit 64 (byte 8 of
    the little-endian lane) is set exactly when the output is below
    threshold.
    """
    ones, z = _lanes(state, k)
    return (bias * ones - z).to_bytes(16 * k, "little")[8::16]


def _keeps(seed: int, k: int, threshold: int) -> Iterable[int]:
    """splitmix64 (golden-ratio increment plus two xor-multiply rounds):
    for each of the first k outputs after seed, 1 if it is below
    threshold (0..2^64), else 0.

    The bits are computed a block at a time as they are read.
    """
    bias = (1 << 64) + threshold - 1
    return chain.from_iterable(
        _keep_bits((seed + i * _GAMMA) & _MASK64, min(_BLOCK, k - i), bias)
        for i in range(0, k, _BLOCK)
    )


def gen_complete(n: int) -> Graph:
    if n < 1:
        raise EmptyGraph("complete graph needs n >= 1")
    return Graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def gen_complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise EmptyGraph("complete bipartite graph needs both parts nonempty")
    return Graph(m + n, ((u, v) for u in range(m) for v in range(m, m + n)))


def gen_complete_bipartite_minus_edge(s2: int, t2: int) -> Graph:
    if s2 < 2 or t2 < 2 or s2 % 2 or t2 % 2:
        raise ValueError(f"part sizes must be even and >= 2, got ({s2}, {t2})")
    es = [(u, v) for u in range(s2) for v in range(s2, s2 + t2)]
    es.remove((0, s2))
    return Graph(s2 + t2, es)


def gen_c5k(k: int) -> Graph:
    """C5 with one vertex blown up into an independent set of size k.

    Vertices 0..k-1 are the independent set, each adjacent to k and k+3;
    vertices k..k+3 carry the remaining path of the 5-cycle.
    """
    if k < 1:
        raise EmptyGraph("blowup size must be >= 1")
    es = [(i, k) for i in range(k)] + [(i, k + 3) for i in range(k)]
    es += [(k, k + 1), (k + 1, k + 2), (k + 2, k + 3)]
    return Graph(k + 4, es)


def gen_bridge_join(g1: Graph, g2: Graph, u: int, v: int) -> Graph:
    """Disjoint union of g1 and g2 plus the single edge u..(v shifted)."""
    off = g1.n
    es = list(g1.edge_set())
    es += [(a + off, b + off) for a, b in g2.edge_set()]
    es.append(edge(u, v + off))
    return Graph(g1.n + g2.n, es)


def gen_random(n: int, p: float, seed: int) -> Graph:
    """G(n, p) under the documented splitmix stream, one draw per pair.

    Pair i in lexicographic order is an edge when the stream's i-th
    output is below int(p * 2^64), so the graph is a pure function of
    (n, p, seed).  The keep bits come from the block kernel, a block of
    pairs at a time.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    keep = _keeps(seed, n * (n - 1) // 2, int(p * (1 << 64)))
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in compress(combinations(range(n), 2), keep):
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph._from_neighbours(nbrs)


def gen_random_split(s: int, t: int, p: float, seed: int) -> tuple[Graph, SplitPartition]:
    """Random split graph: clique on Y, independent X, seeded X-Y edges.

    X = 0..s-1, Y = s..s+t-1; pair i of the x-major pairs (x, y) is an
    edge when the stream's i-th output is below int(p * 2^64).
    Connectivity is not guaranteed; callers filter.
    """
    if s < 0 or t < 1:
        raise ValueError(f"need s >= 0 and t >= 1, got ({s}, {t})")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    keep = _keeps(seed, s * t, int(p * (1 << 64)))
    ys = range(s, s + t)
    nbrs: list[set[int]] = [set() for _ in range(s)] + [set(ys) - {y} for y in ys]
    for x, y in compress(product(range(s), ys), keep):
        nbrs[x].add(y)
        nbrs[y].add(x)
    sp = SplitPartition(x=frozenset(range(s)), y=tuple(ys))
    return Graph._from_neighbours(nbrs), sp


class NonexistenceReason(NamedTuple):
    """A reason g has no odd spanning tree, with a re-checkable witness.

    kind is one of the module constants; the witness shape depends on it:
    a Bipartition, a bridge edge, a SplitPartition, or an
    excluded-family name.
    """

    kind: str
    witness: object


def check_nonexistence(g: Graph, r: NonexistenceReason) -> bool:
    """Re-verify that r genuinely proves g has no odd spanning tree.

    Malformed witnesses (not a partition of V, a non-edge bridge, an
    unknown family name) raise BadWitness; well-formed witnesses that
    simply fail to prove anything return False.
    """
    w = r.witness
    if r.kind == BIPARTITE_EVEN_PARTS:
        if not isinstance(w, Bipartition):
            raise BadWitness("expected a Bipartition witness")
        if sorted(w.left | w.right) != list(range(g.n)) or (w.left & w.right):
            raise BadWitness("witness parts do not partition the vertex set")
        if not is_connected(g):
            return False
        if len(w.left) % 2 or len(w.right) % 2:
            return False
        return all((u in w.left) != (v in w.left) for u, v in g.edge_set())
    if r.kind == BRIDGE_EVEN_SIDES:
        # the records are tuples too, so the ends must be ints
        if not (
            isinstance(w, tuple) and len(w) == 2
            and all(isinstance(v, int) and 0 <= v < g.n for v in w) and g.has_edge(*w)
        ):
            raise BadWitness("witness is not an edge of the graph")
        if not is_connected(g):
            return False
        # g is connected, so w is a bridge iff a walk from u that avoids
        # w misses a vertex; both sides are then even iff u's side and n are
        u, v = w
        adj = list(g.adj)
        adj[u], adj[v] = adj[u] - {v}, adj[v] - {u}
        reached = g.n - bfs_distances(adj, u).count(-1)
        return reached < g.n and reached % 2 == 0 and g.n % 2 == 0
    if r.kind == SPLIT_CONDITION:
        if not isinstance(w, SplitPartition):
            raise BadWitness("expected a SplitPartition witness")
        validate_partition(g, w)
        if not is_connected(g) or g.n % 2:
            return False
        return split_no_tree_condition(g, w)
    if r.kind == EXCLUDED_FAMILY:
        if w not in trifree.EXCLUDED_FAMILIES:
            raise BadWitness(f"unknown excluded family {w!r}")
        if complement_has_triangle(g):
            return False
        return trifree.recognize_excluded(complement(g)) == w
    raise BadWitness(f"unknown reason kind {r.kind!r}")


def _lowlink_dfs(g: Graph) -> tuple[list[int], list[int], list[int], list[int]]:
    """One iterative DFS from vertex 0 of a connected graph: parent,
    discovery time, lowlink, subtree size.

    The tree edge (parent[c], c) is a bridge iff low[c] > disc[parent[c]]
    (Tarjan 1974), and removing it leaves size[c] vertices on c's side.
    An explicit stack keeps long paths clear of the recursion limit.
    """
    n = g.n
    parent = [-1] * n
    disc = [-1] * n
    low = [0] * n
    size = [1] * n
    disc[0] = 0
    t = 1
    stack = [(0, iter(g.adj[0]))]
    while stack:
        v, nbrs = stack[-1]
        for w in nbrs:
            if disc[w] < 0:
                parent[w] = v
                disc[w] = low[w] = t
                t += 1
                stack.append((w, iter(g.adj[w])))
                break
            if w != parent[v] and disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            p = parent[v]
            if p >= 0:
                size[p] += size[v]
                if low[v] < low[p]:
                    low[p] = low[v]
    return parent, disc, low, size


def find_nonexistence(g: Graph) -> NonexistenceReason | None:
    """Search for a parity-based nonexistence witness.

    Bipartite with both classes even wins first; otherwise the least
    bridge (canonical edge order) with two even sides.  Absence proves
    nothing.  Connectivity is tested once, so ``decide`` needs no test
    of its own: Disconnected is raised before OddOrder.  At even order
    the BFS inside ``bipartition`` is that test, and one lowlink DFS
    then finds every bridge in O(n + m); ``check_nonexistence``
    re-checks a bridge the slow way.
    """
    if g.n % 2:
        # only connectivity matters here, and a plain BFS is cheaper
        # than building the bipartition
        if not is_connected(g):
            raise Disconnected("nonexistence search expects a connected graph")
        raise OddOrder(f"order {g.n} is odd; no odd graph of odd order exists")
    bp = bipartition(g)
    if bp is not None and len(bp.left) % 2 == 0 and len(bp.right) % 2 == 0:
        return NonexistenceReason(BIPARTITE_EVEN_PARTS, bp)
    parent, disc, low, size = _lowlink_dfs(g)
    # n is even, so both sides of a bridge are even iff c's side is
    bridges = [
        edge(parent[c], c)
        for c in range(1, g.n)
        if size[c] % 2 == 0 and low[c] > disc[parent[c]]
    ]
    if bridges:
        return NonexistenceReason(BRIDGE_EVEN_SIDES, min(bridges))
    return None

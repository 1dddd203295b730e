import pytest

from common import _MASK64, _FrozenSplitMix, complete, cycle, es, path
from oddspan import families, trifree
from oddspan.errors import BadWitness, Disconnected, EmptyGraph, OddOrder
from oddspan.families import (
    BIPARTITE_EVEN_PARTS,
    BRIDGE_EVEN_SIDES,
    EXCLUDED_FAMILY,
    SPLIT_CONDITION,
    _BLOCK,
    NonexistenceReason,
    _keeps,
    _lanes,
    check_nonexistence,
    find_nonexistence,
    gen_bridge_join,
    gen_c5k,
    gen_complete,
    gen_complete_bipartite,
    gen_complete_bipartite_minus_edge,
    gen_random,
    gen_random_split,
)
from oddspan.graph_core import Bipartition, Graph, bipartition, is_connected
from oddspan.oracle import find_odd_spanning_tree_bruteforce
from oddspan.split import SplitPartition


def _outputs(state, k):
    """The k outputs that follow state, read from the lanes of ``_lanes``:
    output j + 1 is the low word of lane j."""
    _, z = _lanes(state & _MASK64, k)
    return [(z >> 128 * j) & _MASK64 for j in range(k)]


def test_splitmix_reference_values():
    # published splitmix64 stream for seed 0
    assert _outputs(0, 3) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


# A frozen copy of the two generators that drew one output per pair.


def _frozen_gen_random(n, p, seed):
    rng = _FrozenSplitMix(seed)
    threshold = int(p * (1 << 64))
    es = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.next() < threshold:
                es.append((u, v))
    return Graph(n, es)


def _frozen_gen_random_split(s, t, p, seed):
    rng = _FrozenSplitMix(seed)
    threshold = int(p * (1 << 64))
    es = [(u, v) for u in range(s, s + t) for v in range(u + 1, s + t)]
    for x in range(s):
        for y in range(s, s + t):
            if rng.next() < threshold:
                es.append((x, y))
    return Graph(s + t, es)


def test_gen_random_matches_the_frozen_pair_loop():
    for n in range(13):
        for p in (0.0, 0.3, 0.5, 0.85, 1.0):
            for seed in range(8):
                g, want = gen_random(n, p, seed), _frozen_gen_random(n, p, seed)
                assert g == want and g.edge_set() == want.edge_set(), (n, p, seed)


def test_gen_random_split_matches_the_frozen_pair_loop():
    for s in range(7):
        for t in range(1, 6):
            for p in (0.0, 0.3, 0.6, 0.9, 1.0):
                for seed in range(6):
                    g, sp = gen_random_split(s, t, p, seed)
                    want = _frozen_gen_random_split(s, t, p, seed)
                    assert g == want and g.edge_set() == want.edge_set(), (s, t, p, seed)
                    assert sp == SplitPartition(frozenset(range(s)), tuple(range(s, s + t)))


# the block kernel against the frozen step: across block boundaries, at
# the extreme thresholds, and from seeds that wrap modulo 2^64
_KS = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5)
_PS = (0.0, 2.0**-60, 0.5, 1 - 2.0**-53, 1.0)
_SEEDS = (-(2**63) - 11, -1, 0, 2**64, 2**64 + 12345, 3 * 2**70 + 1)


@pytest.mark.parametrize("seed", _SEEDS)
def test_block_kernel_matches_the_frozen_steps_across_blocks(seed):
    frozen = _FrozenSplitMix(seed)
    want = [frozen.next() for _ in range(max(_KS))]
    for k in _KS:
        if k <= _BLOCK:
            assert _outputs(seed, k) == want[:k], k
        for p in _PS:
            threshold = int(p * (1 << 64))
            assert list(_keeps(seed, k, threshold)) == [int(z < threshold) for z in want[:k]], (k, p)


def test_keeps_at_the_extreme_thresholds():
    assert set(_keeps(5, 2 * _BLOCK + 1, 0)) == {0}
    assert set(_keeps(5, 2 * _BLOCK + 1, 1 << 64)) == {1}
    assert list(_keeps(5, 0, 1 << 63)) == []
    # an output equal to the threshold is not kept; one below it is
    frozen = _FrozenSplitMix(9)
    z = [frozen.next() for _ in range(_BLOCK + 1)]
    for i in (0, _BLOCK - 1, _BLOCK):
        for threshold in (z[i], z[i] + 1):
            got = list(_keeps(9, _BLOCK + 1, threshold))
            assert got == [int(x < threshold) for x in z], (i, threshold)


def test_keep_bits_are_computed_a_block_at_a_time(monkeypatch):
    # the draws for one graph never sit in one int beyond a block
    sizes = []
    real = families._lanes

    def spy(state, k):
        sizes.append(k)
        return real(state, k)

    monkeypatch.setattr(families, "_lanes", spy)
    keep = _keeps(3, 5 * _BLOCK + 2, 1 << 63)
    assert sizes == []
    assert len(list(keep)) == 5 * _BLOCK + 2
    assert sizes == [_BLOCK] * 5 + [2]
    n = 130  # 8385 pairs: two full blocks and a part
    g = gen_random(n, 0.5, 1)
    assert sizes[6:] == [_BLOCK, _BLOCK, n * (n - 1) // 2 - 2 * _BLOCK]
    assert g == _frozen_gen_random(n, 0.5, 1)


@pytest.mark.parametrize("p, seed", [(0.0, 3), (2.0**-60, -1), (0.5, 2**64 + 9), (0.05, 11),
                                     (1 - 2.0**-53, 0), (1.0, 4)])
def test_gen_random_at_n_300_matches_the_frozen_pair_loop(p, seed):
    g, want = gen_random(300, p, seed), _frozen_gen_random(300, p, seed)
    assert g == want and g.edge_set() == want.edge_set()


@pytest.mark.parametrize("p", _PS)
def test_gen_random_split_matches_the_frozen_pair_loop_at_every_threshold(p):
    for s in range(7):
        for t in range(1, 6):
            for seed in (-5, 0, 2**64 + 1):
                g, _ = gen_random_split(s, t, p, seed)
                want = _frozen_gen_random_split(s, t, p, seed)
                assert g == want and g.edge_set() == want.edge_set(), (s, t, seed)


def test_gen_random_rejects_a_negative_order():
    with pytest.raises(ValueError, match=r"^vertex count must be nonnegative, got -1$"):
        gen_random(-1, 0.5, 0)


def test_gen_random_deterministic():
    a = gen_random(8, 0.5, 42)
    b = gen_random(8, 0.5, 42)
    assert a == b
    assert gen_random(8, 0.5, 43) != a
    assert gen_random(8, 0.0, 1).m == 0
    assert gen_random(8, 1.0, 1).m == 28


def test_gen_complete_shapes():
    g = gen_complete(5)
    assert g.n == 5 and g.m == 10
    with pytest.raises(EmptyGraph):
        gen_complete(0)


def test_gen_complete_bipartite_shapes():
    g = gen_complete_bipartite(2, 3)
    assert g.n == 5 and g.m == 6
    assert all(g.degree(v) == 3 for v in range(2))
    with pytest.raises(EmptyGraph):
        gen_complete_bipartite(0, 3)


def test_gen_cbme():
    g = gen_complete_bipartite_minus_edge(2, 4)
    assert g.n == 6 and g.m == 7
    assert not g.has_edge(0, 2)
    with pytest.raises(ValueError, match=r"^part sizes must be even and >= 2, got \(3, 4\)$"):
        gen_complete_bipartite_minus_edge(3, 4)
    with pytest.raises(ValueError, match=r"^part sizes must be even and >= 2, got \(2, 5\)$"):
        gen_complete_bipartite_minus_edge(2, 5)


def test_gen_c5k_one_is_a_five_cycle():
    g = gen_c5k(1)
    assert g.n == 5 and g.m == 5
    assert is_connected(g)
    assert all(g.degree(v) == 2 for v in range(5))


def test_gen_c5k_blowup_degrees():
    g = gen_c5k(3)
    assert g.n == 7
    # blown-up class keeps degree 2; its two cycle neighbors absorb the copies
    assert all(g.degree(i) == 2 for i in range(3))
    assert g.degree(3) == 4 and g.degree(6) == 4


def test_gen_bridge_join():
    g = gen_bridge_join(gen_complete(4), gen_complete(4), 0, 0)
    assert g.n == 8 and g.m == 13
    assert g.has_edge(0, 4)


def test_gen_random_split_shape():
    g, sp = gen_random_split(3, 4, 0.6, 9)
    assert g.n == 7
    assert sp.x == frozenset({0, 1, 2})
    assert sp.y == (3, 4, 5, 6)
    # clique side complete regardless of seed
    for i in range(3, 7):
        for j in range(i + 1, 7):
            assert g.has_edge(i, j)


def test_check_bipartite_even_parts():
    g = cycle(4)
    r = NonexistenceReason(BIPARTITE_EVEN_PARTS, Bipartition(frozenset({0, 2}), frozenset({1, 3})))
    assert check_nonexistence(g, r)
    # odd parts prove nothing
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    r2 = NonexistenceReason(BIPARTITE_EVEN_PARTS, Bipartition(frozenset({0}), frozenset({1, 2, 3})))
    assert not check_nonexistence(star, r2)
    with pytest.raises(BadWitness):
        check_nonexistence(g, NonexistenceReason(BIPARTITE_EVEN_PARTS, Bipartition(frozenset({0}), frozenset({1}))))
    with pytest.raises(BadWitness):
        check_nonexistence(g, NonexistenceReason(BIPARTITE_EVEN_PARTS, ({0, 2}, {1, 3})))
    # C4's even 2-colouring also colours 2K2, which is disconnected
    assert not check_nonexistence(Graph(4, [(0, 1), (2, 3)]), r)


def test_check_bridge_even_sides():
    g = gen_bridge_join(gen_complete(4), gen_complete(4), 0, 0)
    assert check_nonexistence(g, NonexistenceReason(BRIDGE_EVEN_SIDES, (0, 4)))
    assert check_nonexistence(path(4), NonexistenceReason(BRIDGE_EVEN_SIDES, (1, 2)))
    # either orientation of the edge names the same bridge
    assert check_nonexistence(g, NonexistenceReason(BRIDGE_EVEN_SIDES, (4, 0)))
    # odd sides prove nothing, nor does an even side at odd order
    assert not check_nonexistence(path(6), NonexistenceReason(BRIDGE_EVEN_SIDES, (2, 3)))
    assert not check_nonexistence(path(5), NonexistenceReason(BRIDGE_EVEN_SIDES, (1, 2)))
    # an edge on a cycle is no bridge, and a disconnected graph has no witness
    assert not check_nonexistence(cycle(4), NonexistenceReason(BRIDGE_EVEN_SIDES, (0, 1)))
    two_k2 = Graph(4, [(0, 1), (2, 3)])
    assert not check_nonexistence(two_k2, NonexistenceReason(BRIDGE_EVEN_SIDES, (0, 1)))
    with pytest.raises(BadWitness):
        check_nonexistence(g, NonexistenceReason(BRIDGE_EVEN_SIDES, (0, 7)))
    # ends outside 0..n-1 are malformed too; -1 must not wrap to vertex 7
    for bad in ((8, 0), (-1, 4)):
        with pytest.raises(BadWitness):
            check_nonexistence(g, NonexistenceReason(BRIDGE_EVEN_SIDES, bad))


def test_check_split_condition():
    # triangle clique, three private pendant vertices
    g = Graph(6, [(3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)])
    sp = SplitPartition(x=frozenset({0, 1, 2}), y=(3, 4, 5))
    assert check_nonexistence(g, NonexistenceReason(SPLIT_CONDITION, sp))
    assert find_odd_spanning_tree_bruteforce(g) is None
    with pytest.raises(BadWitness):
        check_nonexistence(g, NonexistenceReason(SPLIT_CONDITION, "nope"))
    # valid split partitions that prove nothing: a disconnected graph (a
    # triangle and an isolated vertex), odd order, and a one-vertex clique (K1,3)
    for h, x, y in [
        (Graph(4, [(1, 2), (1, 3), (2, 3)]), {0}, (1, 2, 3)),
        (Graph(5, [(3, 4), (0, 3), (1, 3), (2, 4)]), {0, 1, 2}, (3, 4)),
        (Graph(4, [(0, 1), (0, 2), (0, 3)]), {1, 2, 3}, (0,)),
    ]:
        r = NonexistenceReason(SPLIT_CONDITION, SplitPartition(x=frozenset(x), y=y))
        assert not check_nonexistence(h, r), h.edge_set()


def test_check_rejects_records_of_the_wrong_type():
    # the witness records are NamedTuples, so they equal plain tuples of
    # their fields; the checks still insist on the record type
    c4 = cycle(4)
    bp = Bipartition(frozenset({0, 2}), frozenset({1, 3}))
    assert check_nonexistence(c4, NonexistenceReason(BIPARTITE_EVEN_PARTS, bp))
    with pytest.raises(BadWitness):
        check_nonexistence(c4, NonexistenceReason(BIPARTITE_EVEN_PARTS, tuple(bp)))
    g = Graph(6, [(3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)])
    sp = SplitPartition(x=frozenset({0, 1, 2}), y=(3, 4, 5))
    assert check_nonexistence(g, NonexistenceReason(SPLIT_CONDITION, sp))
    for wrong in (tuple(sp), Bipartition(sp.x, frozenset(sp.y))):
        with pytest.raises(BadWitness):
            check_nonexistence(g, NonexistenceReason(SPLIT_CONDITION, wrong))
    with pytest.raises(BadWitness):
        check_nonexistence(c4, NonexistenceReason(BIPARTITE_EVEN_PARTS, SplitPartition(bp.left, (1, 3))))
    # a record is a pair, but not the pair of ends that names a bridge
    for wrong in (bp, sp):
        with pytest.raises(BadWitness):
            check_nonexistence(g, NonexistenceReason(BRIDGE_EVEN_SIDES, wrong))


def test_check_excluded_family():
    g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])  # complement of 2K2
    assert check_nonexistence(g, NonexistenceReason(EXCLUDED_FAMILY, "two-k2"))
    # every name in the one list is a well-formed witness; only the right one holds
    held = [
        family for family in trifree.EXCLUDED_FAMILIES
        if check_nonexistence(g, NonexistenceReason(EXCLUDED_FAMILY, family))
    ]
    assert held == ["two-k2"]
    # the complement of the edgeless graph is K4, which has a triangle
    assert not check_nonexistence(Graph(4), NonexistenceReason(EXCLUDED_FAMILY, "two-k2"))
    with pytest.raises(BadWitness):
        check_nonexistence(g, NonexistenceReason(EXCLUDED_FAMILY, "mystery"))
    with pytest.raises(BadWitness):
        check_nonexistence(g, NonexistenceReason("unknown-kind", None))


def test_check_excluded_family_builds_no_complement_with_a_triangle(monkeypatch):
    # the edgeless graph's complement is K_3000, 4.5 million edges; the
    # triangle in it is found from the adjacency alone
    monkeypatch.setattr(families, "complement", lambda g: pytest.fail("complement built"))
    assert not check_nonexistence(Graph(3000), NonexistenceReason(EXCLUDED_FAMILY, "two-k2"))


def test_find_nonexistence_named():
    r = find_nonexistence(cycle(4))
    assert r is not None and r.kind == BIPARTITE_EVEN_PARTS
    r = find_nonexistence(gen_bridge_join(gen_complete(4), gen_complete(4), 0, 0))
    assert r is not None and r.kind == BRIDGE_EVEN_SIDES and r.witness == (0, 4)
    assert find_nonexistence(complete(4)) is None
    # C6 has no odd spanning tree either, but neither witness applies
    assert find_nonexistence(cycle(6)) is None
    with pytest.raises(Disconnected):
        find_nonexistence(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(OddOrder):
        find_nonexistence(cycle(5))
    with pytest.raises(EmptyGraph):
        find_nonexistence(Graph(0))


def test_find_nonexistence_agrees_with_oracle():
    from oddspan.sweep import all_connected_graphs

    found = 0
    for n in (2, 4, 6):
        for g in all_connected_graphs(n):
            r = find_nonexistence(g)
            if r is not None:
                found += 1
                assert check_nonexistence(g, r)
                assert find_odd_spanning_tree_bruteforce(g) is None
    assert found > 100


def _per_edge_scan(g: Graph) -> NonexistenceReason | None:
    """Reference witness search: re-check every edge as a bridge witness.

    ``check_nonexistence`` walks g without the edge once per edge, so this
    is independent of the lowlink DFS in ``find_nonexistence``, which must
    return the same reason.
    """
    bp = bipartition(g)
    if bp is not None and len(bp.left) % 2 == 0 and len(bp.right) % 2 == 0:
        return NonexistenceReason(BIPARTITE_EVEN_PARTS, bp)
    for e in sorted(g.edge_set()):
        r = NonexistenceReason(BRIDGE_EVEN_SIDES, e)
        if check_nonexistence(g, r):
            return r
    return None


def _cross_check_graphs():
    from oddspan.sweep import all_connected_graphs

    for n in (2, 4, 6):
        yield from all_connected_graphs(n)
    for n in range(8, 31, 2):
        for i, p in enumerate((0.1, 0.2, 0.3, 0.4, 0.5)):
            for seed in range(6):
                yield gen_random(n, p, 100 * n + 10 * i + seed)
    # bridge joins of cliques, every even/odd size mix, joined at both ends
    for a in range(1, 11):
        for b in range(1, 11):
            yield gen_bridge_join(gen_complete(a), gen_complete(b), 0, 0)
            yield gen_bridge_join(gen_complete(a), gen_complete(b), a - 1, b - 1)


def test_find_nonexistence_matches_per_edge_scan():
    checked = bridges = 0
    for g in _cross_check_graphs():
        if g.n % 2 or not is_connected(g):
            continue
        r = find_nonexistence(g)
        assert r == _per_edge_scan(g), sorted(g.edge_set())
        checked += 1
        bridges += r is not None and r.kind == BRIDGE_EVEN_SIDES
    assert checked > 26000 and bridges > 3000


def test_find_nonexistence_returns_least_of_several_bridges():
    # K4 {0..3} with bridges (0, 4) and (1, 8) to K4 {4..7} and K4 {8..11}.
    # A DFS from 0 that scans neighbours in ascending order enters 1 first
    # and meets (1, 8) before (0, 4), in preorder and in postorder.
    k4 = gen_complete(4)
    g = gen_bridge_join(gen_bridge_join(k4, k4, 0, 0), k4, 1, 0)
    assert g.has_edge(0, 4) and g.has_edge(1, 8)
    # chain K4 - K4 - K6: the deeper bridge (7, 8) finishes first
    chain = gen_bridge_join(gen_bridge_join(k4, k4, 3, 0), gen_complete(6), 7, 0)
    for h, least in ((g, (0, 4)), (chain, (3, 4))):
        qualifying = [
            e for e in sorted(h.edge_set())
            if check_nonexistence(h, NonexistenceReason(BRIDGE_EVEN_SIDES, e))
        ]
        assert len(qualifying) == 2 and qualifying[0] == least
        assert find_nonexistence(h) == NonexistenceReason(BRIDGE_EVEN_SIDES, least)


def test_find_nonexistence_long_path_needs_no_recursion():
    # a 5000-vertex path whose far end closes into a triangle: deeper than
    # the default recursion limit, and not bipartite, so the bridge scan runs
    n = 5000
    g = Graph(n, [(v, v + 1) for v in range(n - 1)] + [(n - 3, n - 1)])
    r = find_nonexistence(g)
    assert r == NonexistenceReason(BRIDGE_EVEN_SIDES, (1, 2))
    assert check_nonexistence(g, r)

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import oddspan
from oddspan import sweep
from oddspan.cli import emit_graph
from oddspan.errors import EmptyGraph
from oddspan.graph_core import Graph, is_connected
from oddspan.sweep import all_connected_graphs, all_graphs


def test_connected_cases_match_filtered_graphs_in_order():
    for n in range(1, 7):
        want = [g for g in all_graphs(n) if is_connected(g)]
        assert list(all_connected_graphs(n)) == want, n


# Frozen copies of the two generators as they were when they built every
# graph pair by pair.  The bitmask rows must give the same graphs in the
# same order.


def _frozen_pairs(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _frozen_all_graphs(n):
    ps = _frozen_pairs(n)
    for mask in range(1 << len(ps)):
        yield Graph(n, (p for i, p in enumerate(ps) if mask >> i & 1))


def _frozen_all_connected_graphs(n):
    ps = _frozen_pairs(n)
    full = (1 << n) - 1
    for mask in range(1 << len(ps)):
        if mask.bit_count() < n - 1:
            continue
        nbr = [0] * n
        for i, (u, v) in enumerate(ps):
            if mask >> i & 1:
                nbr[u] |= 1 << v
                nbr[v] |= 1 << u
        seen = todo = 1
        while todo:
            low = todo & -todo
            todo ^= low
            new = nbr[low.bit_length() - 1] & ~seen
            seen |= new
            todo |= new
        if seen == full:
            yield Graph(n, (p for i, p in enumerate(ps) if mask >> i & 1))


@pytest.mark.parametrize(
    ("now", "frozen", "sizes"),
    [
        (all_graphs, _frozen_all_graphs, range(7)),
        (all_connected_graphs, _frozen_all_connected_graphs, range(1, 7)),
    ],
    ids=["all", "connected"],
)
def test_generators_match_the_frozen_pair_loops(now, frozen, sizes):
    for n in sizes:
        got, want = list(now(n)), list(frozen(n))
        assert got == want, n
        assert [g.n for g in got] == [n] * len(want)
        assert [g.edge_set() for g in got] == [g.edge_set() for g in want], n


def test_generators_yield_the_labelled_graph_counts():
    # connected labelled graphs on n vertices are OEIS A001187, and all
    # labelled graphs number 2^C(n, 2): counts that no generator computes
    for n, want in zip(range(1, 7), (1, 1, 4, 38, 728, 26704)):
        assert sum(1 for _ in all_connected_graphs(n)) == want, n
    for n in range(7):
        assert sum(1 for _ in all_graphs(n)) == 2 ** (n * (n - 1) // 2), n


def test_connected_graphs_of_no_vertices_raise_empty_graph():
    # connectivity of the empty graph is undefined, as in is_connected
    with pytest.raises(EmptyGraph):
        list(all_connected_graphs(0))


@pytest.mark.parametrize("universe", [sweep.sweep_dense, sweep.sweep_trifree])
def test_exhaustive_part_enumerates_every_even_n_up_to_max_n(monkeypatch, universe):
    seen = []

    def recording(n):
        seen.append(n)
        return iter(())

    monkeypatch.setattr(sweep, "all_graphs", recording)
    rep = universe(seeded=0, max_n=8)
    assert seen == [2, 4, 6, 8]
    assert "n<=8" in rep.universe


# Modules that check, verify and construct must start without: the sweep,
# its process pool and the two-tree packing.
_LEAN = "{'oddspan.sweep', 'oddspan.tree_packing', 'oddspan.odd_factor', 'multiprocessing'}"


@pytest.mark.parametrize(
    "script",
    [
        "import oddspan.sweep as s; assert s.sweep_dense(seeded=0, max_n=4).checked == 1",
        # the sweep flags name every sweep_<name> of the sweep module, and no other
        "import oddspan.cli as c; import oddspan.sweep as s; names = c.SWEEP_UNIVERSES; "
        "assert sorted(names) == sorted(k[6:] for k in vars(s) if k.startswith('sweep_'))",
        f"import sys, oddspan.cli; assert not {_LEAN} & set(sys.modules)",
        # the check path's records are NamedTuples, and only sweep inspects a signature
        "import sys, oddspan.cli as c; "
        "assert not {'dataclasses', 'inspect'} & set(sys.modules); "
        "assert c.main(['check', sys.argv[1] + '/k13.txt']) == 0; "
        "assert not {'dataclasses', 'inspect'} & set(sys.modules)",
        "import sys, oddspan.cli as c; "
        "assert c.main(['check', sys.argv[1] + '/k13.txt']) == 0; "
        f"assert not {_LEAN} & set(sys.modules)",
        # the factor and the tree-packing check import what they use
        "import contextlib, io, pathlib, sys, oddspan.cli as c; d = sys.argv[1]\n"
        "assert c.main(['construct', '--factor', d + '/k6.txt']) == 0\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    assert c.main(['construct', '--factor', d + '/c4.txt']) == 2\n"
        "assert out.getvalue().startswith('UNKNOWN tree-packing')\n"
        "pathlib.Path(d, 'c4.cert').write_text(out.getvalue())\n"
        "assert c.main(['verify', d + '/c4.txt', '--certificate', d + '/c4.cert']) == 0",
    ],
    ids=["sweep-first", "cli-first", "cli-lean", "cli-no-dataclasses", "check-lean", "factor-lazy"],
)
def test_sweep_and_cli_import_in_either_order(script, tmp_path):
    for name, text in (("k13", "4 3\n0 1\n0 2\n0 3\n"), ("c4", "4 4\n0 1\n1 2\n2 3\n0 3\n"),
                       ("k6", emit_graph(Graph(6, combinations(range(6), 2))))):
        (tmp_path / f"{name}.txt").write_text(text)
    src = str(Path(oddspan.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr

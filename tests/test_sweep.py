import os
import subprocess
import sys
from pathlib import Path

import pytest

import oddspan
from oddspan import sweep
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


@pytest.mark.parametrize(
    "script",
    [
        # the method universes import cli when they check a case
        "import oddspan.sweep as s; assert s.sweep_dense(seeded=0, max_n=4).checked == 1",
        "import oddspan.cli as c; assert 'dense' in c.UNIVERSES",
    ],
    ids=["sweep-first", "cli-first"],
)
def test_sweep_and_cli_import_in_either_order(script):
    src = str(Path(oddspan.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr

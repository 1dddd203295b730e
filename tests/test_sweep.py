import os
import subprocess
import sys
from pathlib import Path

import pytest

import oddspan
from oddspan import sweep
from oddspan.graph_core import is_connected
from oddspan.sweep import all_connected_graphs, all_graphs


def test_connected_cases_match_filtered_graphs_in_order():
    for n in range(1, 7):
        want = [g for g in all_graphs(n) if is_connected(g)]
        assert list(all_connected_graphs(n)) == want, n


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

import pytest

from oddspan import sweep
from oddspan.graph_core import is_connected
from oddspan.sweep import _case, all_connected_graphs, all_graphs, connected_cases


def test_connected_cases_match_filtered_graphs_in_order():
    for n in range(1, 7):
        want = [_case(g) for g in all_graphs(n) if is_connected(g)]
        assert list(connected_cases(n)) == want, n
        assert [_case(g) for g in all_connected_graphs(n)] == want, n


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

from oddspan.graph_core import is_connected
from oddspan.sweep import _case, all_connected_graphs, all_graphs, connected_cases


def test_connected_cases_match_filtered_graphs_in_order():
    for n in range(1, 7):
        want = [_case(g) for g in all_graphs(n) if is_connected(g)]
        assert list(connected_cases(n)) == want, n
        assert [_case(g) for g in all_connected_graphs(n)] == want, n

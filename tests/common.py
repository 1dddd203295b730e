"""Small graph builders, a line-event counter and a frozen splitmix step,
shared across test modules."""

import sys

from oddspan.graph_core import Graph, edge


def cycle(n: int) -> Graph:
    return Graph(n, (edge(v, (v + 1) % n) for v in range(n)))


def path(n: int) -> Graph:
    return Graph(n, ((v, v + 1) for v in range(n - 1)))


def complete(n: int) -> Graph:
    return Graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def es(*pairs) -> frozenset:
    return frozenset(edge(u, v) for u, v in pairs)


def joined_cliques(s: int, links: int) -> Graph:
    """K_s on 0..s-1 and on s..2s-1, plus the edges (i, s + i) for i < links."""
    edges = [(u, v) for u in range(s) for v in range(u + 1, s)]
    edges += [(u + s, v + s) for u, v in edges]
    edges += [(i, s + i) for i in range(links)]
    return Graph(2 * s, edges)


def line_events(functions, run) -> int:
    """Line events that run() executes in frames of the given functions."""
    codes = {fn.__code__ for fn in functions}
    events = 0

    def local(frame, event, arg):
        nonlocal events
        events += event == "line"
        return local

    def calls(frame, event, arg):
        return local if frame.f_code in codes else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(previous)
    return events


# A frozen copy of the splitmix step, one output per call, as it was
# before outputs were drawn a block at a time.

_MASK64 = (1 << 64) - 1


class _FrozenSplitMix:
    def __init__(self, seed):
        self.state = seed & _MASK64

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

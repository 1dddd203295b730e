"""Small graph builders shared across test modules."""

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

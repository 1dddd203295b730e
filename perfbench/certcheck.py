"""Re-check every answer the benchmark receives, outside the timed region.

Each checker takes the input graph and the program's output text and
returns ``None`` when the answer holds, or a one-line reason when it
does not.  Graph and certificate texts are read here, not with the
CLI's own parsers, so a parser defect cannot hide a wrong answer.

- EXISTS: the witness edges pass ``verify_odd_spanning_tree``.
- NOT_EXISTS: the ``P``/``R`` lines are rebuilt into a
  ``NonexistenceReason`` for ``families.check_nonexistence``;
  disconnected and odd-order answers are recomputed.
- UNKNOWN: allowed only past the oracle's size cap.
- even n <= 10: the verdict must also match
  ``find_odd_spanning_tree_bruteforce``.
"""

from __future__ import annotations

from oddspan.families import (
    BIPARTITE_EVEN_PARTS,
    BRIDGE_EVEN_SIDES,
    EXCLUDED_FAMILY,
    SPLIT_CONDITION,
    NonexistenceReason,
    check_nonexistence,
)
from oddspan.errors import OddSpanError
from oddspan.graph_core import Bipartition, Graph, edge, is_connected
from oddspan.oracle import (
    ODD_TREE_VERTEX_CAP,
    find_odd_spanning_tree_bruteforce,
    verify_odd_spanning_tree,
)
from oddspan.split import SplitPartition


def read_graph(text: str) -> Graph:
    rows = [line.split("#", 1)[0].split() for line in text.splitlines()]
    rows = [r for r in rows if r]
    n = int(rows[0][0])
    return Graph(n, [(int(u), int(v)) for u, v in rows[1:]])


class Answer:
    """The fields of one certificate text."""

    def __init__(self, text: str) -> None:
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError("empty certificate")
        self.verdict, self.method = lines[0].split()
        self.edges: set[tuple[int, int]] = set()
        self.parts: dict[str, list[int]] = {}
        self.reason: list[str] = []
        self.count: int | None = None
        for line in lines[1:]:
            tag, _, rest = line.partition(" ")
            if tag == "T":
                u, v = rest.split()
                self.edges.add(edge(int(u), int(v)))
            elif tag == "P":
                name, _, csv = rest.partition(":")
                self.parts[name] = [int(x) for x in csv.split(",") if x]
            elif tag == "R":
                self.reason = rest.split()
            elif tag == "C":
                self.count = int(rest)
            else:
                raise ValueError(f"unknown certificate line {line!r}")


def _not_exists_holds(g: Graph, a: Answer) -> bool:
    if a.method == "disconnected":
        return not is_connected(g)
    if a.method == "odd-order":
        return g.n % 2 == 1 and is_connected(g)
    if a.method == "oracle-exhaustive":
        return g.n <= ODD_TREE_VERTEX_CAP and find_odd_spanning_tree_bruteforce(g) is None
    if a.method == BIPARTITE_EVEN_PARTS:
        w = Bipartition(frozenset(a.parts["left"]), frozenset(a.parts["right"]))
        return check_nonexistence(g, NonexistenceReason(BIPARTITE_EVEN_PARTS, w))
    if a.method == BRIDGE_EVEN_SIDES:
        kind, u, v = a.reason
        return kind == BRIDGE_EVEN_SIDES and check_nonexistence(
            g, NonexistenceReason(BRIDGE_EVEN_SIDES, edge(int(u), int(v)))
        )
    if a.method == "split-criterion":
        w = SplitPartition(x=frozenset(a.parts["x"]), y=tuple(a.parts["y"]))
        return check_nonexistence(g, NonexistenceReason(SPLIT_CONDITION, w))
    if a.method == "trifree-complement":
        kind, family = a.reason
        return kind == EXCLUDED_FAMILY and check_nonexistence(
            g, NonexistenceReason(EXCLUDED_FAMILY, family)
        )
    return False


def check_tree_answer(text: str, out: str) -> str | None:
    """Re-check one ``check`` certificate against its input graph."""
    g = read_graph(text)
    try:
        a = Answer(out)
        if a.verdict == "EXISTS":
            rep = verify_odd_spanning_tree(g, frozenset(a.edges))
            ok = rep.ok
        elif a.verdict == "NOT_EXISTS":
            ok = _not_exists_holds(g, a)
        else:
            ok = a.method == "oracle-capped" and g.n > ODD_TREE_VERTEX_CAP
        # On odd n every answer that passed above is already proved (no
        # odd graph has odd order), and the exhaustive search there costs
        # far more than the timed pass, so the oracle checks even n only.
        if ok and g.n <= ODD_TREE_VERTEX_CAP and g.n % 2 == 0:
            truth = is_connected(g) and find_odd_spanning_tree_bruteforce(g) is not None
            ok = truth == (a.verdict == "EXISTS")
    except (OddSpanError, ValueError, KeyError) as exc:
        return f"unreadable certificate: {type(exc).__name__}: {exc}"
    return None if ok else f"{a.verdict} {a.method} does not hold"

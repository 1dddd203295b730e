"""Exception types shared across the package.

Every failure mode callers are expected to branch on gets its own class;
errors that carry data (a line number, a degree bound) keep it on the
instance so tooling can inspect it.  A refutation is not an error: the
procedure that finds one returns it.
"""

from __future__ import annotations


class OddSpanError(Exception):
    """Base class for all package errors."""


class EmptyGraph(OddSpanError):
    """Operation needs at least one (or two) vertices."""


class Disconnected(OddSpanError):
    """Operation requires a connected graph."""


class NotATree(OddSpanError):
    """Edge set is not a spanning tree of the stated vertex count."""


class SelfLoop(OddSpanError):
    """Edge with identical endpoints."""


class DuplicateEdge(OddSpanError):
    """Edge listed more than once in serialized input."""


class ParseError(OddSpanError):
    """Malformed edge-list text; carries the 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class ParityArgument(OddSpanError):
    """Numeric argument violates a required parity."""


class OddOrder(OddSpanError):
    """Graph has odd order; an all-odd-degree subgraph cannot span it."""


class SizeCap(OddSpanError):
    """Instance exceeds a brute-force size cap; caps fail loudly, never truncate."""


class BadWitness(OddSpanError):
    """Certificate or witness is malformed for the graph it claims to certify."""


class MinDegreeTooLow(OddSpanError):
    """Minimum degree below the bound the dense construction requires."""

    def __init__(self, min_degree: int, bound: int) -> None:
        super().__init__(f"minimum degree {min_degree} below required bound {bound}")
        self.min_degree = min_degree
        self.bound = bound


class NotTriangleFree(OddSpanError):
    """Graph contains a triangle."""


class NotSplit(OddSpanError):
    """Graph does not split into an independent set and a clique."""

"""Exception types shared across the package.

Every failure mode callers are expected to branch on gets its own class;
errors that carry data (a line number) keep it on the instance so tooling
can inspect it.  A refutation is not an error: the procedure that finds
one returns it.
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


class ParseError(OddSpanError):
    """Malformed edge-list text; carries the 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class OddOrder(OddSpanError):
    """Graph has odd order; an all-odd-degree subgraph cannot span it."""


class SizeCap(OddSpanError):
    """Instance exceeds a brute-force size cap; caps fail loudly, never truncate."""


class BadWitness(OddSpanError):
    """Certificate or witness is malformed for the graph it claims to certify."""


class OutOfScope(OddSpanError):
    """Graph lies outside the class a method's theorem covers: not split,
    complement not triangle-free, or minimum degree below n/2 + 1."""

"""Seeded inputs for the benchmark workloads.

Every graph comes from oddspan's own seeded generator ``gen_random``, so
one bench seed gives the same graphs on every platform.  The bench derives one generator seed
per graph from the bench seed with a splitmix64 finaliser of its own;
nothing here draws from Python's ``random``.

An input is a list of ``Op`` records whose ``text`` is the graph in the
CLI's edge-list format.  ``sweep`` has no graph texts: its ops are the
acceptance suite's universes, run at the settings below.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

from oddspan import cli
from oddspan.families import gen_random

WORKLOADS = ("check-small", "sweep")

_MASK64 = (1 << 64) - 1


def _mix(x: int) -> int:
    """splitmix64 finaliser: a well-spread 64-bit value for each integer."""
    z = (x * 0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class _Seeds:
    """Stream of 64-bit generator seeds derived from one bench seed."""

    def __init__(self, seed: int, salt: str) -> None:
        tag = int.from_bytes(hashlib.sha256(salt.encode()).digest()[:8], "big")
        self.state = _mix(seed ^ tag)

    def next(self) -> int:
        self.state = _mix(self.state)
        return self.state


@dataclass(frozen=True)
class Op:
    """One operation's input: a graph text, or a sweep universe."""

    family: str
    n: int
    m: int
    text: str


CHECK_SMALL_ORDERS = range(5, 11)
CHECK_SMALL_PS = (0.3, 0.5, 0.7)
CHECK_SMALL_DRAWS = 56  # per (n, p): 6 * 3 * 56 = 1008 graphs

# The acceptance suite's universes, cut to n <= 5 where they enumerate
# every graph and to fewer seeded cases, so that one pass takes about
# half a second and a run repeats each universe many times.  At the
# acceptance settings a pass takes 20-28 s, and one sample per run is
# not steady on a machine whose speed changes from minute to minute.
SWEEP_UNIVERSES = {
    "dense": {"seeded": 50, "max_n": 5},
    "split": {"seeded": 100, "max_n": 5},
    "trifree": {"seeded": 60, "max_n": 5},
    "factor": {"seeded": 10},
    "packing": {"max_n": 5},
    "bipartition": {"seeded": 40, "max_n": 5},
}
SWEEP_TINY = {
    "dense": {"seeded": 0, "max_n": 4},
    "split": {"seeded": 5, "max_n": 4},
    "trifree": {"seeded": 5, "max_n": 4},
    "factor": {"seeded": 2},
    "packing": {"max_n": 4},
    "bipartition": {"seeded": 5, "max_n": 4},
}


def _op(family: str, g) -> Op:
    return Op(family, g.n, g.m, cli.emit_graph(g))


def _check_small(seed: int, tiny: bool) -> list[Op]:
    draws = 2 if tiny else CHECK_SMALL_DRAWS
    ops = []
    for p in CHECK_SMALL_PS:
        seeds = _Seeds(seed, f"check-small/{p}")
        for n in CHECK_SMALL_ORDERS:
            ops.extend(_op(f"random-{p}", gen_random(n, p, seeds.next())) for _ in range(draws))
    return ops


def _sweep(seed: int, tiny: bool) -> list[Op]:
    # The universes are fixed; the seed only rotates the order they run in.
    names = list(SWEEP_UNIVERSES)
    k = seed % len(names)
    return [Op(name, 0, 0, "") for name in names[k:] + names[:k]]


def sweep_settings(name: str, tiny: bool) -> dict:
    return dict((SWEEP_TINY if tiny else SWEEP_UNIVERSES)[name])


_BUILDERS = {
    "check-small": _check_small,
    "sweep": _sweep,
}


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The workload's ops for this seed; ``tiny`` shrinks it for tests."""
    return _BUILDERS[workload](seed, tiny)


def to_json(ops: list[Op]) -> list[dict]:
    return [asdict(op) for op in ops]


def from_json(rows: list[dict]) -> list[Op]:
    return [Op(**row) for row in rows]


def digest(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.family}\0{op.n}\0{op.m}\0{op.text}\0".encode())
    return h.hexdigest()[:16]

"""Outside-in tracing: timing wrappers on oddspan's layer entry points.

``traced(tracer)`` replaces each target function with a wrapper on every
module attribute bound to it.  ``from .x import y`` binds ``y`` in each
importing module and Python looks module globals up at call time, so
patching every binding catches every call site, including calls inside
the defining module.  Leaving the context puts the originals back.

Each call records a span (name, start, end, parent span, op id) in flat
arrays and adds to per-function totals.  Self time is a span's duration
minus the time covered by its traced children.  Hot leaf helpers such as
``graph_core.edge`` and ``Graph.__init__`` are deliberately not wrapped.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import pkgutil
from array import array
from collections import Counter
from time import perf_counter

import oddspan

# Layer entry points, by defining module.  Missing names are skipped, so
# a later refactor that removes one leaves its metrics at zero.
TARGETS = {
    "cli": ("parse_graph", "decide", "emit_certificate"),
    "families": ("find_nonexistence",),
    "graph_core": (
        "is_connected", "bipartition", "complement", "is_triangle_free",
        "edge_connectivity", "tree_path",
    ),
    "split": ("find_split_partition", "split_no_tree_condition", "split_odd_spanning_tree"),
    "trifree": ("trifree_complement_tree", "complement_connected", "recognize_excluded"),
    "dense_tree": ("odd_spanning_tree_dense",),
    "oracle": (
        "verify_odd_spanning_tree", "verify_connected_odd_factor",
        "find_odd_spanning_tree_bruteforce", "find_connected_odd_factor_bruteforce",
        "enumerate_spanning_trees",
    ),
    "tree_packing": ("two_edge_disjoint_spanning_trees", "exhaustive_pair_search", "verify_packing"),
    "odd_factor": ("connected_odd_factor",),
    "sweep": (
        "sweep_dense", "sweep_split", "sweep_trifree", "sweep_packing",
        "sweep_factor", "sweep_bipartition",
    ),
}

# Results that count as a useful outcome, for the *_frac ratios.
HITS = {
    "families.find_nonexistence": lambda r: r is not None,
    "oracle.find_odd_spanning_tree_bruteforce": lambda r: r is not None,
    "tree_packing.two_edge_disjoint_spanning_trees": lambda r: r.trees is not None,
}


class Stat:
    __slots__ = ("calls", "total", "self_time", "hits", "raised")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.hits = 0
        self.raised: Counter[str] = Counter()


class Tracer:
    """Spans and per-function totals for one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.stats: dict[str, Stat] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.op = -1
        # open spans: [span index, time covered by finished children]
        self._open: list[list] = []

    def wrap(self, name: str, fn):
        code = len(self.names)
        self.names.append(name)
        stat = self.stats[name] = Stat()
        hit = HITS.get(name)
        opened = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(code)
            self.span_parent.append(opened[-1][0] if opened else -1)
            self.span_op.append(self.op)
            frame = [idx, 0.0]
            opened.append(frame)
            t0 = perf_counter()
            self.span_start.append(t0)
            self.span_end.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                stat.raised[type(exc).__name__] += 1
                raise
            finally:
                t1 = perf_counter()
                opened.pop()
                self.span_end[idx] = t1
                took = t1 - t0
                stat.calls += 1
                stat.total += took
                stat.self_time += took - frame[1]
                if opened:
                    opened[-1][1] += took
            if hit is not None and hit(result):
                stat.hits += 1
            return result

        return wrapper

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def write(self, path) -> None:
        """Spans as gzipped tab-separated lines: name, start, end, parent, op."""
        base = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i] - base:.7f}\t"
                    f"{self.span_end[i] - base:.7f}\t{self.span_parent[i]}\t{self.span_op[i]}\n"
                )


def _package_modules() -> list:
    return [
        importlib.import_module(f"oddspan.{info.name}")
        for info in pkgutil.iter_modules(oddspan.__path__)
    ]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    modules = _package_modules()
    patched: list[tuple[object, str, object]] = []
    try:
        for home_name, fnames in TARGETS.items():
            home = importlib.import_module(f"oddspan.{home_name}")
            for fname in fnames:
                orig = getattr(home, fname, None)
                if orig is None:
                    continue
                wrapper = tracer.wrap(f"{home_name}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, orig in reversed(patched):
            setattr(mod, attr, orig)

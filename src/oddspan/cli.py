"""Command line front end: generate, decide, construct, verify, sweep.

Graph wire format is a plain edge list: an ``n m`` header with n at most
``_MAX_VERTICES``, then m lines ``u v`` with 0-based vertex ids below n,
LF separated, ``#`` starting a comment that runs to end of line.  Fields
are separated by spaces and tabs, and a line may end in one CR.  Every
number is ASCII digits with an optional leading ``-``.
Certificates are line oriented too: a ``VERDICT method`` header, then
``T u v`` witness edges, ``P name:a,b`` vertex parts, ``R reason [args]``,
and ``C k`` counts.

Exit codes: 0 EXISTS or plain success, 1 NOT_EXISTS, 2 UNKNOWN,
64 usage, 65 bad input data, 70 internal invariant failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable
from math import comb
from typing import TYPE_CHECKING, NamedTuple

from .dense_tree import odd_spanning_tree_dense
from .errors import (
    BadWitness,
    Disconnected,
    EmptyGraph,
    OddOrder,
    OddSpanError,
    OutOfScope,
    ParseError,
)
from .families import (
    BIPARTITE_EVEN_PARTS,
    BRIDGE_EVEN_SIDES,
    EXCLUDED_FAMILY,
    SPLIT_CONDITION,
    NonexistenceReason,
    check_nonexistence,
    find_nonexistence,
    gen_bridge_join,
    gen_complete,
    gen_complete_bipartite,
    gen_complete_bipartite_minus_edge,
    gen_c5k,
    gen_random,
    gen_random_split,
)
from .graph_core import (
    Bipartition,
    EdgeSet,
    Graph,
    complement,
    complement_has_triangle,
    degrees,
    diameter,
    edge,
    edge_connectivity,
    is_connected,
    is_triangle_free,
)
from .oracle import (
    ODD_TREE_VERTEX_CAP,
    find_odd_spanning_tree_bruteforce,
    verify_connected_odd_factor,
    verify_odd_spanning_tree,
)
from .split import (
    SplitPartition,
    double_star_in_complement,
    find_split_partition,
    split_odd_spanning_tree,
)
from .trifree import trifree_complement_tree

# sweep, odd_factor and tree_packing are imported where they are used, so
# that check, verify and construct start without them
if TYPE_CHECKING:
    from .tree_packing import PartitionCertificate

EXISTS = "EXISTS"
NOT_EXISTS = "NOT_EXISTS"
UNKNOWN = "UNKNOWN"

_VERDICT_EXIT = {EXISTS: 0, NOT_EXISTS: 1, UNKNOWN: 2}

EX_USAGE = 64
EX_DATA = 65
EX_INTERNAL = 70


class Certificate(NamedTuple):
    """One verdict with a machine-checkable payload.

    ``verified`` and ``branch`` are never emitted or parsed: the first
    marks a witness verified where it was built, the second names the
    construction branch that built it, where a method has branches.
    """

    verdict: str
    method: str
    edges: EdgeSet | None = None
    parts: tuple[tuple[str, tuple[int, ...]], ...] = ()
    reason: str | None = None
    count: int | None = None
    verified: bool = False
    branch: str | None = None


# The largest vertex count a graph text may declare.  The reader
# allocates one neighbour set per vertex before it reads an edge, so a
# short hostile header must not ask for millions.  The bound is far
# above the sizes the constructions and the oracle are meant for.
_MAX_VERTICES = 100_000


def _ascii_int(field: str) -> int:
    """int() of a field of ASCII digits with an optional leading '-';
    surrounding spaces and tabs are dropped, as int() drops them."""
    body = field.strip(" \t")
    digits = body[1:] if body[:1] == "-" else body
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a number: {field!r}")
    return int(body)


def _fields(line: str) -> list[str]:
    """The fields of a line: the runs between spaces and tabs, once a CR
    that ends the line is dropped."""
    if line[-1:] == "\r":
        line = line[:-1]
    return [f for f in line.replace("\t", " ").split(" ") if f]


def _text_reader(text: str) -> tuple[Callable[[str], list[str]], Callable[[str], int]]:
    """How to split text's lines into fields and read its numbers.

    str.split() also splits at CR, VT, FF, the ASCII separators
    0x1c-0x1f and non-ASCII spaces, and int() also reads '+', '_' and
    non-ASCII digits.  A text with none of these is read with str.split()
    and int() themselves; the test is a few scans, cheaper than a check
    per field.
    """
    plain = (
        text.isascii() and "+" not in text and "_" not in text and "\r" not in text
        and "\x0b" not in text and "\x0c" not in text and "\x1c" not in text
        and "\x1d" not in text and "\x1e" not in text and "\x1f" not in text
    )
    return (str.split, int) if plain else (_fields, _ascii_int)


def parse_graph(text: str) -> Graph:
    """Strict edge-list reader; rejects self loops and repeated edges.

    One pass over the edge lines checks each one and fills the neighbour
    sets, which become the graph as they stand.
    """
    split, num = _text_reader(text)
    lines = text.split("\n")
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    rows = [(lineno, parts) for lineno, parts in enumerate(map(split, lines), 1) if parts]
    if not rows:
        raise ParseError(1, "missing 'n m' header")
    lineno, head = rows[0]
    if len(head) != 2:
        raise ParseError(lineno, "header must be two integers 'n m'")
    try:
        n, m = num(head[0]), num(head[1])
    except ValueError:
        raise ParseError(lineno, "header must be two integers 'n m'") from None
    if n < 0 or m < 0:
        raise ParseError(lineno, "negative count in header")
    if n > _MAX_VERTICES:
        raise ParseError(lineno, f"vertex count {n} above the limit {_MAX_VERTICES}")
    if len(rows) - 1 != m:
        raise ParseError(lineno, f"header promises {m} edges, found {len(rows) - 1}")
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for lineno, parts in rows[1:]:
        if len(parts) != 2:
            raise ParseError(lineno, "edge line must be two integers 'u v'")
        try:
            u, v = num(parts[0]), num(parts[1])
        except ValueError:
            raise ParseError(lineno, "edge line must be two integers 'u v'") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(lineno, f"vertex id out of range 0..{n - 1}")
        if u == v:
            raise ParseError(lineno, f"self loop at {u}")
        nu = nbrs[u]
        if v in nu:
            raise ParseError(lineno, f"edge {min(u, v)} {max(u, v)} repeated")
        nu.add(v)
        nbrs[v].add(u)
    return Graph._from_neighbours(nbrs)


def emit_graph(g: Graph) -> str:
    """The edge-list text of g, edges in lexicographic order: vertex by
    vertex, each one's higher neighbours ascending."""
    lines = [f"{g.n} {g.m}"]
    for u, nbrs in enumerate(g.adj):
        lines.extend(f"{u} {v}" for v in sorted(nbrs) if v > u)
    return "\n".join(lines) + "\n"


def emit_certificate(c: Certificate) -> str:
    # an EXISTS answer is only ever emitted once its witness re-verified
    if not c.verified and c.verdict not in (NOT_EXISTS, UNKNOWN):
        raise AssertionError("unverified EXISTS")
    lines = [f"{c.verdict} {c.method}"]
    lines.extend(f"T {u} {v}" for u, v in sorted(c.edges or ()))
    lines.extend(f"P {name}:{','.join(str(v) for v in vs)}" for name, vs in c.parts)
    if c.reason is not None:
        lines.append(f"R {c.reason}")
    if c.count is not None:
        lines.append(f"C {c.count}")
    return "\n".join(lines) + "\n"


_CERT_LINE_SHAPE = {"T": "'T u v'", "P": "'P name:v,v,...'", "C": "'C count'"}


def parse_certificate(text: str) -> Certificate:
    """Certificate reader; '#' starts a comment, as in ``parse_graph``."""
    header: tuple[str, str] | None = None
    edges: set[tuple[int, int]] = set()
    parts: list[tuple[str, tuple[int, ...]]] = []
    reason: str | None = None
    count: int | None = None
    # one line per edge, part name, R and C: a repeat would show a claim
    # that is never checked
    seen: set[tuple[str, object]] = set()
    split, num = _text_reader(text)
    for lineno, raw in enumerate(text.split("\n"), 1):
        fields = split(raw.split("#", 1)[0])
        if not fields:
            continue
        if header is None:
            if len(fields) != 2 or fields[0] not in _VERDICT_EXIT:
                raise ParseError(lineno, "expected 'VERDICT method' header")
            header = (fields[0], fields[1])
            continue
        tag, args = fields[0], fields[1:]
        key: object = None
        try:
            if tag == "T":
                u, v = map(num, args)
                key = edge(u, v)
                edges.add(key)
            elif tag == "P":
                key, _, csv = " ".join(args).partition(":")
                parts.append((key, tuple(num(x) for x in csv.split(",") if x != "")))
            elif tag == "R":
                reason = " ".join(args)
            elif tag == "C":
                (value,) = args
                count = num(value)
            else:
                raise ParseError(lineno, f"unknown certificate line tag {tag!r}")
        except ValueError:
            raise ParseError(lineno, f"{tag} line must be {_CERT_LINE_SHAPE[tag]}") from None
        if (tag, key) in seen:
            raise ParseError(lineno, f"repeated {tag} line")
        seen.add((tag, key))
    if header is None:
        raise ParseError(1, "empty certificate")
    return Certificate(
        verdict=header[0],
        method=header[1],
        edges=frozenset(edges) if edges else None,
        parts=tuple(parts),
        reason=reason,
        count=count,
    )


def _part(name: str, vs) -> tuple[str, tuple[int, ...]]:
    return (name, tuple(sorted(vs)))


# Certificate writers: every method builds its answer through one of
# these, and ``recheck`` rebuilds the answer it reads through the same one.


def _plain(g: Graph, verdict: str, method: str) -> Certificate:
    """A certificate whose only line past its header is its R line."""
    if method == "odd-order":
        reason = f"odd-order {g.n}"
    elif method == "oracle-capped":
        reason = f"size-cap {ODD_TREE_VERTEX_CAP}"
    else:
        reason = method
    return Certificate(verdict, method, reason=reason)


def _refuted(method: str, why: NonexistenceReason) -> Certificate:
    """A NOT_EXISTS certificate whose witness ``check_nonexistence`` reads:
    its P parts, and an R line of the kind, then its arguments."""
    w, parts, args = why.witness, (), ()
    if why.kind == BIPARTITE_EVEN_PARTS:
        parts = (_part("left", w.left), _part("right", w.right))
        args = (len(w.left), len(w.right))
    elif why.kind == BRIDGE_EVEN_SIDES:
        args = w
    elif why.kind == EXCLUDED_FAMILY:
        args = (w,)
    else:  # the split condition's witness is all in its P lines
        parts = (_part("x", w.x), _part("y", w.y))
    reason = " ".join(map(str, (why.kind, *args)))
    return Certificate(NOT_EXISTS, method, parts=parts, reason=reason)


def _no_packing(pc: PartitionCertificate) -> Certificate:
    parts = tuple(_part(f"part{i}", vs) for i, vs in enumerate(pc.parts))
    return Certificate(UNKNOWN, "tree-packing", parts=parts, reason="no-tree-packing",
                       count=pc.cross_edges)


def _nonexistence_reason(cert: Certificate) -> NonexistenceReason | None:
    """The witness of a NOT_EXISTS certificate, rebuilt for
    ``check_nonexistence``, or None when its method carries none."""
    parts = dict(cert.parts)
    args = (cert.reason or "").split()[1:]
    try:
        if cert.method == BIPARTITE_EVEN_PARTS:
            bp = Bipartition(frozenset(parts["left"]), frozenset(parts["right"]))
            return NonexistenceReason(BIPARTITE_EVEN_PARTS, bp)
        if cert.method == BRIDGE_EVEN_SIDES:
            u, v = map(int, args)
            return NonexistenceReason(BRIDGE_EVEN_SIDES, edge(u, v))
        if cert.method == "split-criterion":
            sp = SplitPartition(x=frozenset(parts["x"]), y=parts["y"])
            return NonexistenceReason(SPLIT_CONDITION, sp)
        if cert.method == "trifree-complement":
            (family,) = args
            return NonexistenceReason(EXCLUDED_FAMILY, family)
    except KeyError as exc:
        raise BadWitness(f"{cert.method} certificate lacks part {exc}") from None
    except ValueError:
        raise BadWitness(f"{cert.method} certificate has bad R arguments {args}") from None
    return None


# every method that answers EXISTS, as its certificate names it
_EXISTS_METHODS = (
    "split-criterion",
    "trifree-complement",
    "dense-min-degree",
    "oracle-exhaustive",
    "double-star",
    "parity-repair-factor",
)


def recheck(g: Graph, cert: Certificate) -> str | None:
    """None when cert holds for g, else the text of its failure.

    The certificate's own verdict and method choose its one check, so
    this is the only place that maps a certificate to a verifier; every
    method name maps to exactly one check.  Past that check, every line
    must be one that the method writes for this witness: any other R
    line, or a line of a tag or part name the method never writes, is
    ``witness-rejected``.  A certificate that names no known kind, or
    lacks a line its kind needs, raises BadWitness.
    """
    verdict, method = cert.verdict, cert.method
    written = None  # as ``_plain`` writes it, unless the branch rebuilds it
    if verdict == EXISTS and method in _EXISTS_METHODS:
        written = Certificate(EXISTS, method, edges=cert.edges)
        edges = cert.edges or frozenset()
        if method == "parity-repair-factor":
            rep = verify_connected_odd_factor(g, edges)
        else:
            # a double star is a tree of the input's complement with two non-leaf vertices
            rep = verify_odd_spanning_tree(complement(g) if method == "double-star" else g, edges)
        failure = rep.failure if rep.vertex is None else f"{rep.failure} {rep.vertex}"
        if failure is None and method == "double-star":
            failure = None if sum(d > 1 for d in degrees(edges, g.n)) == 2 else "not-a-double-star"
    elif (verdict, method) == (UNKNOWN, "oracle-capped"):
        failure = None if g.n > ODD_TREE_VERTEX_CAP else "within-size-cap"
    elif (verdict, method) == (UNKNOWN, "tree-packing"):
        from .tree_packing import PackingOutcome, PartitionCertificate, verify_packing

        pc = PartitionCertificate(tuple(frozenset(vs) for _, vs in cert.parts), cert.count)
        written = _no_packing(pc)
        failure = None if verify_packing(g, PackingOutcome(cert=pc)) else "partition-rejected"
    elif (verdict, method) == (NOT_EXISTS, "disconnected"):
        failure = "connected" if is_connected(g) else None
    elif (verdict, method) == (NOT_EXISTS, "odd-order"):
        failure = None if g.n % 2 else "even-order"
    elif (verdict, method) == (NOT_EXISTS, "oracle-exhaustive"):
        if g.n > ODD_TREE_VERTEX_CAP:
            failure = "over-size-cap"
        elif not is_connected(g):
            failure = "disconnected"  # the method answers such a graph as disconnected
        else:
            failure = None if find_odd_spanning_tree_bruteforce(g) is None else "tree-found"
    elif (verdict, method) == (NOT_EXISTS, "no-double-star"):
        # the rule is exact and polynomial, so it is rerun; odd order has no odd tree
        found = g.n % 2 == 0 and double_star_in_complement(g) is not None
        failure = "double-star-found" if found else None
    else:
        reason = _nonexistence_reason(cert) if verdict == NOT_EXISTS else None
        if reason is None:
            raise BadWitness(f"no check for a {verdict} {method} certificate")
        written = _refuted(method, reason)
        failure = None if check_nonexistence(g, reason) else "witness-rejected"
    # a certificate built here holds nothing else; one read back may
    if failure is None and not cert.verified and cert != (written or _plain(g, verdict, method)):
        return "witness-rejected"
    return failure


def _checked(g: Graph, cert: Certificate, what: str) -> Certificate:
    """cert, once it rechecks; not an assert, so that ``python -O`` keeps the check."""
    why = recheck(g, cert)
    if why is not None:
        raise AssertionError(f"{what} failed verification: {why}")
    return cert


def _exists(g: Graph, method: str, witness: EdgeSet, branch: str | None = None) -> Certificate:
    """The one place a witness is verified before it becomes an answer."""
    cert = Certificate(EXISTS, method, edges=witness, verified=True, branch=branch)
    return _checked(g, cert, "constructed witness")


# Each method takes a nonempty graph and returns a Certificate.  One whose
# theorem does not cover the graph raises OutOfScope, as the parity screen
# does when it finds no witness.


def _parity(g: Graph) -> Certificate:
    why = find_nonexistence(g)
    if why is None:
        raise OutOfScope("no parity witness")
    return _refuted(why.kind, why)


def _split(g: Graph) -> Certificate:
    sp = find_split_partition(g)
    if sp is None:
        raise OutOfScope("input is not a split graph")
    tree = split_odd_spanning_tree(g, sp)
    if tree is None:
        return _refuted("split-criterion", NonexistenceReason(SPLIT_CONDITION, sp))
    return _exists(g, "split-criterion", tree)


def _trifree(g: Graph) -> Certificate:
    # most inputs fail here, before their complement is built
    if complement_has_triangle(g):
        raise OutOfScope("complement of input must be triangle-free")
    label, tree = trifree_complement_tree(complement(g))
    if tree is not None:
        return _exists(g, "trifree-complement", tree, label)
    return _refuted("trifree-complement", NonexistenceReason(EXCLUDED_FAMILY, label))


def _dense(g: Graph) -> Certificate:
    return _exists(g, "dense-min-degree", odd_spanning_tree_dense(g))


def _oracle(g: Graph) -> Certificate:
    if g.n > ODD_TREE_VERTEX_CAP:
        return _plain(g, UNKNOWN, "oracle-capped")
    tree = find_odd_spanning_tree_bruteforce(g)
    if tree is None:
        return _plain(g, NOT_EXISTS, "oracle-exhaustive")
    return _exists(g, "oracle-exhaustive", tree)


def _double_star(g: Graph) -> Certificate:
    # the tree lives in the complement, so a disconnected input may have one;
    # recheck verifies it there
    tree = double_star_in_complement(g)
    if tree is None:
        return _plain(g, NOT_EXISTS, "no-double-star")
    return _exists(g, "double-star", tree)


def _factor(g: Graph) -> Certificate:
    from .odd_factor import connected_odd_factor
    from .tree_packing import PartitionCertificate

    # tested before the factor's own odd-order test, so that a disconnected
    # graph of odd order is answered as disconnected
    if not is_connected(g):
        raise Disconnected("a connected odd factor needs a connected graph")
    f = connected_odd_factor(g)
    if isinstance(f, PartitionCertificate):
        return _checked(g, _no_packing(f), "partition certificate")
    return _exists(g, "parity-repair-factor", f)


METHODS = {
    "parity": _parity,
    "split": _split,
    "trifree": _trifree,
    "dense": _dense,
    "oracle": _oracle,
    "double-star": _double_star,
    "factor": _factor,
}

# decide's stages, cheap to exhaustive; all but the parity screen answer alone
PIPELINE = ("parity", "split", "trifree", "dense", "oracle")


def run_method(g: Graph, *names: str) -> Certificate:
    """Answer with the first of the named methods that has g in its scope.

    Every method but the last passes g on when it raises OutOfScope; the
    last one's OutOfScope reaches the caller.  ``check``
    and ``construct`` both answer through here.
    """
    if g.n == 0:
        raise EmptyGraph("no vertices")
    try:
        for name in names[:-1]:
            try:
                return METHODS[name](g)
            except OutOfScope:
                continue  # outside this method's scope; try the next one
        return METHODS[names[-1]](g)
    except Disconnected:
        return _plain(g, NOT_EXISTS, "disconnected")
    except OddOrder:
        return _plain(g, NOT_EXISTS, "odd-order")


def decide(g: Graph) -> Certificate:
    """Escalate through the pipeline from cheap to exhaustive."""
    return run_method(g, *PIPELINE)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        # newline="" keeps CR and CRLF as they are, as stdin does
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EX_DATA) from None


def _load_graph(args) -> Graph:
    return parse_graph(_read_text(args.path))


def _workers() -> int:
    """Sweep worker count: ``ODD_SPAN_THREADS``, clamped to 1..cpu_count."""
    cpus = os.cpu_count() or 1
    raw = os.environ.get("ODD_SPAN_THREADS", "").strip()
    if not raw:
        return cpus
    try:
        return min(max(1, int(raw)), cpus)
    except ValueError:
        raise ValueError(f"ODD_SPAN_THREADS must be an integer, got {raw!r}") from None


def _emit(cert: Certificate) -> int:
    sys.stdout.write(emit_certificate(cert))
    return _VERDICT_EXIT[cert.verdict]


# The most edges gen builds, and in the complement of an input.  A graph
# costs a few hundred bytes per edge until it is printed, so the bound keeps
# a run under about a gigabyte; it admits K_2000 and G(10^4, p) for p <= 0.04.
_MAX_EDGES = 2_000_000

# The most splitmix outputs gen draws, one per pair, whatever p is; it
# admits G(10^4, p), 49,995,000 pairs.
_MAX_DRAWS = 50_000_000

# family -> (required flags, vertices beyond the flags' sum, edges, builder);
# edges(*flags, p) is the edge count, or for the seeded families its
# expectation (at p = 1, a bound on the pairs it draws), with the flags
# clamped at 0 and p to [0, 1]
_FAMILIES = {
    "complete": (("n",), 0, lambda n, p: comb(n, 2), lambda a: gen_complete(a.n)),
    "complete-bipartite": (("s", "t"), 0, lambda s, t, p: s * t,
                           lambda a: gen_complete_bipartite(a.s, a.t)),
    "cbme": (("s", "t"), 0, lambda s, t, p: s * t - 1,
             lambda a: gen_complete_bipartite_minus_edge(a.s, a.t)),
    "c5k": (("k",), 4, lambda k, p: 2 * k + 3, lambda a: gen_c5k(a.k)),
    "random": (("n",), 0, lambda n, p: p * comb(n, 2), lambda a: gen_random(a.n, a.p, a.seed)),
    "random-split": (("s", "t"), 0, lambda s, t, p: comb(t, 2) + p * s * t,
                     lambda a: gen_random_split(a.s, a.t, a.p, a.seed)[0]),
    "bridge-complete": (("s", "t"), 0, lambda s, t, p: comb(s, 2) + comb(t, 2) + 1,
                        lambda a: gen_bridge_join(gen_complete(a.s), gen_complete(a.t), 0, 0)),
}


def _usage(command: str, why: str) -> int:
    """Report a bad flag of ``oddspan <command>``; the usage exit code."""
    print(f"oddspan {command}: error: {why}", file=sys.stderr)
    return EX_USAGE


def _cmd_gen(args) -> int:
    required, extra, edges, build = _FAMILIES[args.family]
    missing = ", ".join("--" + k for k in required if getattr(args, k) is None)
    if missing:
        return _usage("gen", f"family {args.family} requires {missing}")
    # refused before anything is built, so that parse_graph reads back
    # every graph gen prints and no run outgrows memory; a bad flag value
    # is left to the builder
    sizes = [max(getattr(args, k), 0) for k in required]
    n = extra + sum(sizes)
    m = pairs = 0
    if n <= _MAX_VERTICES:
        m, pairs = edges(*sizes, min(max(args.p, 0.0), 1.0)), edges(*sizes, 1)
    for count, what, limit in ((n, "vertices", _MAX_VERTICES), (m, "edges", _MAX_EDGES),
                               (pairs, "possible edges", _MAX_DRAWS)):
        if count > limit:
            about = "about " if isinstance(count, float) else ""
            return _usage("gen", f"family {args.family} would have {about}{round(count)} {what}, "
                                 f"above the limit {limit}")
    try:
        g = build(args)
    except (ValueError, EmptyGraph) as exc:
        return _usage("gen", str(exc))  # the flags are all the input gen reads
    sys.stdout.write(emit_graph(g))
    return 0


def _cmd_check(args) -> int:
    return _emit(decide(_load_graph(args)))


def _complement_bounded(g: Graph, what: str) -> Graph:
    """g, unless what builds g's complement, or a distance table as large,
    and that complement has more than _MAX_EDGES edges: a few bytes of
    input would then cost gigabytes."""
    m = comb(g.n, 2) - g.m
    if what in ("complement", "double-star", "no-double-star") and m > _MAX_EDGES:
        raise ValueError(f"the complement would have {m} edges, above the limit {_MAX_EDGES}")
    return g


def _cmd_construct(args) -> int:
    return _emit(run_method(_complement_bounded(_load_graph(args), args.method), args.method))


def _cmd_verify(args) -> int:
    g = _load_graph(args)
    cert = parse_certificate(_read_text(args.certificate))
    why = recheck(_complement_bounded(g, cert.method), cert)
    print("OK" if why is None else f"FAIL {why}")
    return 0 if why is None else 1


def _cmd_complement(args) -> int:
    sys.stdout.write(emit_graph(complement(_complement_bounded(_load_graph(args), "complement"))))
    return 0


def _cmd_info(args) -> int:
    g = _load_graph(args)
    lines = [f"n {g.n}", f"m {g.m}"]
    lines.append("degrees " + ",".join(str(g.degree(v)) for v in range(g.n)))
    conn = is_connected(g)
    lines.append(f"connected {'true' if conn else 'false'}")
    lines.append(f"edge-connectivity {edge_connectivity(g) if g.n >= 2 else 0}")
    lines.append(f"diameter {diameter(g) if conn else 'inf'}")
    lines.append(f"split {'true' if find_split_partition(g) is not None else 'false'}")
    lines.append(f"triangle-free {'true' if is_triangle_free(g) else 'false'}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# the ``oddspan sweep`` flags, in this order; each names ``sweep.sweep_<name>``
SWEEP_UNIVERSES = ("dense", "split", "trifree", "packing", "factor", "bipartition")

# past --n 7 the exhaustive part walks 2^28 edge masks or more; 10,000
# seeded cases take at most about 30,000 draws, far inside _seeded's limit
_SWEEP_BOUNDS = {"n": 7, "cap": 10_000}


def _cmd_sweep(args) -> int:
    for flag, top in _SWEEP_BOUNDS.items():
        value = getattr(args, flag)
        if value is not None and not 0 <= value <= top:
            return _usage("sweep", f"--{flag} must be in 0..{top}, got {value}")
    try:
        workers = _workers()
    except ValueError as exc:
        return _usage("sweep", str(exc))
    import inspect

    from . import sweep

    run = getattr(sweep, f"sweep_{args.universe}")
    # a universe without a seeded part ignores --cap, one without an
    # exhaustive part ignores --n; unset --cap keeps the universe's default
    given = {"workers": workers, "max_n": args.n, "seeded": args.cap}
    accepted = inspect.signature(run).parameters
    rep = run(**{k: v for k, v in given.items() if k in accepted and v is not None})
    sys.stdout.write("\n".join(rep.lines()) + "\n")
    return 0 if rep.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="oddspan", description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[], help="emit a named graph family")
    p.add_argument("--family", required=True, choices=list(_FAMILIES))
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="decide whether an odd spanning tree exists")
    p.add_argument("path", nargs="?", default="-")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("construct", help="build a witness with one named method")
    p.add_argument("path", nargs="?", default="-")
    mode = p.add_mutually_exclusive_group(required=True)
    # the parity screen has no answer of its own when it finds no witness
    for name in [m for m in METHODS if m != "parity"]:
        mode.add_argument(f"--{name}", dest="method", action="store_const", const=name)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="re-verify a certificate against a graph")
    p.add_argument("path", nargs="?", default="-")
    p.add_argument("--certificate", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("complement", help="emit the complement graph")
    p.add_argument("path", nargs="?", default="-")
    p.set_defaults(func=_cmd_complement)

    p = sub.add_parser("info", help="structural summary of a graph")
    p.add_argument("path", nargs="?", default="-")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("sweep", help="run an oracle cross-check universe")
    what = p.add_mutually_exclusive_group(required=True)
    for name in SWEEP_UNIVERSES:
        what.add_argument(f"--{name}", dest="universe", action="store_const", const=name)
    p.add_argument("--n", type=int, default=6, help="exhaustive universe size cap, 0..7")
    p.add_argument("--cap", type=int, default=None, help="seeded sample size, 0..10000")
    p.set_defaults(func=_cmd_sweep)
    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 only from error(), after printing the usage; the contract here is 64
        return EX_USAGE if exc.code == 2 else int(exc.code or 0)
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except AssertionError as exc:
        print(f"internal: {exc}", file=sys.stderr)
        return EX_INTERNAL
    except (OddSpanError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATA


if __name__ == "__main__":
    raise SystemExit(main())

import hashlib
import io
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import oddspan
from common import cycle, es, line_events
from oddspan import cli, graph_core, oracle, sweep, tree_packing
from oddspan.cli import (
    Certificate,
    decide,
    emit_certificate,
    emit_graph,
    main,
    parse_certificate,
    parse_graph,
    run_method,
)
from oddspan.errors import (
    EmptyGraph,
    OddSpanError,
    ParseError,
)
from oddspan.families import gen_random
from oddspan.graph_core import Graph, complement, diameter, is_connected
from oddspan.oracle import find_odd_spanning_tree_bruteforce
from oddspan.sweep import all_graphs
from oddspan.tree_packing import two_edge_disjoint_spanning_trees

GOLDEN = Path(__file__).parent / "golden"

C4 = "4 4\n0 1\n1 2\n2 3\n0 3\n"
P6 = "6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n"
K4 = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
P5 = "5 4\n0 1\n1 2\n2 3\n3 4\n"
K6 = emit_graph(Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)]))


def run_cli(capsys, *argv, stdin=None):
    if stdin is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            code = main(list(argv))
        finally:
            sys.stdin = old
    else:
        code = main(list(argv))
    return code, capsys.readouterr().out


def golden(sub, case):
    return (GOLDEN / sub / f"{case}.txt").read_text()


def test_parse_graph_examples():
    g = parse_graph(C4)
    assert g.n == 4 and g.edge_set() == es((0, 1), (1, 2), (2, 3), (0, 3))
    assert parse_graph("2 1\n0 1\n") == Graph(2, [(0, 1)])
    assert parse_graph("# comment\n3 1  # header\n\n0 2\n") == Graph(3, [(0, 2)])


def test_parse_graph_errors():
    with pytest.raises(ParseError) as info:
        parse_graph("")
    assert info.value.line == 1
    with pytest.raises(ParseError):
        parse_graph("4\n")
    with pytest.raises(ParseError):
        parse_graph("a b\n")
    with pytest.raises(ParseError):
        parse_graph("2 2\n0 1\n")  # promised two edges
    with pytest.raises(ParseError):
        parse_graph("2 0\n0 1\n")  # promised none
    with pytest.raises(ParseError):
        parse_graph("2 1\n0 1 2\n")
    with pytest.raises(ParseError):
        parse_graph("2 1\n0 2\n")  # out of range
    with pytest.raises(ParseError):
        parse_graph("-1 0\n")
    with pytest.raises(ParseError, match="^line 2: self loop at 0$") as info:
        parse_graph("3 1\n0 0\n")
    assert info.value.line == 2
    with pytest.raises(ParseError, match="^line 3: edge 0 1 repeated$") as info:
        parse_graph("2 2\n0 1\n1 0\n")
    assert info.value.line == 3


def test_graph_round_trip():
    for seed in range(20):
        g = gen_random(2 + seed % 9, 0.4, seed)
        assert parse_graph(emit_graph(g)) == g


def test_emit_graph_lists_the_sorted_edge_set():
    # emit_graph walks the neighbour sets; the text must be the one the
    # sorted edge set gives
    for seed in range(60):
        g = gen_random(seed % 30, (0.1, 0.5, 0.9)[seed % 3], seed)
        want = [f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in sorted(g.edge_set())]
        assert emit_graph(g) == "\n".join(want) + "\n"


def test_certificate_round_trip():
    cert = Certificate(
        "NOT_EXISTS",
        "split-criterion",
        parts=(("x", (0, 3)), ("y", (1, 2))),
        reason="split-condition",
    )
    back = parse_certificate(emit_certificate(cert))
    assert back.verdict == "NOT_EXISTS" and back.method == "split-criterion"
    assert back.parts == cert.parts and back.reason == cert.reason
    tree = Certificate("EXISTS", "dense-min-degree", edges=es((0, 1), (0, 2)), verified=True)
    back = parse_certificate(emit_certificate(tree))
    assert back.edges == tree.edges


def test_parse_certificate_strips_comments():
    text = (
        "# written by hand\n"
        "EXISTS dense-min-degree  # header\n"
        "T 0 1 # first edge\n"
        "   # an indented comment line\n"
        "T 0 2#no space\n"
        "P left:0,1  # part\n"
        "R some-reason # why\n"
        "C 3 # count\n"
    )
    back = parse_certificate(text)
    assert (back.verdict, back.method) == ("EXISTS", "dense-min-degree")
    assert back.edges == es((0, 1), (0, 2))
    assert back.parts == (("left", (0, 1)),)
    assert back.reason == "some-reason" and back.count == 3
    with pytest.raises(ParseError) as info:
        parse_certificate("# only a comment\n")
    assert info.value.line == 1


def test_parse_certificate_takes_tabs_after_each_tag():
    # a body line's tag ends at any whitespace, as the header's verdict does
    texts = [
        emit_certificate(decide(parse_graph(K4))),  # T lines
        emit_certificate(decide(parse_graph(C4))),  # P and R lines
        emit_certificate(run_method(parse_graph(P6), "factor")),  # P, R and C lines
        emit_certificate(decide(parse_graph(P5))),  # R with an argument
    ]
    assert {line[0] for text in texts for line in text.splitlines()[1:]} == set("TPRC")
    for text in texts:
        header, body = text.split("\n", 1)
        tabbed = header + "\n" + body.replace(" ", "\t")
        assert parse_certificate(tabbed) == parse_certificate(text), tabbed
        # one CR may end each line
        assert parse_certificate(text.replace("\n", "\r\n")) == parse_certificate(text)


@pytest.mark.parametrize(
    "line",
    ["T 0 x", "T 0", "T 0 1 2", "T 1.5 2", "T 2 2", "P left:0,a", "P left:0;1", "C many", "C",
     # int() reads these, but a number is ASCII digits after at most a '-',
     # and a line ends at LF only
     "T \u0660 \u0661", "T +0 1", "T 0 1_0", "T \uff10 1", "P left:+0", "P left:0,\u0661",
     "C 1_0", "C \u0663", "T 0 1\x1cT 0 2", "T 0 1\u2028T 0 2", "C 1\x85C 2",
     # and fields are separated at spaces and tabs alone
     "T 0\xa01", "T 0\x1f1", "T\x0b0 1"],
)
def test_parse_certificate_non_integer_field(capsys, tmp_path, line):
    with pytest.raises(ParseError) as info:
        parse_certificate(f"EXISTS dense-min-degree\nT 0 1\n{line}\n")
    assert info.value.line == 3 and line[0] in str(info.value)
    graph = tmp_path / "k4.txt"
    graph.write_text(K4)
    cert = tmp_path / "cert.txt"
    cert.write_text(f"EXISTS dense-min-degree\n{line}\n", encoding="utf-8")
    assert main(["verify", str(graph), "--certificate", str(cert)]) == 65
    assert capsys.readouterr().err.startswith("error: line 2: ")


@pytest.mark.parametrize(
    "first, repeat",
    [("T 0 1", "T 0 1"), ("T 0 1", "T 1 0"), ("P left:0", "P left:1"), ("R a", "R b"),
     ("C 1", "C 2")],
)
def test_parse_certificate_refuses_a_repeated_line(first, repeat):
    with pytest.raises(ParseError) as info:
        parse_certificate(f"NOT_EXISTS bipartite-even-parts\n{first}\nT 2 3\n{repeat}\n")
    assert info.value.line == 4 and f"repeated {first[0]} line" in str(info.value)


def test_emit_refuses_unverified_exists():
    with pytest.raises(AssertionError):
        emit_certificate(Certificate("EXISTS", "dense-min-degree", edges=es((0, 1))))


# a witness that fails verification, for a dense construction patched to
# return a path; the last line exits with main's code
_WRONG_DENSE_WITNESS = """\
import sys
from oddspan import cli
cli.odd_spanning_tree_dense = lambda g: frozenset((v, v + 1) for v in range(g.n - 1))
try:
    cli.emit_certificate(cli.Certificate("EXISTS", "dense-min-degree"))
    print("emitted an unverified EXISTS")
except AssertionError:
    pass
sys.exit(cli.main(["construct", "--dense", sys.argv[1]]))
"""


# a partition certificate that fails verification: K6 in two halves, with
# a crossing count of 0 where there are 9
_WRONG_PACKING_CERTIFICATE = """\
import sys
from oddspan import cli, odd_factor
from oddspan.tree_packing import PackingOutcome, PartitionCertificate
halves = (frozenset({0, 1, 2}), frozenset({3, 4, 5}))
bad = PackingOutcome(cert=PartitionCertificate(parts=halves, cross_edges=0))
odd_factor.two_edge_disjoint_spanning_trees = lambda g: bad
sys.exit(cli.main(["construct", "--factor", sys.argv[1]]))
"""


def _run_optimized(script: str, tmp_path) -> subprocess.CompletedProcess:
    """Run script under ``python -O``, which strips assert statements, on K6."""
    graph = tmp_path / "k6.txt"
    graph.write_text(K6)
    src = str(Path(oddspan.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-O", "-c", script, str(graph)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )


def test_wrong_witness_is_refused_under_python_optimize(tmp_path):
    # both guards must survive ``python -O``
    done = _run_optimized(_WRONG_DENSE_WITNESS, tmp_path)
    assert done.returncode == 70, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("internal: constructed witness failed verification")


def test_wrong_packing_certificate_is_refused_under_python_optimize(tmp_path):
    done = _run_optimized(_WRONG_PACKING_CERTIFICATE, tmp_path)
    assert done.returncode == 70, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("internal: partition certificate failed verification")


def test_decide_matches_all_graphs_golden():
    # pinned at the commit before ``decide`` became the pipeline loop
    digest = hashlib.sha256()
    headers: Counter[str] = Counter()
    for n in range(1, 7):
        for g in all_graphs(n):
            out = emit_certificate(decide(g))
            digest.update(out.encode())
            headers[out.split("\n", 1)[0]] += 1
    lines = [f"sha256 {digest.hexdigest()}"] + [f"{h} {k}" for h, k in sorted(headers.items())]
    assert "\n".join(lines) + "\n" == golden("check", "decide-all-n6")


def test_double_star_matches_all_graphs_golden():
    # pinned before one exact rule replaced the three constructions, on the
    # inputs they answered: disconnected, or of diameter at least 4
    digest = hashlib.sha256()
    built = 0
    for n in (2, 4, 6):
        for g in all_graphs(n):
            if is_connected(g) and diameter(g) < 4:
                continue
            cert = run_method(g, "double-star")
            if cert.verdict == "EXISTS":
                digest.update(emit_certificate(cert).encode())
                built += 1
    lines = f"sha256 {digest.hexdigest()}\nEXISTS double-star {built}\n"
    assert lines == golden("construct", "double-star-all-n6")


def test_check_c4_matches_golden(capsys, tmp_path):
    code, out = run_cli(capsys, "check", stdin=C4)
    assert code == 1
    assert out == golden("check", "c4")


def test_check_is_deterministic(capsys):
    _, first = run_cli(capsys, "check", stdin=C4)
    _, second = run_cli(capsys, "check", stdin=C4)
    assert first == second


def test_check_k4_matches_golden(capsys):
    code, out = run_cli(capsys, "check", stdin=K4)
    assert code == 0
    assert out == golden("check", "k4")


def test_check_bridge_matches_golden(capsys):
    _, gtext = run_cli(capsys, "gen", "--family", "bridge-complete", "--s", "4", "--t", "4")
    code, out = run_cli(capsys, "check", stdin=gtext)
    assert code == 1
    assert out == golden("check", "bridge-k4-k4")


def test_check_odd_order(capsys):
    code, out = run_cli(capsys, "check", stdin="3 2\n0 1\n1 2\n")
    assert code == 1
    assert out.startswith("NOT_EXISTS odd-order")


def test_check_disconnected(capsys):
    code, out = run_cli(capsys, "check", stdin="4 2\n0 1\n2 3\n")
    assert code == 1
    assert out.startswith("NOT_EXISTS disconnected")


def test_check_forced_methods(capsys):
    code, out = run_cli(capsys, "construct", "--oracle", stdin=K4)
    assert code == 0 and out.splitlines()[0] == "EXISTS oracle-exhaustive"
    code, out = run_cli(capsys, "construct", "--dense", stdin=K6)
    assert code == 0 and out.splitlines()[0] == "EXISTS dense-min-degree"
    code, out = run_cli(capsys, "construct", "--split", stdin=K4)
    assert code == 0 and out.splitlines()[0] == "EXISTS split-criterion"
    code, out = run_cli(capsys, "construct", "--trifree", stdin=K4)
    assert code == 0 and out.splitlines()[0] == "EXISTS trifree-complement"
    code, _ = run_cli(capsys, "construct", "--split", stdin=C4)
    assert code == 65  # not a split graph


def test_construct_goldens(capsys):
    code, out = run_cli(capsys, "construct", "--dense", stdin=K6)
    assert code == 0 and out == golden("construct", "dense-k6")
    code, out = run_cli(capsys, "construct", "--double-star", stdin=P6)
    assert code == 0 and out == golden("construct", "double-star-p6")
    code, out = run_cli(capsys, "construct", "--factor", stdin=C4)
    assert code == 2 and out == golden("construct", "factor-c4-unknown")
    code, out = run_cli(capsys, "construct", "--factor", stdin=K6)
    assert code == 0 and out == golden("construct", "factor-k6")


def test_construct_factor_random_40_golden(capsys):
    # the first tree of gen_random(40, 0.5, 3) has four even-degree
    # vertices, and their join adds three second-tree edges
    _, host = run_cli(capsys, "gen", "--family", "random", "--n", "40", "--p", "0.5", "--seed", "3")
    code, out = run_cli(capsys, "construct", "--factor", stdin=host)
    assert code == 0 and out == golden("construct", "factor-random-40")


def test_construct_factor_random_16_golden(capsys):
    # gen_random(16, 0.8, 1) is 4-edge-connected; both forests of the
    # packing span after 36 of its 93 edges, so the packing stops early
    _, host = run_cli(capsys, "gen", "--family", "random", "--n", "16", "--p", "0.8", "--seed", "1")
    code, out = run_cli(capsys, "construct", "--factor", stdin=host)
    assert code == 0 and out == golden("construct", "factor-random-16")
    g = parse_graph(host)
    t0, t1 = two_edge_disjoint_spanning_trees(g).trees
    edges = sorted(g.edge_set())
    assert max(edges.index(e) for e in t0 | t1) == 35 and len(edges) == 93


def test_construct_trifree_goldens(capsys):
    for family, case in [
        ("4 2\n0 1\n2 3\n", "trifree-two-k2"),
        (None, "trifree-c5-of-2"),
        (None, "trifree-k24-minus-e"),
    ]:
        if case == "trifree-c5-of-2":
            _, fam = run_cli(capsys, "gen", "--family", "c5k", "--k", "2")
        elif case == "trifree-k24-minus-e":
            _, fam = run_cli(capsys, "gen", "--family", "cbme", "--s", "2", "--t", "4")
        else:
            fam = family
        _, host = run_cli(capsys, "complement", stdin=fam)
        code, out = run_cli(capsys, "construct", "--trifree", stdin=host)
        assert code == 1
        assert out == golden("construct", case)


def test_construct_split_on_star(capsys):
    code, out = run_cli(capsys, "construct", "--split", stdin="4 3\n0 1\n0 2\n0 3\n")
    assert code == 0
    assert out.splitlines()[0] == "EXISTS split-criterion"


def test_gen_goldens(capsys):
    code, out = run_cli(capsys, "gen", "--family", "bridge-complete", "--s", "4", "--t", "4")
    assert code == 0 and out == golden("gen", "bridge-complete-4-4")
    code, out = run_cli(capsys, "gen", "--family", "random", "--n", "8", "--p", "0.5", "--seed", "42")
    assert code == 0 and out == golden("gen", "random-8-05-42")


def test_info_golden(capsys):
    _, gtext = run_cli(capsys, "gen", "--family", "bridge-complete", "--s", "4", "--t", "4")
    code, out = run_cli(capsys, "info", stdin=gtext)
    assert code == 0 and out == golden("info", "bridge-k4-k4")


def test_info_on_a_path_stays_near_linear(capsys):
    # a tree's diameter takes two sweeps and its λ one BFS; one walk per
    # source and one flow per sink made four times the path cost about
    # sixteen times the line events
    fns = [cli._cmd_info, diameter, graph_core.edge_connectivity, graph_core.bfs_distances,
           graph_core._max_flow_unit, graph_core._flow_sinks]

    def work(n):
        text = emit_graph(Graph(n, [(v, v + 1) for v in range(n - 1)]))
        runs = []
        events = line_events(fns, lambda: runs.append(run_cli(capsys, "info", stdin=text)))
        [(code, out)] = runs
        assert code == 0 and f"edge-connectivity 1\ndiameter {n - 1}\n" in out
        return events

    small, large = work(500), work(2000)
    assert large <= 5 * small, (small, large)


def test_info_on_one_and_zero_vertices(capsys, tmp_path):
    code, out = run_cli(capsys, "info", stdin="1 0\n")
    assert code == 0
    assert out.splitlines()[3:6] == ["connected true", "edge-connectivity 0", "diameter 0"]
    empty = tmp_path / "empty.txt"
    empty.write_text("0 0\n")
    assert main(["info", str(empty)]) == 65
    with pytest.raises(EmptyGraph) as info:
        graph_core.is_connected(Graph(0))
    assert capsys.readouterr() == ("", f"error: {info.value}\n")


def test_decide_runs_no_connectivity_test_of_its_own(capsys, monkeypatch):
    calls = []
    real = graph_core.is_connected

    def counting(g):
        calls.append(g)
        return real(g)

    # patch every binding, as ``from .graph_core import is_connected`` copies it
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name.startswith("oddspan") and getattr(mod, "is_connected", None) is real:
            monkeypatch.setattr(mod, "is_connected", counting)
    _, bridge = run_cli(capsys, "gen", "--family", "bridge-complete", "--s", "4", "--t", "4")
    for text in (C4, bridge):
        assert decide(parse_graph(text)).verdict == "NOT_EXISTS"
    assert calls == []
    # the split method past the screen does test connectivity, so the
    # counter is live
    assert decide(parse_graph(K4)).verdict == "EXISTS" and calls


def test_complement_round_trip(capsys):
    _, once = run_cli(capsys, "complement", stdin=C4)
    _, twice = run_cli(capsys, "complement", stdin=once)
    assert parse_graph(twice) == parse_graph(C4)
    assert parse_graph(once) == Graph(4, [(0, 2), (1, 3)])


def _verify(capsys, tmp_path, graph_text: str, cert_text: str, *flags: str):
    graph = tmp_path / "graph.txt"
    graph.write_text(graph_text)
    cert = tmp_path / "cert.txt"
    cert.write_text(cert_text)
    code = main(["verify", str(graph), "--certificate", str(cert), *flags])
    return code, capsys.readouterr()


def test_verify_subcommand(capsys, tmp_path):
    _, out = run_cli(capsys, "check", stdin=K4)
    code, (vout, _) = _verify(capsys, tmp_path, K4, out)
    assert code == 0 and vout == "OK\n"
    code, (vout, _) = _verify(capsys, tmp_path, C4, out)
    assert code == 1 and vout.startswith("FAIL not-subgraph")

    _, fout = run_cli(capsys, "construct", "--factor", stdin=K6)
    code, (vout, _) = _verify(capsys, tmp_path, K6, fout)
    assert code == 0 and vout == "OK\n"
    # a NOT_EXISTS certificate re-checks as well, against its own graph only
    _, nout = run_cli(capsys, "check", stdin=C4)
    code, (vout, _) = _verify(capsys, tmp_path, C4, nout)
    assert code == 0 and vout == "OK\n"
    code, (vout, _) = _verify(capsys, tmp_path, K4, nout)
    assert code == 1 and vout == "FAIL witness-rejected\n"
    # the certificate's header says what it claims, so there is no flag to pick a check
    for flag in ("--tree", "--factor"):
        assert _verify(capsys, tmp_path, K4, out, flag)[0] == 64


@pytest.mark.parametrize("eol", ["\r\n", "\r"])
def test_a_file_and_stdin_read_the_same_bytes(capsys, tmp_path, eol):
    # a file is opened without newline translation, so CR and CRLF reach
    # the readers exactly as they do through stdin
    graph_text = f"2 1{eol}0 1{eol}"
    cert_text = f"EXISTS split-criterion{eol}T 0 1{eol}"
    graph, cert = tmp_path / "graph.txt", tmp_path / "cert.txt"
    graph.write_bytes(graph_text.encode())
    cert.write_bytes(cert_text.encode())

    def run(argv, stdin=""):
        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            code = main(argv)
        finally:
            sys.stdin = old
        return (code, *capsys.readouterr())

    assert run(["check", str(graph)]) == run(["check", "-"], graph_text)
    by_path = run(["verify", str(graph), "--certificate", str(cert)])
    assert by_path == run(["verify", "-", "--certificate", str(cert)], graph_text)
    assert by_path == run(["verify", str(graph), "--certificate", "-"], cert_text)


def test_verify_checks_a_double_star_in_the_complement(capsys, tmp_path):
    _, out = run_cli(capsys, "construct", "--double-star", stdin=P6)
    assert _verify(capsys, tmp_path, P6, out)[0] == 0
    complement_p6 = emit_graph(complement(parse_graph(P6)))
    code, (vout, _) = _verify(capsys, tmp_path, complement_p6, out)
    assert code == 1 and vout.startswith("FAIL not-subgraph")


def _seeded_graphs():
    for n in range(7, 13):
        for p in (0.3, 0.5, 0.7):
            for seed in range(30):
                yield gen_random(n, p, seed)


def test_every_decide_answer_rechecks(capsys, tmp_path):
    # every graph with n <= 6 plus seeded n = 7..12 reach all twelve
    # verdict/method pairs that decide emits
    first: dict[tuple[str, str], tuple[Graph, str]] = {}
    for g in [*_graphs_up_to(6), *_seeded_graphs()]:
        if g.n == 0:
            continue
        out = emit_certificate(decide(g))
        cert = parse_certificate(out)
        assert cli.recheck(g, cert) is None, out
        if g.n <= 10:
            # within the oracle's reach, decide answers and agrees with it
            found = is_connected(g) and find_odd_spanning_tree_bruteforce(g) is not None
            assert cert.verdict == ("EXISTS" if found else "NOT_EXISTS"), out
        first.setdefault((cert.verdict, cert.method), (g, out))
    assert len(first) == 12
    # one of each kind through the verify subcommand
    for g, out in first.values():
        assert _verify(capsys, tmp_path, emit_graph(g), out) == (0, ("OK\n", "")), out


@pytest.mark.parametrize("method", [m for m in cli.METHODS if m != "parity"])
def test_every_construct_answer_rechecks(in_process, method):
    answered = 0
    for g in [*_graphs_up_to(5), *_seeded_graphs()]:
        code, out = in_process(("construct", f"--{method}"), g)
        if isinstance(code, str):
            continue  # a typed error: g is outside the method's scope
        assert cli.recheck(g, parse_certificate(out)) is None, (method, out)
        answered += 1
    assert answered > 0


def _drop_t_edge(text):
    return text.replace(next(ln for ln in text.splitlines(True) if ln.startswith("T ")), "", 1)


def _move_p_vertex(text):
    # the first part's last vertex moves to the next part
    lines = text.splitlines()
    i = next(k for k, ln in enumerate(lines) if ln.startswith("P "))
    name, _, csv = lines[i].partition(":")
    *rest, v = csv.split(",")
    lines[i] = name + ":" + ",".join(rest)
    lines[i + 1] += "," + v
    return "\n".join(lines) + "\n"


def _delete_p_part(text):
    return text.replace(next(ln for ln in text.splitlines(True) if ln.startswith("P ")), "", 1)


def _replace_text(old, new):
    return lambda text: text.replace(old, new)


def _swap_method(new):
    return lambda text: text.split(" ", 1)[0] + f" {new}\n" + text.split("\n", 1)[1]


def _append_line(line):
    return lambda text: text + line + "\n"


def _replace_by(new):
    return lambda text: new


# C4's own certificate with a decoy ahead of its left part and of its R
# line, and two C lines; before repeats were refused, verify printed OK
_C4_REPEATS = """\
NOT_EXISTS bipartite-even-parts
P left:1,2
P left:0,2
P right:1,3
R bipartite-even-parts 9 9
R bipartite-even-parts 2 2
C 5
C 2
"""


_BRIDGE_K4_K4 = emit_graph(
    Graph(8, [(u, v) for u in range(4) for v in range(u + 1, 4)]
          + [(u, v) for u in range(4, 8) for v in range(u + 1, 8)] + [(3, 4)])
)

# (graph, argv that answers for it, mutation, exit code, stdout)
_MUTATIONS = [
    (K4, ("check",), _drop_t_edge, 1, "FAIL wrong-edge-count\n"),
    (C4, ("check",), _move_p_vertex, 1, "FAIL witness-rejected\n"),
    (C4, ("check",), _delete_p_part, 65, ""),
    (C4, ("construct", "--factor"), _move_p_vertex, 1, "FAIL partition-rejected\n"),
    (C4, ("construct", "--factor"), _delete_p_part, 1, "FAIL partition-rejected\n"),
    (_BRIDGE_K4_K4, ("check",), _replace_text("sides 3 4", "sides 3 x"), 65, ""),
    # R numbers are ASCII digits, as T numbers are
    *((_BRIDGE_K4_K4, ("check",), _replace_text("sides 3 4", f"sides 3 {v}"), 65, "")
      for v in ("+4", "\u0664", "0_4")),
    # R words that no check read: the kind word, and the part sizes
    (_BRIDGE_K4_K4, ("check",), _replace_text("R bridge-even-sides", "R nonsense"), 1,
     "FAIL witness-rejected\n"),
    (C4, ("check",), _replace_text("R bipartite-even-parts 2 2", "R bipartite-even-parts 7 9"),
     1, "FAIL witness-rejected\n"),
    (K4, ("check",), _swap_method("double-star"), 1, "FAIL not-subgraph\n"),
    (C4, ("check",), _swap_method("split-criterion"), 65, ""),
    (_BRIDGE_K4_K4, ("check",), _swap_method("trifree-complement"), 65, ""),
    (C4, ("construct", "--factor"), _swap_method("oracle-capped"), 1, "FAIL within-size-cap\n"),
    (C4, ("check",), _swap_method("no-such-method"), 65, ""),
    (K4, ("check",), _swap_method("no-such-method"), 65, ""),
    # the complement of a path on six vertices has a spanning odd double star
    (P6, ("check",), _swap_method("no-double-star"), 1, "FAIL double-star-found\n"),
    (C4, ("check",), _replace_by(_C4_REPEATS), 65, ""),
    # the star at 3 with one edge written twice, the second time reversed
    (K4, ("check",), _append_line("T 3 2"), 65, ""),
    # past each kind's own check: a line its method never writes ...
    *((K4, ("check",), _append_line(ln), 1, "FAIL witness-rejected\n")
      for ln in ("R junk 9", "C 7", "P x:1")),
    *((C4, ("check",), _append_line(ln), 1, "FAIL witness-rejected\n")
      for ln in ("T 0 1", "C 3", "P junk:0")),
    (P5, ("check",), _append_line("T 0 1"), 1, "FAIL witness-rejected\n"),
    # ... and an R line other than the one it writes, or none
    (P5, ("check",), _replace_text("R odd-order 5", "R odd-order 7"), 1,
     "FAIL witness-rejected\n"),
    (C4, ("construct", "--factor"), _replace_text("R no-tree-packing", "R nonsense"), 1,
     "FAIL witness-rejected\n"),
    ("4 2\n0 1\n2 3\n", ("check",), _replace_text("R disconnected\n", ""), 1,
     "FAIL witness-rejected\n"),
    # the oracle answers a disconnected graph as disconnected, never by its search
    ("4 2\n0 1\n2 3\n", ("check",), _swap_method("oracle-exhaustive"), 1, "FAIL disconnected\n"),
    # an odd tree of the complement, but a star: the second centre's leaves moved onto 0
    ("6 0\n", ("construct", "--double-star"), _replace_text("T 1 4\nT 1 5\n", "T 0 4\nT 0 5\n"),
     1, "FAIL not-a-double-star\n"),
]


@pytest.mark.parametrize("case", range(len(_MUTATIONS)))
def test_mutated_certificate_fails_or_is_refused(capsys, tmp_path, case):
    graph, argv, mutate, want_code, want_out = _MUTATIONS[case]
    _, out = run_cli(capsys, *argv, stdin=graph)
    mutated = mutate(out)
    assert mutated != out
    code, (vout, err) = _verify(capsys, tmp_path, graph, mutated)
    assert (code, vout) == (want_code, want_out), mutated
    assert err.startswith("error: ") if code == 65 else err == ""


def test_seeded_certificate_mutations_never_end_in_a_traceback(capsys, tmp_path):
    rng = random.Random(14)
    mutations = [_drop_t_edge, _move_p_vertex, _delete_p_part, _swap_method]
    methods = ["dense-min-degree", "double-star", "parity-repair-factor", "bipartite-even-parts",
               "bridge-even-sides", "split-criterion", "trifree-complement", "oracle-exhaustive",
               "tree-packing", "oracle-capped", "disconnected", "odd-order", "no-double-star"]
    codes: Counter[int] = Counter()
    for g in _seeded_graphs():
        for argv in (("check",), ("construct", "--factor")):
            text = emit_graph(g)
            _, out = run_cli(capsys, *argv, stdin=text)
            mutate = rng.choice(mutations)
            if mutate is _swap_method:
                mutate = _swap_method(rng.choice(methods))
            try:
                mutated = mutate(out)
            except StopIteration:
                continue  # no line of the kind this mutation changes
            # an error other than a typed one would propagate out of main
            code, _ = _verify(capsys, tmp_path, text, mutated)
            assert code in (0, 1, 65), mutated
            codes[code] += 1
    assert codes[1] and codes[65]


def _mutate_graph_text(rng: random.Random, text: str) -> str:
    """One random edit of an emitted graph; no token it writes exceeds 2n."""
    lines = text.splitlines()
    n = int(lines[0].split()[0])
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    edit = rng.randrange(5)
    if edit == 0:
        del lines[i]
    elif edit == 1:
        lines.insert(i, lines[i])
    elif edit == 2:
        lines[i], lines[j] = lines[j], lines[i]
    elif edit == 3:
        tokens = lines[i].split()
        bad = ["-1", "x", "1.5", str(rng.randrange(n, 2 * n + 1))]  # the last is out of range
        tokens[rng.randrange(len(tokens))] = rng.choice(bad)
        lines[i] = " ".join(tokens)
    else:
        lines.insert(i, " ".join(str(rng.randrange(n)) for _ in range(3)))
    return rng.choice(["\n", "\r\n"]).join(lines) + "\n"


def test_seeded_graph_text_mutations_never_end_in_a_traceback(capsys, monkeypatch):
    rng = random.Random(18)
    commands = [("check",), ("construct", "--factor"), ("construct", "--double-star"), ("info",),
                ("complement",)]
    codes: Counter[int] = Counter()
    for _ in range(500):
        g = gen_random(rng.randint(1, 10), rng.random(), rng.randrange(100))
        text = _mutate_graph_text(rng, emit_graph(g))
        for argv in commands:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            code = main(list(argv))
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 65), (argv, text)
            assert err.startswith("error: ") if code == 65 else err == "", (argv, text)
            codes[code] += 1
    assert codes.keys() == {0, 1, 2, 65}


# A frozen copy of the reader as it was when it checked every line first
# and then built the graph from an edge list.  The one-pass reader must
# give the same graph, or the same error on the same line, on every text
# but those in ``_STRICTER``.


def _frozen_parse_graph(text):
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body.split()))
    if not rows:
        raise ParseError(1, "missing 'n m' header")
    lineno, head = rows[0]
    if len(head) != 2:
        raise ParseError(lineno, "header must be two integers 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(lineno, "header must be two integers 'n m'") from None
    if n < 0 or m < 0:
        raise ParseError(lineno, "negative count in header")
    if len(rows) - 1 != m:
        raise ParseError(lineno, f"header promises {m} edges, found {len(rows) - 1}")
    seen = set()
    edges = []
    for lineno, parts in rows[1:]:
        if len(parts) != 2:
            raise ParseError(lineno, "edge line must be two integers 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(lineno, "edge line must be two integers 'u v'") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(lineno, f"vertex id out of range 0..{n - 1}")
        if u == v:
            raise ParseError(lineno, f"self loop at {u}")
        e = graph_core.edge(u, v)
        if e in seen:
            raise ParseError(lineno, f"edge {e[0]} {e[1]} repeated")
        seen.add(e)
        edges.append(e)
    return Graph(n, edges)


def _parse_outcome(parse, text):
    try:
        g = parse(text)
    except ParseError as exc:
        return "error", exc.line, str(exc)
    return "graph", g.n, g.adj


# Whitespace that str.split() and str.strip() both drop, line breaks that
# only str.splitlines() knows, int() spellings beyond ASCII digits, and
# comments anywhere.
_ODD_TEXTS = [
    "", "\n", "   \n\t\n", "# only a comment\n", "#\n#\n", "2 1 #\n0 1#x\n",
    "2\t1\n0\t1\n", "2\x0b1\n0 1\n", "2 1\x0b0 1\n", "2 1\x1c0 1\n", "2 1\x1c\x1c0 1\n",
    "2 1\x85 0 1\n", "2 1\u20280 1\u2029", "2\xa01\n0\u30001\n", "\x1f2 1\x1e\n0 1\n",
    "\x0c2 1\r\n0 1\r\n", "\r\n2 1\r\r\n0 1\n", "+2 1\n0 +1\n", "1_0 1\n0 9\n",
    "\u0662 \u0661\n\u0660 \u0661\n", "\uff12 1\n0 1\n", "2 1\n0 1 # 0 1\n",
    "2 1\n# 0 1\n0 1\n", "3 2\n0 1 #\n1 0\n", "2 1\n0 1 1\n", "2 1\n0\n",
    "2 1 1\n0 1\n", "2\n", "2 x\n", "-0 0\n", "2 -1\n", "1 0\n# 0 0\n",
    "2 1\n0 +1\n", "2 1\n0 \u0661\n", "2 1\n0 1_0\n", "3 2\n0 1\x0c1 2\n", "2 1\r0 1\n",
    "2 1 # \uff12 +1_0\n0 1 # \u0661\n", "2 1 # \x0b\x1f\xa0\r\r\n0 1\n", "2 1\n-0 1\n",
    "2 1\n0 -1\n", "2 1\n0\r1\n",
    # plain texts, in the shape emit_graph writes, that the bulk reader
    # must refuse or read as the line reader does
    "3 1\n1 1\n", "2 2\n0 1\n1 0\n", "2 1\n0 2\n", "3 2\n0 1\n", "2 1\n0 " + "1" * 5000 + "\n",
    "02 1\n00 01\n", "2 1\n0 1",
]

# The texts whose outcome differs from the frozen reader's on purpose: a
# line ends at LF only, fields are separated at spaces and tabs, and a
# number is ASCII digits after at most one '-'.  Each maps to its error
# (line, text).
_HEADER_ERROR = (1, "header must be two integers 'n m'")
_STRICTER = {
    # fields are separated at spaces and tabs alone, and one CR may end a
    # line; "2\x0b1\n0 1\n" is a header error again, as it was when the
    # vertical tab ended a line
    "2\xa01\n0\u30001\n": _HEADER_ERROR, "\x1f2 1\x1e\n0 1\n": _HEADER_ERROR,
    "\x0c2 1\r\n0 1\r\n": _HEADER_ERROR,
    "\r\n2 1\r\r\n0 1\n": (2, "header must be two integers 'n m'"),
    "2 1\n0\r1\n": (2, "edge line must be two integers 'u v'"),
    "2 1\x0b0 1\n": _HEADER_ERROR, "2 1\x1c0 1\n": _HEADER_ERROR,
    "2 1\x1c\x1c0 1\n": _HEADER_ERROR, "2 1\x85 0 1\n": _HEADER_ERROR,
    "2 1\u20280 1\u2029": _HEADER_ERROR, "+2 1\n0 +1\n": _HEADER_ERROR,
    "1_0 1\n0 9\n": _HEADER_ERROR, "\u0662 \u0661\n\u0660 \u0661\n": _HEADER_ERROR,
    "\uff12 1\n0 1\n": _HEADER_ERROR, "2 1\r0 1\n": _HEADER_ERROR,
    "2 1\n0 +1\n": (2, "edge line must be two integers 'u v'"),
    "2 1\n0 \u0661\n": (2, "edge line must be two integers 'u v'"),
    "2 1\n0 1_0\n": (2, "edge line must be two integers 'u v'"),
    "3 2\n0 1\x0c1 2\n": (1, "header promises 2 edges, found 1"),
}


def _stricter_outcome(text):
    line, message = _STRICTER[text]
    return "error", line, f"line {line}: {message}"


def test_parse_graph_matches_the_frozen_reader():
    rng = random.Random(22)
    texts = list(_ODD_TEXTS)
    for _ in range(3000):
        g = gen_random(rng.randint(1, 10), rng.random(), rng.randrange(100))
        texts.append(_mutate_graph_text(rng, emit_graph(g)))
    kinds = Counter()
    for text in texts:
        want = _parse_outcome(_frozen_parse_graph, text)
        if text in _STRICTER:
            now = _stricter_outcome(text)
            assert now != want, text
            want = now
        assert _parse_outcome(parse_graph, text) == want, text
        kinds[want[0]] += 1
    assert set(_STRICTER) <= set(_ODD_TEXTS)
    assert kinds["graph"] > 500 and kinds["error"] > 1500


def test_parse_graph_never_calls_graph_init(monkeypatch):
    calls = []
    init = Graph.__init__

    def spy(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    texts = [C4, P6, K4, K6, "0 0\n", "1 0\n", emit_graph(gen_random(40, 0.5, 3))]
    want = [_frozen_parse_graph(text) for text in texts]
    monkeypatch.setattr(Graph, "__init__", spy)
    assert [parse_graph(text) for text in texts] == want
    assert calls == []


def test_parse_graph_bounds_the_vertex_count():
    assert parse_graph(f"{cli._MAX_VERTICES} 1\n0 1\n").n == cli._MAX_VERTICES
    with pytest.raises(ParseError, match=f"^line 2: vertex count {cli._MAX_VERTICES + 1} above"):
        parse_graph(f"# big\n{cli._MAX_VERTICES + 1} 0\n")
    # a plain text, refused by the bulk reader's own check; it is not in
    # _ODD_TEXTS because the frozen reader predates the bound
    with pytest.raises(ParseError, match=f"^line 1: vertex count {cli._MAX_VERTICES + 1} above"):
        parse_graph(f"{cli._MAX_VERTICES + 1} 0\n")


def test_only_texts_off_the_plain_shape_reach_the_line_reader(monkeypatch):
    seen = []
    lines = cli._parse_graph_lines

    def spy(text):
        seen.append(text)
        return lines(text)

    monkeypatch.setattr(cli, "_parse_graph_lines", spy)
    emitted = [emit_graph(gen_random(n, p, n)) for n in range(12) for p in (0.2, 0.6, 1.0)]
    emitted += [emit_graph(gen_random(1100, 0.01, 1)), "0 0", "2 1\n0 1"]
    for text in emitted:
        assert parse_graph(text) == lines(text)
    assert seen == []
    others = ["# c4\n" + C4, C4.replace("\n", "\r\n"), C4.replace(" ", "\t"),
              C4.replace("\n", "\n\n", 1), " " + C4, C4.replace("\n", " \n")]
    for text in others:
        assert parse_graph(text) == parse_graph(C4)
    assert seen == others


def test_reader_work_stays_linear():
    # four times the edges costs four times the line events, on the bulk
    # path and on the line reader alike
    fns = [parse_graph, cli._parse_plain, cli._parse_graph_lines, cli._text_reader,
           cli._fields, cli._ascii_int]

    def work(n, eol):
        text = emit_graph(Graph(n, [(v, v + 1) for v in range(n - 1)])).replace("\n", eol)
        return line_events(fns, lambda: parse_graph(text))

    for eol in ("\n", "\r\n"):
        small, large = work(1000, eol), work(4000, eol)
        assert large <= 5 * small, (eol, small, large)


def test_exit_codes_for_bad_input(capsys, monkeypatch, tmp_path):
    # complement, construct --double-star and verify of a double-star
    # certificate refuse an input whose complement has more than 2,000,000
    # edges, before the complement or the distance table is built
    monkeypatch.setattr(cli, "complement", lambda g: pytest.fail("complement built"))
    monkeypatch.setattr(cli, "double_star_in_complement", lambda g: pytest.fail("table built"))
    exists, none = tmp_path / "exists.cert", tmp_path / "none.cert"
    exists.write_text("EXISTS double-star\nT 0 1\n")
    none.write_text("NOT_EXISTS no-double-star\nR no-double-star\n")
    maybe, split = tmp_path / "maybe.cert", tmp_path / "split.cert"
    maybe.write_text("MAYBE x\n")
    split.write_text("NOT_EXISTS split-criterion\nP x:0\nP y:1,2,3\n")
    too_many = "error: the complement would have {} edges, above the limit 2000000"
    cases = [
        (("check",), "3 1\n0 0\n", "error: line 2: self loop at 0"),
        (("check",), "2 2\n0 1\n1 0\n", "error: line 3: edge 0 1 repeated"),
        (("check",), "x\n", "error: line 1: header must be two integers 'n m'"),
        (("check",), "50000000 0\n", "error: line 1: vertex count 50000000 above the limit 100000"),
        (("check",), "0 0\n", "error: no vertices"),
        (("construct", "--dense"), "4 3\n0 1\n0 2\n0 3\n",
         "error: minimum degree 1 below required bound 3"),
        (("construct", "--split"), C4, "error: input is not a split graph"),
        (("construct", "--trifree"), P6, "error: complement of input must be triangle-free"),
        (("construct", "--dense"), P6, "error: minimum degree 1 below required bound 4"),
        (("check", "/nonexistent/file.txt"), None,
         "error: [Errno 2] No such file or directory: '/nonexistent/file.txt'"),
        (("complement",), "2001 0\n", too_many.format(2001000)),
        (("complement",), "2001 1\n0 1\n", too_many.format(2000999)),
        (("construct", "--double-star"), "3000 0\n", too_many.format(4498500)),
        (("verify", "--certificate", str(exists)), "3000 0\n", too_many.format(4498500)),
        (("verify", "--certificate", str(none)), "2002 0\n", too_many.format(2003001)),
        (("verify", "--certificate", str(maybe)), K4,
         "error: line 1: expected 'VERDICT method' header"),
        # a star: the split check reads y = {1, 2, 3}, which holds no edge
        (("verify", "--certificate", str(split)), "4 3\n0 1\n0 2\n0 3\n",
         "error: y side is not a clique at vertex 1"),
    ]
    for argv, stdin, err in cases:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin or "")
        try:
            code = main(list(argv))
        finally:
            sys.stdin = old
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (65, "", err + "\n"), argv
    # a bad flag value is a usage error: gen reads no input data
    for argv, err in [
        (("cbme", "--s", "3", "--t", "2"), "part sizes must be even and >= 2, got (3, 2)"),
        (("random", "--n", "-1"), "vertex count must be nonnegative, got -1"),
        (("random", "--n", "4", "--p", "2"), "p must be in [0, 1], got 2.0"),
        (("complete", "--n", "0"), "complete graph needs n >= 1"),
        (("c5k", "--k", "0"), "blowup size must be >= 1"),
        (("random-split", "--s", "-1", "--t", "2"), "need s >= 0 and t >= 1, got (-1, 2)"),
        (("random-split", "--s", "1", "--t", "2", "--p", "2"), "p must be in [0, 1], got 2.0"),
    ]:
        assert main(["gen", "--family", *argv]) == 64, argv
        assert capsys.readouterr() == ("", f"oddspan gen: error: {err}\n"), argv
    # gen refuses an order that parse_graph would refuse, before it builds anything
    for name in dir(cli):
        if name.startswith("gen_"):
            monkeypatch.setattr(cli, name, lambda *a: pytest.fail("gen built a graph"))
    limit = cli._MAX_VERTICES
    for argv, n in [
        (("random", "--n", str(limit + 1)), limit + 1),
        (("bridge-complete", "--s", str(limit), "--t", "1"), limit + 1),
        (("random-split", "--s", str(10**12), "--t", "-5"), 10**12),
        (("c5k", "--k", str(limit - 3)), limit + 1),
    ]:
        assert main(["gen", "--family", *argv]) == 64, argv
        err = f"oddspan gen: error: family {argv[0]} would have {n} vertices, above the limit {limit}"
        assert capsys.readouterr() == ("", err + "\n"), argv
    # and a family whose flags fix more edges than gen builds, or for the
    # seeded families more in expectation
    limit = cli._MAX_EDGES
    for argv, m in [
        (("complete", "--n", "2001"), "2001000"),
        (("complete-bipartite", "--s", "1000", "--t", "2001"), "2001000"),
        (("cbme", "--s", "1000", "--t", "2002"), "2001999"),
        (("bridge-complete", "--s", "2000", "--t", "64"), "2001017"),
        (("random-split", "--s", "0", "--t", "2001"), "about 2001000"),
        (("random-split", "--s", "4000", "--t", "1000", "--p", "0.4"), "about 2099500"),
        (("random", "--n", "100000", "--p", "0.001"), "about 4999950"),
        (("random", "--n", "3000", "--p", "7"), "about 4498500"),
    ]:
        assert main(["gen", "--family", *argv]) == 64, argv
        err = f"oddspan gen: error: family {argv[0]} would have {m} edges, above the limit {limit}"
        assert capsys.readouterr() == ("", err + "\n"), argv
    # a seeded family draws one output per pair whatever p is, so its pairs
    # are bounded too: its edges at p = 1
    limit = cli._MAX_DRAWS
    for argv, pairs in [
        (("random", "--n", "100000", "--p", "0"), 4999950000),
        (("random", "--n", "10001", "--p", "0.001"), 50005000),
        (("random-split", "--s", "79689", "--t", "625", "--p", "0"), 50000625),
    ]:
        assert main(["gen", "--family", *argv]) == 64, argv
        err = (f"oddspan gen: error: family {argv[0]} would have {pairs} possible edges, "
               f"above the limit {limit}")
        assert capsys.readouterr() == ("", err + "\n"), argv
    # the bounds are inclusive, and the README's sparse G(10^4, 0.001) is inside both
    built = []
    monkeypatch.setattr(cli, "gen_complete_bipartite", lambda *a: built.append(a) or Graph(1))
    monkeypatch.setattr(cli, "gen_random", lambda *a: built.append(a) or Graph(1))
    monkeypatch.setattr(cli, "gen_random_split", lambda *a: built.append(a) or (Graph(1), None))
    assert main(["gen", "--family", "complete-bipartite", "--s", "1000", "--t", "2000"]) == 0
    assert main(["gen", "--family", "random", "--n", "10000", "--p", "0.001"]) == 0
    assert main(["gen", "--family", "random-split", "--s", "79688", "--t", "625", "--p", "0"]) == 0
    assert built == [(1000, 2000), (10000, 0.001, 0), (79688, 625, 0.0, 0)]
    capsys.readouterr()
    # and at the complement bound, the complement and the table are built
    built.clear()
    monkeypatch.setattr(cli, "complement", lambda g: built.append(g.n) or Graph(1))
    monkeypatch.setattr(cli, "double_star_in_complement", lambda g: built.append(g.n))
    star = "".join(f"0 {v}\n" for v in range(1, 1001))
    assert run_cli(capsys, "complement", stdin=f"2001 1000\n{star}") == (0, "1 0\n")
    assert run_cli(capsys, "construct", "--double-star", stdin="2000 0\n")[0] == 1
    assert run_cli(capsys, "verify", "--certificate", str(none), stdin="2000 0\n") == (0, "OK\n")
    assert built == [2001, 2000, 2000]


def test_construct_double_star_on_disconnected_input(capsys):
    # the complement of three disjoint edges is the octahedron
    code, out = run_cli(capsys, "construct", "--double-star", stdin="6 3\n0 1\n2 3\n4 5\n")
    assert code == 0
    assert out == "EXISTS double-star\nT 0 2\nT 0 3\nT 0 4\nT 1 2\nT 2 5\n"
    # K1 plus a triangle: four vertices are too few for two centres of odd degree
    code, out = run_cli(capsys, "construct", "--double-star", stdin="4 3\n1 2\n1 3\n2 3\n")
    assert (code, out) == (1, "NOT_EXISTS no-double-star\nR no-double-star\n")


def test_construct_double_star_below_diameter_four(capsys):
    code, out = run_cli(capsys, "construct", "--double-star", stdin=K4)
    assert (code, out) == (1, "NOT_EXISTS no-double-star\nR no-double-star\n")
    # C6 has diameter 3; its centres 0 and 3 are opposite each other
    code, out = run_cli(capsys, "construct", "--double-star", stdin=emit_graph(cycle(6)))
    assert code == 0
    assert out == "EXISTS double-star\nT 0 2\nT 0 3\nT 0 4\nT 1 3\nT 3 5\n"


@pytest.mark.parametrize("text", ["1 0\n", "3 3\n0 1\n1 2\n0 2\n",
                                  emit_graph(Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)]))])
def test_construct_factor_answers_odd_order_before_strict(capsys, text):
    code, out = run_cli(capsys, "construct", "--factor", stdin=text)
    assert code == 1 and out.startswith("NOT_EXISTS odd-order\n")


def test_exit_codes_for_usage(capsys):
    assert main(["gen", "--family", "complete"]) == 64
    assert main(["bogus"]) == 64
    assert main(["construct"]) == 64  # missing method flag
    assert main(["check", "--odd-spanning-tree"]) == 64  # a retired no-op
    # one selector: construct runs a single method, and check only decides
    assert main(["check", "--method", "split"]) == 64
    assert main(["construct", "--factor", "--strict"]) == 64
    assert main(["construct", "--factor", "--dense"]) == 64
    assert main([]) == 64
    capsys.readouterr()
    # argparse's own report: the usage, then the error line
    assert main(["check", "--bogus"]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage: oddspan [-h]")
    assert err.endswith("\noddspan: error: unrecognized arguments: --bogus\n")
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["construct", "--help"]) == 0
    usage = capsys.readouterr().out
    for name in cli.METHODS:
        assert (f"--{name}" in usage) == (name != "parity"), name


# golden name -> sweep flags; the trifree settings reach every coverage line,
# and packing-n5, factor-cap10, split-n5-cap100 and bipartition-n5-cap40 are
# those universes at the settings of the bench's sweep workload
SWEEP_GOLDENS = {
    "split-n4-cap5": "--split --n 4 --cap 5",
    "dense-n4-cap5": "--dense --n 4 --cap 5",
    "trifree-n4-cap8": "--trifree --n 4 --cap 8",
    "packing-n4": "--packing --n 4",
    "packing-n5": "--packing --n 5",
    "factor-cap2": "--factor --cap 2",
    "factor-cap10": "--factor --cap 10",
    "bipartition-n4-cap5": "--bipartition --n 4 --cap 5",
    "split-n5-cap100": "--split --n 5 --cap 100",
    "bipartition-n5-cap40": "--bipartition --n 5 --cap 40",
}


@pytest.mark.parametrize("case", list(SWEEP_GOLDENS))
def test_sweep_golden(capsys, monkeypatch, case):
    monkeypatch.setenv("ODD_SPAN_THREADS", "1")
    code, out = run_cli(capsys, "sweep", *SWEEP_GOLDENS[case].split())
    assert code == 0
    assert out == golden("sweep", case)


def test_sweep_failures_are_reported_and_counted(monkeypatch):
    # one kind of disagreement per block, from a cli binding broken on one
    # graph; a case that still has an answer counts its verdict
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    on_k4 = f"on n=4 edges={tuple(sorted(k4.edge_set()))}"
    real_dense, real_split = cli.odd_spanning_tree_dense, cli.split_odd_spanning_tree

    with monkeypatch.context() as m:  # a bad EXISTS witness
        m.setattr(cli, "odd_spanning_tree_dense",
                  lambda g: frozenset() if g == k4 else real_dense(g))
        assert sweep.sweep_dense(seeded=2, max_n=4).lines() == [
            "universe dense min-degree graphs, exhaustive n<=4 plus 2 seeded",
            "checked 3",
            "verdict EXISTS dense-min-degree 2",
            "disagreements 1",
            f"constructed witness failed verification: wrong-edge-count {on_k4}",
        ]

    with monkeypatch.context() as m:  # a NOT_EXISTS witness that fails recheck
        m.setattr(cli, "split_odd_spanning_tree",
                  lambda g, sp: None if g == k4 else real_split(g, sp))
        assert sweep.sweep_split(seeded=0, max_n=4).lines() == [
            "universe connected split graphs, exhaustive n<=4 plus 0 seeded",
            "checked 40",
            "verdict EXISTS split-criterion 23",
            "verdict NOT_EXISTS odd-order 4",
            "verdict NOT_EXISTS split-criterion 13",
            "disagreements 1",
            f"NOT_EXISTS split-criterion fails: witness-rejected {on_k4}",
        ]
        # the same answer with a recheck that accepts it: the oracle refutes it
        m.setattr(cli, "check_nonexistence", lambda g, why: True)
        assert sweep.sweep_split(seeded=0, max_n=4).lines()[-1] == (
            f"NOT_EXISTS split-criterion fails: the oracle finds a tree {on_k4}"
        )

    with monkeypatch.context() as m:  # a criterion that claims no tree beside a verified one
        m.setattr(sweep, "split_no_tree_condition", lambda g, sp: g == k4)
        assert sweep.sweep_split(seeded=0, max_n=4).lines()[2:] == [
            "verdict EXISTS split-criterion 24",
            "verdict NOT_EXISTS odd-order 4",
            "verdict NOT_EXISTS split-criterion 12",
            "disagreements 1",
            f"EXISTS split-criterion fails: the split criterion claims no tree {on_k4}",
        ]

    with monkeypatch.context() as m:  # an UNKNOWN answer: the oracle caps out at n = 12
        m.setitem(cli.METHODS, "dense", cli._oracle)
        lines = sweep.sweep_dense(seeded=3, max_n=0).lines()
        assert lines[1:5] == [
            "checked 3",
            "verdict EXISTS oracle-exhaustive 2",
            "verdict UNKNOWN oracle-capped 1",
            "disagreements 1",
        ]
        assert lines[5].startswith("UNKNOWN oracle-capped fails: no answer on n=12 edges=")

    # a verified split tree in which the independent-side vertex 5 is no leaf
    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    k5_and_5 = Graph(6, k5 + [(0, 5), (1, 5), (2, 5)])
    star = frozenset({(0, 5), (1, 5), (2, 5), (0, 3), (0, 4)})
    monkeypatch.setattr(sweep, "all_connected_graphs", lambda n: iter([k5_and_5] if n == 6 else []))
    monkeypatch.setattr(cli, "split_odd_spanning_tree", lambda g, sp: star)
    edges = tuple(sorted(k5_and_5.edge_set()))
    assert sweep.sweep_split(seeded=0, max_n=6).lines()[1:] == [
        "checked 1",
        "verdict EXISTS split-criterion 1",
        "disagreements 1",
        "EXISTS split-criterion fails: an independent-side vertex is not a leaf "
        f"on n=6 edges={edges}",
    ]


def test_sweep_worker_count_does_not_change_output(capsys, monkeypatch):
    monkeypatch.setenv("ODD_SPAN_THREADS", "2")
    _, two = run_cli(capsys, "sweep", "--trifree", "--n", "4", "--cap", "8")
    monkeypatch.setenv("ODD_SPAN_THREADS", "1")
    _, one = run_cli(capsys, "sweep", "--trifree", "--n", "4", "--cap", "8")
    assert one == two


def test_sweep_refuses_n_and_cap_out_of_range(capsys):
    # --n 8 would walk 2^28 edge masks
    for flag, value, bound in (("--n", "-1", "0..7"), ("--n", "8", "0..7"),
                               ("--cap", "-1", "0..10000"), ("--cap", "10001", "0..10000")):
        assert main(["sweep", "--dense", flag, value]) == 64, (flag, value)
        out, err = capsys.readouterr()
        assert out == "" and f"{flag} must be in {bound}" in err


def test_sweep_accepts_n_and_cap_at_both_ends(capsys, monkeypatch):
    assert main(["sweep", "--dense", "--n", "0", "--cap", "0"]) == 0
    assert "checked 0\n" in capsys.readouterr().out
    # the highest values reach the universe, here a stand-in that records them
    seen = []

    def record(seeded, max_n):
        seen.append((max_n, seeded))
        return sweep.SweepReport(universe="stand-in")

    monkeypatch.setattr(sweep, "sweep_dense", record)
    assert main(["sweep", "--dense", "--n", "7", "--cap", "10000"]) == 0
    assert seen == [(7, 10000)]


def test_workers_clamped_to_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delenv("ODD_SPAN_THREADS", raising=False)
    assert cli._workers() == 4
    for raw, want in (("2", 2), (" 4 ", 4), ("5", 4), ("1000000", 4), ("0", 1), ("-3", 1)):
        monkeypatch.setenv("ODD_SPAN_THREADS", raw)
        assert cli._workers() == want, raw
    monkeypatch.setenv("ODD_SPAN_THREADS", "lots")
    with pytest.raises(ValueError):
        cli._workers()
    # os.cpu_count() may not know; then one worker
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    monkeypatch.setenv("ODD_SPAN_THREADS", "8")
    assert cli._workers() == 1
    monkeypatch.delenv("ODD_SPAN_THREADS")
    assert cli._workers() == 1


def test_sweep_refuses_a_non_integer_thread_count(capsys, monkeypatch):
    monkeypatch.setenv("ODD_SPAN_THREADS", "abc")
    assert main(["sweep", "--dense", "--n", "0", "--cap", "0"]) == 64
    out, err = capsys.readouterr()
    assert out == "" and "ODD_SPAN_THREADS must be an integer, got 'abc'" in err


def _pipeline(cmd: list[str], env: dict | None = None) -> subprocess.CompletedProcess:
    gen = subprocess.run(
        cmd + ["gen", "--family", "complete", "--n", "4"],
        capture_output=True, text=True, check=True, env=env,
    )
    return subprocess.run(
        cmd + ["check"], input=gen.stdout, capture_output=True, text=True, env=env,
    )


def test_console_script_pipeline():
    # the console script wraps oddspan.cli:main, so running the module
    # exercises the same entry point without an installed package
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert 'oddspan = "oddspan.cli:main"' in scripts.splitlines()
    src = str(Path(oddspan.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    runs = [_pipeline([sys.executable, "-m", "oddspan.cli"], env)]
    if shutil.which("oddspan"):
        runs.append(_pipeline(["oddspan"]))
    for check in runs:
        assert check.returncode == 0
        assert check.stdout.splitlines()[0] == "EXISTS split-criterion"


def _readme_transcripts():
    """(command, expected stdout) for each ``$`` line in README's sh blocks,
    one list per block; a block's commands share a directory."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = []
    for block in readme.split("```sh\n")[1:]:
        runs = []
        for line in block.split("```", 1)[0].splitlines():
            if line.startswith("$ "):
                runs.append((line[2:], []))
            elif runs and line:
                runs[-1][1].append(line)
        if runs:
            blocks.append([(cmd, "".join(ln + "\n" for ln in out)) for cmd, out in runs])
    return blocks


def test_readme_transcripts_run(tmp_path):
    src = str(Path(oddspan.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "ODD_SPAN_THREADS": "1"}
    blocks = _readme_transcripts()
    assert len(blocks) == 3
    for k, block in enumerate(blocks):
        cwd = tmp_path / str(k)
        cwd.mkdir()
        for cmd, want in block:
            shell = re.sub(r"\boddspan\b", f"{shlex.quote(sys.executable)} -m oddspan.cli", cmd)
            done = subprocess.run(["sh", "-c", shell], cwd=cwd, env=env, capture_output=True,
                                  text=True)
            assert (done.stdout, done.stderr) == (want, ""), cmd


@pytest.fixture
def in_process(capsys, monkeypatch):
    """Run a parsed subcommand on a Graph, skipping argparse per call.

    Returns (exit code, or the error type main would map to one, stdout).
    """
    parsed = {}

    def run(argv: tuple[str, ...], g: Graph):
        if argv not in parsed:
            parsed[argv] = cli._build_parser().parse_args(list(argv))
        monkeypatch.setattr(sys, "stdin", io.StringIO(emit_graph(g)))
        try:
            code = parsed[argv].func(parsed[argv])
        except OddSpanError as exc:
            code = type(exc).__name__
        return code, capsys.readouterr().out

    return run


def _graphs_up_to(n: int):
    for k in range(n + 1):
        yield from all_graphs(k)


def test_construct_oracle_exits_as_check(in_process):
    disconnected = 0
    for g in _graphs_up_to(5):
        if g.n == 0:
            continue
        code, out = in_process(("construct", "--oracle"), g)
        assert code == in_process(("check",), g)[0], sorted(g.edge_set())
        if not graph_core.is_connected(g):
            assert out.splitlines()[0] == "NOT_EXISTS disconnected"
            disconnected += 1
    assert disconnected > 0


def test_check_split_nonexistence_certificates_recheck(in_process):
    # the criterion speaks only about connected graphs, so a disconnected
    # split graph whose parts meet the condition must get another answer
    answered = 0
    for g in _graphs_up_to(6):
        code, out = in_process(("construct", "--split"), g)
        if not out.startswith("NOT_EXISTS split-criterion"):
            continue
        assert code == 1
        assert cli.recheck(g, parse_certificate(out)) is None, out
        answered += 1
    assert answered > 0


def _count_verifies(monkeypatch) -> list[int]:
    """Count witness and partition verifications at every call site in the
    package, the defining module's binding included, so a constructor that
    re-verifies shows."""
    calls = [0]
    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "oddspan"]
    homes = {"verify_odd_spanning_tree": oracle, "verify_connected_odd_factor": oracle,
             "verify_packing": tree_packing}
    for name, home in homes.items():
        real = getattr(home, name)

        def counted(*args, _real=real):
            calls[0] += 1
            return _real(*args)

        for mod in modules:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
    return calls


def test_decide_verifies_each_witness_once(monkeypatch):
    calls = _count_verifies(monkeypatch)
    stages = {
        "split-criterion": Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        "trifree-complement": complement(cycle(6)),
        "dense-min-degree": complement(Graph(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])),
        "oracle-exhaustive": Graph(6, [(0, 1), (0, 4), (0, 5), (1, 2), (1, 3), (2, 3)]),
    }
    for method, g in stages.items():
        calls[0] = 0
        cert = decide(g)
        assert (cert.verdict, cert.method) == ("EXISTS", method)
        assert calls[0] == 1, method


def test_construct_verifies_each_witness_once(capsys, monkeypatch):
    calls = _count_verifies(monkeypatch)
    # C4 has no tree packing: its partition certificate is the one check
    for flag, text, verdict in [("--dense", K6, "EXISTS"), ("--split", K4, "EXISTS"),
                                ("--double-star", P6, "EXISTS"), ("--trifree", K4, "EXISTS"),
                                ("--factor", K6, "EXISTS"), ("--factor", C4, "UNKNOWN")]:
        calls[0] = 0
        code, out = run_cli(capsys, "construct", flag, stdin=text)
        assert code == cli._VERDICT_EXIT[verdict] and out.startswith(verdict), flag
        assert calls[0] == 1, flag


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = [b.split("```", 1)[0] for b in readme.split("```python\n")[1:]]
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out

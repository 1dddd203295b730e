"""oddspan benchmark: time the public entry points from outside.

    python3 perfbench/run.py --workload check-small --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py`` and ``NOTES.md``):

- ``check-small``: ``cli.parse_graph`` -> ``cli.decide`` ->
  ``cli.emit_certificate`` on 1008 random graphs, n in 5..10.
- ``sweep``: the acceptance suite's six universes, cut to n <= 5,
  ``workers=1``.

A run measures set-up in fresh interpreters (``probe.py``), then repeats
whole passes over the workload's ops, single threaded, until the next
pass would end past ``--seconds``.  Outputs of the first pass are
re-checked outside the timed region (``certcheck.py``); later passes
must reproduce them exactly.  With ``--trace 1`` one more pass runs
under the timing wrappers of ``spans.py`` and the per-layer metrics are
printed instead of the end-to-end ones.  The last stdout line is the
JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from math import ceil

from checkout import ROOT, use_checkout_source

use_checkout_source()

import certcheck  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from oddspan import cli  # noqa: E402
from oddspan import sweep as sweep_mod  # noqa: E402

SETUP_REPEATS = 7
OUT_DIR = ROOT / ".perfbench"

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_frac", "frac"),
    ("decided_frac", "frac"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("cli.parse_graph.s", "s"),
    ("cli.emit_certificate.s", "s"),
    ("cli.decide.self_s", "s"),
    ("families.find_nonexistence.calls", "count"),
    ("families.find_nonexistence.self_s", "s"),
    ("families.find_nonexistence.hit_frac", "frac"),
    ("graph_core.is_connected.calls", "count"),
    ("graph_core.is_connected.s", "s"),
    ("graph_core.bipartition.s", "s"),
    ("graph_core.complement.calls", "count"),
    ("graph_core.complement.s", "s"),
    ("graph_core.is_triangle_free.s", "s"),
    ("graph_core.edge_connectivity.calls", "count"),
    ("graph_core.edge_connectivity.s", "s"),
    ("graph_core.tree_path.s", "s"),
    ("split.find_split_partition.s", "s"),
    ("split.split_no_tree_condition.s", "s"),
    ("split.split_odd_spanning_tree.calls", "count"),
    ("split.split_odd_spanning_tree.s", "s"),
    ("trifree.trifree_complement_tree.calls", "count"),
    ("trifree.trifree_complement_tree.s", "s"),
    ("trifree.complement_connected.s", "s"),
    ("trifree.exhausted_cases", "count"),
    ("dense_tree.odd_spanning_tree_dense.calls", "count"),
    ("dense_tree.odd_spanning_tree_dense.s", "s"),
    ("oracle.verify_odd_spanning_tree.calls", "count"),
    ("oracle.verify_odd_spanning_tree.s", "s"),
    ("oracle.verify_per_exists", "count"),
    ("oracle.find_odd_spanning_tree_bruteforce.calls", "count"),
    ("oracle.find_odd_spanning_tree_bruteforce.s", "s"),
    ("oracle.find_odd_spanning_tree_bruteforce.found_frac", "frac"),
    ("oracle.enumerate_spanning_trees.calls", "count"),
    ("oracle.enumerate_spanning_trees.s", "s"),
    ("oracle.verify_connected_odd_factor.calls", "count"),
    ("oracle.verify_connected_odd_factor.s", "s"),
    ("tree_packing.two_edge_disjoint_spanning_trees.calls", "count"),
    ("tree_packing.two_edge_disjoint_spanning_trees.s", "s"),
    ("tree_packing.two_edge_disjoint_spanning_trees.trees_frac", "frac"),
    ("tree_packing.exhaustive_pair_search.s", "s"),
    ("tree_packing.verify_packing.s", "s"),
    ("odd_factor.connected_odd_factor.calls", "count"),
    ("odd_factor.connected_odd_factor.self_s", "s"),
    *((f"sweep.{u}.{k}", unit) for u in workloads.SWEEP_UNIVERSES for k, unit in (("s", "s"), ("cases", "count"))),
    ("trace.overhead_frac", "frac"),
)


@dataclass
class Result:
    """One op's output, and what the re-check found."""

    out: str
    rc: int = 0
    cases: int = 1
    failures: list[str] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return self.out.split(" ", 1)[0] if self.out else "NONE"

    @property
    def method(self) -> str:
        head = self.out.split("\n", 1)[0].split()
        return head[1] if len(head) > 1 else "-"


# ---- one operation per workload kind ----------------------------------


def run_check(op: workloads.Op, tiny: bool) -> Result:
    try:
        return Result(cli.emit_certificate(cli.decide(cli.parse_graph(op.text))))
    except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
        return Result("", rc=-1, failures=[f"raised {type(exc).__name__}: {exc}"])


def run_sweep(op: workloads.Op, tiny: bool) -> Result:
    universe = getattr(sweep_mod, f"sweep_{op.family}")
    rep = universe(workers=1, **workloads.sweep_settings(op.family, tiny))
    return Result("\n".join(rep.lines()) + "\n", cases=rep.checked, failures=list(rep.disagreements))


def check_result(workload: str, op: workloads.Op, res: Result) -> None:
    """Re-check one first-pass result; failures are appended to it."""
    if res.failures:
        return
    if workload.startswith("check-"):
        why = certcheck.check_tree_answer(op.text, res.out)
    else:
        why = None if res.cases > 0 else "universe checked no cases"
    if why:
        res.failures.append(why)


RUNNERS = {"check-small": run_check, "sweep": run_sweep}


def tally(results: list[Result], passes: int) -> tuple[int, int, int]:
    """Operations attempted, failed and answered UNKNOWN over all passes.

    Every pass repeats every op, so each op weighs passes * cases; a
    sweep universe's failures are its disagreeing cases.
    """
    attempted = passes * sum(max(r.cases, 1) for r in results)
    failed = passes * sum(min(max(r.cases, 1), len(r.failures)) for r in results)
    unknown = passes * sum(r.cases for r in results if r.verdict == "UNKNOWN")
    return attempted, failed, unknown


# ---- measurement -------------------------------------------------------


def set_up(workload: str, seed: int, tiny: bool, repeats: int) -> tuple[list[workloads.Op], list[float]]:
    """Build the inputs in ``repeats`` fresh interpreters; keep the first."""
    cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "probe.py"),
           "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    times: list[float] = []
    ops: list[workloads.Op] = []
    first_digest = None
    for _ in range(repeats):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"perfbench: set-up probe exited {done.returncode}")
        probe = json.loads(done.stdout.splitlines()[-1])
        times.append(probe["setup_s"])
        if first_digest is None:
            first_digest = probe["digest"]
            ops = workloads.from_json(probe["ops"])
        elif probe["digest"] != first_digest:
            raise SystemExit("perfbench: two set-ups of one seed built different inputs")
    return ops, times


@dataclass
class Timing:
    pass_walls: list[float]
    op_best: list[float]  # each op's fastest time over the passes
    results: list[Result]
    mismatches: Counter

    @property
    def passes(self) -> int:
        return len(self.pass_walls)


def timed_passes(workload: str, ops: list[workloads.Op], seconds: float, tiny: bool) -> Timing:
    """Whole passes until the next one would end past ``seconds``."""
    run = RUNNERS[workload]
    # only the running minimum is kept, so memory does not grow with the
    # number of passes a faster program fits into the run
    op_best = [float("inf")] * len(ops)
    results: list[Result] = []
    mismatches: Counter = Counter()
    walls: list[float] = []
    clock = time.perf_counter
    start = clock()
    while True:
        p0 = clock()
        for i, op in enumerate(ops):
            t0 = clock()
            res = run(op, tiny)
            op_best[i] = min(op_best[i], clock() - t0)
            if not walls:
                results.append(res)
            elif res.out != results[i].out:
                mismatches[i] += 1
        walls.append(clock() - p0)
        if clock() - start + statistics.fmean(walls) > seconds:
            break
    return Timing(walls, op_best, results, mismatches)


def traced_pass(workload: str, ops: list[workloads.Op], tiny: bool) -> tuple[spans.Tracer, list[Result], float]:
    run = RUNNERS[workload]
    tracer = spans.Tracer()
    results = []
    with spans.traced(tracer):
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            tracer.op = i
            results.append(run(op, tiny))
        wall = time.perf_counter() - t0
    return tracer, results, wall


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def end_to_end(t: Timing, setup_times: list[float], failed: int, attempted: int, unknown: int,
               peak_rss_kb: int) -> dict[str, float]:
    # The machine this was tuned on changes speed for seconds to minutes
    # at a time.  A median over passes follows those states; the fastest
    # of a run's many passes does not (IQR/median 6% against 20% on
    # check-small over ten seeds), so each op counts at its fastest pass,
    # and throughput is one pass's ops over the sum of those times.
    per_op_ms = [best * 1e3 for best in t.op_best]
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": attempted / t.passes / sum(t.op_best),
        "op_p50_ms": nearest_rank(per_op_ms, 0.5),
        "op_p90_ms": nearest_rank(per_op_ms, 0.9),
        "ok_frac": 1.0 - failed / attempted,
        "decided_frac": 1.0 - unknown / attempted,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def per_layer(workload: str, tracer: spans.Tracer, results: list[Result], ops: list[workloads.Op],
              overhead: float) -> dict[str, float]:
    cases = {op.family: r.cases for op, r in zip(ops, results)} if workload == "sweep" else {}
    out: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        if name.startswith("sweep."):
            _, universe, kind = name.split(".")
            if kind == "cases":
                out[name] = float(cases.get(universe, 0))
            else:
                out[name] = tracer.stat(f"sweep.sweep_{universe}").total
            continue
        fn, _, kind = name.rpartition(".")
        st = tracer.stat(fn)
        if kind == "calls":
            out[name] = float(st.calls)
        elif kind == "s":
            out[name] = st.total
        elif kind == "self_s":
            out[name] = st.self_time
        elif kind.endswith("_frac"):
            out[name] = st.hits / st.calls if st.calls else 0.0
    exists = sum(1 for r in results if r.verdict == "EXISTS")
    verifies = tracer.stat("oracle.verify_odd_spanning_tree").calls + tracer.stat("oracle.verify_connected_odd_factor").calls
    out["oracle.verify_per_exists"] = verifies / exists if exists else 0.0
    out["trifree.exhausted_cases"] = float(tracer.stat("trifree.trifree_complement_tree").raised["ExhaustedCases"])
    out["trace.overhead_frac"] = overhead
    return out


# ---- report ------------------------------------------------------------


def certificate_digest(results: list[Result]) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.rc}\0{r.out}\0".encode())
    return h.hexdigest()[:16]


def print_makeup(workload: str, seed: int, ops: list[workloads.Op], t: Timing, setup_times: list[float]) -> None:
    print(f"workload {workload} seed {seed}: {len(ops)} ops, {t.passes} timed passes, "
          f"pass wall {min(t.pass_walls):.3f} s fastest, {statistics.median(t.pass_walls):.3f} s median")
    print("  set-up s: " + " ".join(f"{x:.4f}" for x in setup_times))
    groups: dict[tuple[str, int], list[float]] = {}
    for op, best in zip(ops, t.op_best):
        groups.setdefault((op.family, op.n), []).append(best * 1e3)
    for (family, n), ms in sorted(groups.items()):
        label = f"{family} n={n}" if n else family
        print(f"  input {label}: {len(ms)} ops, median fastest op {statistics.median(ms):.3f} ms")
    if workload == "sweep":
        for res in t.results:
            print("  answer " + "; ".join(res.out.splitlines()[:8]))
    else:
        print(f"  input total m: {sum(op.m for op in ops)}")
        mix = Counter((r.verdict, r.method) for r in t.results)
        for (verdict, method), k in sorted(mix.items()):
            print(f"  answer {verdict} {method}: {k}")
    print(f"  certificate digest: {certificate_digest(t.results)}")


def print_layer_table(tracer: spans.Tracer, op_total: float) -> None:
    print(f"traced op time {op_total:.4f} s; per traced function: calls, total s, self s, self share")
    rows = sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_time)
    for name, st in rows:
        if st.calls:
            share = st.self_time / op_total if op_total else 0.0
            print(f"  {name:<52} {st.calls:>9} {st.total:>10.4f} {st.self_time:>10.4f} {share:>7.1%}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrunken inputs, for the bench's own tests")
    args = ap.parse_args(argv)

    ops, setup_times = set_up(args.workload, args.seed, args.tiny, SETUP_REPEATS)
    t = timed_passes(args.workload, ops, args.seconds, args.tiny)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    for op, res in zip(ops, t.results):
        check_result(args.workload, op, res)
    for i, k in t.mismatches.items():
        t.results[i].failures.append(f"output changed between passes ({k} of {t.passes - 1})")

    if args.trace:
        tracer, traced_results, traced_wall = traced_pass(args.workload, ops, args.tiny)
        for res, traced in zip(t.results, traced_results):
            if traced.out != res.out:
                res.failures.append("traced output differs from untraced output")

    attempted, failed, unknown = tally(t.results, t.passes)

    print_makeup(args.workload, args.seed, ops, t, setup_times)
    print(f"  failed_frac {failed / attempted:.6f} ({failed} of {attempted}); "
          f"unknown_frac {unknown / attempted:.6f} ({unknown} of {attempted})")
    for op, res in zip(ops, t.results):
        for why in res.failures:
            print(f"  FAILED {op.family} n={op.n} m={op.m}: {why}")
            sys.stderr.write(f"failed input ({op.family}, n={op.n}):\n{op.text}\n")

    if args.trace:
        overhead = traced_wall / statistics.median(t.pass_walls) - 1.0
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(span_file)
        print_layer_table(tracer, traced_wall)
        print(f"  spans: {len(tracer.span_start)} written to {span_file.relative_to(ROOT)}")
        values = per_layer(args.workload, tracer, traced_results, ops, overhead)
        units = dict(PER_LAYER)
    else:
        values = end_to_end(t, setup_times, failed, attempted, unknown, peak_rss_kb)
        units = dict(END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

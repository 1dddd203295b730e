"""The benchmark's own tests.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checkout import use_checkout_source

use_checkout_source()

import run  # noqa: E402
import workloads  # noqa: E402
from oddspan import cli  # noqa: E402
from oddspan.families import gen_complete  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def _tally(workload: str, text: str, out: str) -> tuple[int, int, int]:
    res = run.Result(out)
    run.check_result(workload, workloads.Op("test", 0, 0, text), res)
    return run.tally([res], passes=1)


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in SPEC["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["name"] for m in SPEC["per_layer"]] == [name for name, _ in run.PER_LAYER]
    units = dict(run.END_TO_END) | dict(run.PER_LAYER)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert units[m["name"]] == m["unit"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_true_certificates_pass_the_check():
    text = cli.emit_graph(gen_complete(6))
    good = cli.emit_certificate(cli.decide(cli.parse_graph(text)))
    assert good.startswith("EXISTS")
    assert _tally("check-small", text, good) == (1, 0, 0)
    path = "6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n"
    assert _tally("check-small", path, cli.emit_certificate(cli.decide(cli.parse_graph(path)))) == (1, 0, 0)


def test_swapped_tree_edge_counts_as_failed():
    text = cli.emit_graph(gen_complete(6))
    good = cli.emit_certificate(cli.decide(cli.parse_graph(text)))
    tree = [line for line in good.splitlines() if line.startswith("T ")]
    used = {tuple(map(int, line.split()[1:])) for line in tree}
    spare = next((u, v) for u in range(6) for v in range(u + 1, 6) if (u, v) not in used)
    bad = good.replace(tree[0], f"T {spare[0]} {spare[1]}")
    assert bad != good
    assert _tally("check-small", text, bad) == (1, 1, 0)


def test_flipped_verdict_counts_as_failed():
    text = cli.emit_graph(gen_complete(6))
    good = cli.emit_certificate(cli.decide(cli.parse_graph(text)))
    flipped = good.replace("EXISTS", "NOT_EXISTS", 1)
    assert _tally("check-small", text, flipped) == (1, 1, 0)
    c4 = "4 4\n0 1\n1 2\n2 3\n0 3\n"
    nope = cli.emit_certificate(cli.decide(cli.parse_graph(c4)))
    assert nope.startswith("NOT_EXISTS")
    assert _tally("check-small", c4, nope.replace("NOT_EXISTS", "EXISTS", 1)) == (1, 1, 0)


def test_traced_pass_leaves_outputs_identical():
    for workload in workloads.WORKLOADS:
        ops = workloads.build(workload, 5, tiny=True)
        untraced = run.timed_passes(workload, ops, 0.0, tiny=True)
        tracer, traced, _ = run.traced_pass(workload, ops, tiny=True)
        assert [r.out for r in traced] == [r.out for r in untraced.results]
        assert tracer.stats, workload
    # the wrappers are gone again once the traced pass ends
    assert not hasattr(cli.decide, "__wrapped__")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_named_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "2", "--seconds", "0.2", "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert "certificate digest" in done.stdout


def test_same_seed_builds_same_inputs():
    for workload in workloads.WORKLOADS:
        a = workloads.build(workload, 9, tiny=True)
        assert workloads.digest(a) == workloads.digest(workloads.build(workload, 9, tiny=True))
    assert workloads.digest(workloads.build("check-small", 9, tiny=True)) != workloads.digest(
        workloads.build("check-small", 10, tiny=True)
    )


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "check-small", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

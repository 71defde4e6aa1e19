"""The benchmark's own tests: smoke-size runs of every workload, the generator, the checks.

Run from the root of a checkout: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gen
from pipeline import PipelineResult, check_outputs
from workloads import WORKLOADS, workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*flags: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *flags]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def smoke(name: str, trace: int) -> dict:
    proc = run_bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_end_to_end(name):
    result = smoke(name, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_traced(name):
    result = smoke(name, trace=1)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v > 0 for k, v in metrics.items() if k.endswith("_s"))
    push = workload(name)["mode"] == "approx"
    assert (metrics["simrank.localpush_pops"] > 0) == push
    assert (metrics["simrank.fixedpoint_iterations"] > 0) == (not push)
    if push:
        assert metrics["simrank.max_residual_ratio"] <= 1.0
    assert metrics["model.epochs"] == workload(name, smoke=True)["epochs"]
    assert 0.0 <= metrics["trace.uncovered_share"] < 0.5


def test_benchmark_json_matches_the_workloads():
    assert {m["name"]: m["why"] for m in SPEC["workloads"]} == {
        name: spec["why"] for name, spec in WORKLOADS.items()
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generator_is_seeded(name, tmp_path):
    graph = workload(name, smoke=True)["graph"]
    a = gen.generate(graph, 5, tmp_path / "a")
    b = gen.generate(graph, 5, tmp_path / "b")
    c = gen.generate(graph, 6, tmp_path / "c")
    for key in gen.FILES:
        assert a.paths[key].read_bytes() == b.paths[key].read_bytes()
    assert a.paths["edges"].read_bytes() != c.paths["edges"].read_bytes()
    edges = np.loadtxt(a.paths["edges"], dtype=np.int64)
    assert edges.shape == (a.m, 2) and edges.max() == a.n - 1
    lo, hi = edges.min(axis=1), edges.max(axis=1)
    assert np.all(lo != hi) and np.unique(lo * a.n + hi).size == a.m
    assert a.input_bytes == sum(p.stat().st_size for p in a.paths.values())


def _dump_case(tmp_path, lines, n=3, k=2, acc=1.0):
    """A three-node input set plus a hand-written dump and report."""
    spec = {"k": k, "epochs": 1, "acc_margin": 0.25}
    inputs = gen.Inputs(
        paths={"test": tmp_path / "test.txt"}, n=n, m=2, labels=np.array([0, 1, 1]),
        num_classes=2, input_bytes=0,
    )
    (tmp_path / "test.txt").write_text("0\n1\n2\n")
    dump = tmp_path / "similarity.txt"
    dump.write_text(f"{n} {k} 0.6 fixedpoint\n" + "".join(f"{line}\n" for line in lines))
    run = tmp_path / "run"
    run.mkdir()
    (run / "report.json").write_text(json.dumps({"test_accuracy": acc, "curve": [{}]}))
    (run / "checkpoint.npz").write_bytes(b"x")
    result = PipelineResult(0.0, 0.0, 0.0)
    check_outputs(spec, inputs, dump, run, result)
    return result


GOOD = ["0 0 1", "0 1 0.25", "1 0 0.25", "1 1 1", "2 2 1"]


@pytest.mark.parametrize(
    "lines, problem",
    [
        (GOOD, None),
        (["0 0 1", "0 1 0.25", "0 2 0.1", "1 1 1", "2 2 1"], "more than k"),
        (["0 1 0.25", "0 0 1", "1 1 1", "2 2 1"], "not strictly ascending"),
        (["0 0 1", "0 1 1.5", "1 1 1", "2 2 1"], "outside [0, 1]"),
        (["0 0 1", "0 1 0.25", "1 0 0.25", "2 2 1"], "diagonal"),
        (["0 0 1", "0 3 0.25", "1 1 1", "2 2 1"], "outside [0, n)"),
    ],
)
def test_dump_checks(tmp_path, lines, problem):
    result = _dump_case(tmp_path, lines)
    if problem is None:
        assert result.error is None and result.test_acc == 1.0
        assert result.facts["simrank.offdiag_mass_share"] == pytest.approx(0.5 / 3.5)
        assert result.facts["simrank.intra_class_mass_share"] == 0.0
    else:
        assert problem in result.error


def test_accuracy_must_clear_chance(tmp_path):
    # two of the three test nodes share a label, so chance is 2/3
    assert "not above chance" in _dump_case(tmp_path, GOOD, acc=0.9).error


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench("--workload", "push-hetero", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

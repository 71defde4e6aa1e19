"""One user pipeline through the simga CLI, in process, and the checks on its outputs.

A pipeline is `simga simrank` (edge list -> similarity dump) followed by
`simga train --sim <dump>` with a fixed epoch count. Both halves are timed
around the CLI entry point, so the times include file parsing and writing as
a user of the CLI sees them.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gen import Inputs


@dataclass
class PipelineResult:
    precompute_s: float
    train_s: float
    pipeline_s: float
    error: str | None = None  # the first failed check; None when all passed
    test_acc: float | None = None
    facts: dict[str, float] = field(default_factory=dict)  # what S is, output sizes


def _cli(main, argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            return exc.code if isinstance(exc.code, int) else 1


def run_pipeline(spec: dict, inputs: Inputs, out: Path, seed: int, tracer=None) -> PipelineResult:
    """Run both CLI halves on the inputs and check what they wrote."""
    from simga.cli import main

    p = {k: str(v) for k, v in inputs.paths.items()}
    sim_dir, run_dir = out / "sim", out / "run"
    simrank_argv = [
        "simrank", "--edges", p["edges"], "--mode", spec["mode"], "--eps", str(spec["eps"]),
        "--k", str(spec["k"]), "--out", str(sim_dir),
    ]
    train_argv = [
        "train", "--edges", p["edges"], "--features", p["features"], "--labels", p["labels"],
        "--train-split", p["train"], "--val-split", p["val"], "--test-split", p["test"],
        "--sim", str(sim_dir / "similarity.txt"), "--max-epochs", str(spec["epochs"]),
        "--patience", "inf", "--seed", str(seed), "--out", str(run_dir),
    ]

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    with span("pipeline"):
        t0 = time.perf_counter()
        with span("cli.simrank"):
            rc_simrank = _cli(main, simrank_argv)
        t1 = time.perf_counter()
        rc_train = None
        if rc_simrank == 0:
            with span("cli.train"):
                rc_train = _cli(main, train_argv)
        t2 = time.perf_counter()
    result = PipelineResult(precompute_s=t1 - t0, train_s=t2 - t1, pipeline_s=t2 - t0)
    if rc_simrank != 0:
        result.error = f"simga simrank exited {rc_simrank}"
    elif rc_train != 0:
        result.error = f"simga train exited {rc_train}"
    else:
        check_outputs(spec, inputs, sim_dir / "similarity.txt", run_dir, result)
    return result


def check_outputs(spec: dict, inputs: Inputs, dump: Path, run_dir: Path, result: PipelineResult) -> None:
    """Check the dump is well formed and the accuracy clears chance; record facts about S."""
    header, _, body = dump.read_text().partition("\n")
    fields = header.split()
    table = np.fromstring(body, sep=" ")  # text mode: any whitespace separates
    n = inputs.n
    if len(fields) != 4 or int(fields[0]) != n or int(fields[1]) != spec["k"] or table.size % 3:
        result.error = f"dump header or body malformed: {header!r}"
        return
    table = table.reshape(-1, 3)
    rows, cols, scores = table[:, 0].astype(np.int64), table[:, 1].astype(np.int64), table[:, 2]
    diag = rows == cols
    if rows.size and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
        result.error = "dump holds a node id outside [0, n)"
    elif np.any(np.diff(rows * n + cols) <= 0):
        result.error = "dump rows out of order, or columns not strictly ascending within a row"
    elif np.bincount(rows, minlength=n).max() > spec["k"]:
        result.error = f"dump row holds more than k={spec['k']} entries"
    elif scores.min() < 0.0 or scores.max() > 1.0:
        result.error = "dump score outside [0, 1]"
    elif not np.array_equal(rows[diag], np.arange(n)) or np.any(scores[diag] != 1.0):
        result.error = "dump row without its unit diagonal"
    if result.error:
        return

    report = json.loads((run_dir / "report.json").read_text())
    acc = float(report["test_accuracy"])
    test_idx = np.loadtxt(inputs.paths["test"], dtype=np.int64, ndmin=1)
    chance = np.bincount(inputs.labels[test_idx]).max() / test_idx.size
    if len(report["curve"]) != spec["epochs"]:
        result.error = f"trained {len(report['curve'])} epochs, expected {spec['epochs']}"
    elif not acc > chance + spec["acc_margin"]:
        result.error = f"test accuracy {acc:.4f} not above chance {chance:.4f} + {spec['acc_margin']}"
    result.test_acc = acc

    off = ~diag
    same = inputs.labels[rows] == inputs.labels[cols]
    off_mass = scores[off].sum()
    result.facts = {
        "simrank.sim_nnz_per_row": rows.size / n,
        "simrank.offdiag_mass_share": off_mass / scores.sum(),
        "simrank.intra_class_mass_share": scores[off & same].sum() / off_mass if off_mass else 0.0,
        "simrank.dump_bytes": float(dump.stat().st_size),
        "model.checkpoint_bytes": float((run_dir / "checkpoint.npz").stat().st_size),
    }

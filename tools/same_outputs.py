"""Check that a git revision and the working tree write the same outputs.

Usage, from anywhere in a checkout:

    python3 tools/same_outputs.py <rev>

It extracts <rev> with `git archive` into a temporary directory. It writes each
benchmark workload's full and smoke inputs once, with the working tree's
`perfbench/gen.py` (seed 7), and runs `simga simrank` then `simga train --sim`
(seed 3, 5 epochs) on them from both source trees, each command in a fresh
process. Per input it compares the sha256 of similarity.txt, of every
checkpoint array (name, dtype, shape and bytes) and of report.json without its
timing keys. It also compares the stdout of `simga verify --seed 0`. It prints
one line per compared output and exits 1 if any differs. Only the standard
library and numpy are used, and nothing leaves the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from gen import generate  # noqa: E402
from workloads import WORKLOADS, workload  # noqa: E402

TIMING_KEYS = ("precompute_seconds", "train_seconds")  # report.json's wall-clock fields
GEN_SEED, TRAIN_SEED, EPOCHS = 7, 3, 5  # few epochs: a difference shows from the first step


def extract(rev: str, dest: Path) -> Path:
    """Write the tree of `rev` under dest and return its source directory."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return dest / "src"


def simga(src: Path, argv: list[str]) -> str:
    """Run one simga command from the source tree `src` and return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-m", "simga.cli", *argv], env=env, capture_output=True, text=True
    )
    if run.returncode != 0:
        raise SystemExit(f"simga {argv[0]} from {src} exited {run.returncode}: {run.stderr.strip()}")
    return run.stdout


def sha(*parts: bytes) -> str:
    return hashlib.sha256(b"\0".join(parts)).hexdigest()


def pipeline_hashes(src: Path, paths: dict, spec: dict, out: Path) -> dict:
    """Run both CLI halves as the benchmark does and hash what they wrote."""
    p = {k: str(v) for k, v in paths.items()}
    simga(src, ["simrank", "--edges", p["edges"], "--mode", spec["mode"], "--eps", str(spec["eps"]),
                "--k", str(spec["k"]), "--out", str(out / "sim")])
    simga(src, ["train", "--edges", p["edges"], "--features", p["features"], "--labels", p["labels"],
                "--train-split", p["train"], "--val-split", p["val"], "--test-split", p["test"],
                "--sim", str(out / "sim" / "similarity.txt"), "--max-epochs", str(EPOCHS),
                "--patience", "inf", "--seed", str(TRAIN_SEED), "--out", str(out / "run")])
    hashes = {"similarity.txt": sha((out / "sim" / "similarity.txt").read_bytes())}
    with np.load(out / "run" / "checkpoint.npz", allow_pickle=False) as ckpt:
        for name in sorted(ckpt.files):
            arr = ckpt[name]
            hashes[f"checkpoint {name}"] = sha(
                name.encode(), arr.dtype.str.encode(), str(arr.shape).encode(), arr.tobytes()
            )
    report = json.loads((out / "run" / "report.json").read_text())
    for key in TIMING_KEYS:
        report.pop(key)
    hashes["report.json"] = sha(json.dumps(report, sort_keys=True).encode())
    return hashes


def compare(label: str, base: dict, change: dict) -> int:
    """Print one line per output; return how many differ."""
    differ = 0
    for key in sorted(base.keys() | change.keys()):
        a, b = base.get(key), change.get(key)
        same = a == b
        differ += not same
        shown = a[:12] if same else f"{(a or 'missing')[:12]} != {(b or 'missing')[:12]}"
        print(f"{'same' if same else 'DIFFERENT':<9}  {label:<18}  {key:<34}  {shown}")
    return differ


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the git revision to compare the working tree with")
    args = ap.parse_args(argv)
    differ = 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        work = Path(tmp)
        trees = {"base": extract(args.rev, work / "base"), "change": ROOT / "src"}
        for name in WORKLOADS:
            for smoke in (False, True):
                spec = workload(name, smoke=smoke)
                label = name + (" smoke" if smoke else "")
                inputs = generate(spec["graph"], GEN_SEED, work / "inputs" / label)
                got = {
                    side: pipeline_hashes(src, inputs.paths, spec, work / side / label)
                    for side, src in trees.items()
                }
                differ += compare(label, got["base"], got["change"])
        got = {side: {"stdout": sha(simga(src, ["verify", "--seed", "0"]).encode())} for side, src in trees.items()}
        differ += compare("verify --seed 0", got["base"], got["change"])
    print(f"{differ} output(s) differ from {args.rev}" if differ else f"all outputs equal to {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

"""Check that a git revision and the working tree write the same outputs.

Usage, from anywhere in a checkout:

    python3 tools/same_outputs.py <rev>

It extracts <rev> with `git archive` into a temporary directory. It writes each
benchmark workload's full and smoke inputs once, with the working tree's
`perfbench/gen.py` (seed 7), and runs `simga simrank` then `simga train --sim`
(seed 3, 5 epochs) on them from both source trees, each command in a fresh
process. Per input it compares the sha256 of similarity.txt, of every
checkpoint array (name, dtype, shape and bytes) and of report.json without its
timing keys. It also compares the stdout of `simga verify --seed 0`.

Per workload it then runs each tree's own `perfbench/run.py --seed 3
--seconds 0 --trace 1` and compares the traced counters of its last line:
every per-layer metric in count or bytes, and every fraction or ratio outside
trace.*. A counter missing on one side differs. A counter that perfbench
reports dropped on its stderr, or a perfbench run that exits nonzero, is a
fault: perfbench only warns when a representation change breaks a counter.
It prints one line per compared output and per fault, and exits 1 if any
output differs or any fault is seen. Only the standard library and numpy are
used, and nothing leaves the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from gen import generate  # noqa: E402
from workloads import WORKLOADS, workload  # noqa: E402
from pairs import extract  # noqa: E402

TIMING_KEYS = ("precompute_seconds", "train_seconds")  # report.json's wall-clock fields
GEN_SEED, TRAIN_SEED, EPOCHS = 7, 3, 5  # few epochs: a difference shows from the first step
TRACE_SEED = 3  # perfbench's seed for the traced counters: inputs and training
DROPPED = "perfbench: counter for "  # how perfbench's stderr begins a dropped counter's warning


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


def traced_counters(root: Path, name: str) -> tuple[dict, list[str]]:
    """The counters of one traced perfbench run of the tree at root, and the run's faults."""
    run = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", name,
         "--seed", str(TRACE_SEED), "--seconds", "0", "--trace", "1"],
        cwd=root, capture_output=True, text=True,
    )
    faults = [line for line in run.stderr.splitlines() if line.startswith(DROPPED)]
    if run.returncode != 0:  # as when a dropped counter leaves a declared metric with no value
        faults.append(f"perfbench exited {run.returncode}: {run.stderr.strip().splitlines()[-1:]}")
        return {}, faults
    metrics = json.loads(run.stdout.splitlines()[-1])["metrics"]
    counters = {
        key: repr(m["value"]) for key, m in metrics.items()
        if m["unit"] in ("count", "bytes")
        or (m["unit"] in ("fraction", "ratio") and not key.startswith("trace."))
    }
    return counters, faults


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
        trees = {"base": extract(args.rev, work / "base"), "change": ROOT}
        for name in WORKLOADS:
            for smoke in (False, True):
                spec = workload(name, smoke=smoke)
                label = name + (" smoke" if smoke else "")
                inputs = generate(spec["graph"], GEN_SEED, work / "inputs" / label)
                got = {
                    side: pipeline_hashes(root / "src", inputs.paths, spec, work / side / label)
                    for side, root in trees.items()
                }
                differ += compare(label, got["base"], got["change"])
        got = {
            side: {"stdout": sha(simga(root / "src", ["verify", "--seed", "0"]).encode())}
            for side, root in trees.items()
        }
        differ += compare("verify --seed 0", got["base"], got["change"])
        for name in WORKLOADS:
            got = {side: traced_counters(root, name) for side, root in trees.items()}
            differ += compare(f"{name} traced", got["base"][0], got["change"][0])
            for side, (_, faults) in got.items():
                for line in faults:
                    print(f"{'FAULT':<9}  {f'{name} {side}':<18}  {line}")
                differ += len(faults)
    print(f"{differ} output(s) differ from {args.rev}" if differ else f"all outputs equal to {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

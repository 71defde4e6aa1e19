"""Run the benchmark in alternating parent/change pairs and write a BENCH_<pr>.json.

Usage, from anywhere in a checkout:

    python3 tools/pairs.py <rev> --pr <n> --pairs 10 --seed <s> --claim <workload>:<metric>

It extracts <rev> with `git archive` into a temporary directory. For each
workload it runs `perfbench/run.py --workload <w> --seed <s> --seconds 25
--trace 0` from the parent's tree and from the working tree, each in a fresh
process, once per pair, alternating which side runs first (the parent on even
pair indices). Each workload takes its own consecutive seeds. Per end-to-end
metric of BENCHMARK.json it reports each side's quartiles, the change's wins
out of the pairs, the parent's interquartile range, the relative move of the
median and how that move stands against the metric's bound: "within",
"worse", or "unresolved" when the parent's runs spread wider than the bound.
With --trace-seed, each claimed workload also gets one traced run per side.
Only the standard library is used, and nothing leaves the machine.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

SECONDS = 25  # perfbench --seconds of every run, paired and traced alike


def extract(rev: str, dest: Path) -> Path:
    """Write the tree of `rev` under dest and return dest."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return dest


def bench(root: Path, workload: str, seed: int, trace: int) -> tuple[dict, dict | None]:
    """One perfbench run of the tree at root: (its result line, its environment), or an error record."""
    run = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True,
    )
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or len(lines) < 2:
        return {"error": f"exited {run.returncode}: {run.stderr.strip().splitlines()[-1:]}"}, None
    return json.loads(lines[-1]), json.loads(lines[-2])["env"]


def quartiles(values: list[float]) -> list[float]:
    """Q1, median and Q3 by linear interpolation, as numpy.percentile's default."""
    if len(values) == 1:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: both sides' quartiles, the change's wins and ties, the move and the bound check.

    `pairs` holds {"parent": result, "change": result} records; `metrics` the
    end_to_end entries of BENCHMARK.json. Each side's quartiles are over its
    runs that report the metric. `pairs` counts every pair run; a pair where
    either side lacks the metric (a run that errored) is neither a win nor a
    tie. The bound check reads "unresolved" when the parent's IQR is wider
    than the bound relative to its median, unless every change run is better
    than every parent run.
    """
    out = {}
    for spec in metrics:
        name, sign = spec["name"], 1.0 if spec["better"] == "lower" else -1.0
        got = [[p[side].get("metrics", {}).get(name, {}).get("value") for side in ("parent", "change")]
               for p in pairs]
        parents, changes = ([g[i] for g in got if g[i] is not None] for i in (0, 1))
        if not parents or not changes:
            continue
        both = [(a, b) for a, b in got if a is not None and b is not None]
        parent, change = quartiles(parents), quartiles(changes)
        move = (change[1] - parent[1]) / parent[1] if parent[1] else 0.0
        iqr = parent[2] - parent[0]
        if max(sign * v for v in changes) < min(sign * v for v in parents):
            check = "within"  # every change run better than every parent run
        elif iqr > spec["bound"] * abs(parent[1]):
            check = "unresolved"
        else:
            check = "worse" if sign * move > spec["bound"] else "within"
        out[name] = {
            "parent_q1_median_q3": parent,
            "change_q1_median_q3": change,
            "change_wins": sum(sign * (b - a) < 0 for a, b in both),
            "ties": sum(a == b for a, b in both),
            "pairs": len(pairs),
            "median_change_vs_parent": move,
            "parent_iqr": iqr,
            "bound": spec["bound"],
            "bound_check": check,
        }
    return out


def failed_of_attempted(pairs: list[dict]) -> dict:
    """Per side: [failed, attempted] operations summed over its runs; a run that errored is one of each."""
    return {
        side: [sum(p[side].get("failed", "error" in p[side]) for p in pairs),
               sum(p[side].get("attempted", "error" in p[side]) for p in pairs)]
        for side in ("parent", "change")
    }


def claim_met(summary: dict, failed: dict, better: str) -> bool:
    """Nine tenths of all pairs won, the median better by more than the parent's IQR, and no more
    failed operations than at the parent.

    `failed` is failed_of_attempted's record and `better` the metric's
    "lower" or "higher". A pair whose change run errored is no win, and the
    errored run is a failed operation.
    """
    gain = summary["parent_q1_median_q3"][1] - summary["change_q1_median_q3"][1]
    return (
        summary["change_wins"] >= 0.9 * summary["pairs"]
        and (gain if better == "lower" else -gain) > summary["parent_iqr"]
        and failed["change"][0] <= failed["parent"][0]
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the parent git revision")
    ap.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="first seed; each workload takes the next --pairs")
    ap.add_argument("--workload", action="append", choices=list(WORKLOADS), help="repeatable; default all")
    ap.add_argument("--claim", help="workload:metric the change claims to improve")
    ap.add_argument("--trace-seed", type=int, help="also one traced run per side of the claimed workload")
    ap.add_argument("--what", default="", help="one sentence on what the change does")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.rev], check=True,
                                capture_output=True, text=True).stdout.strip()
    command = f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {SECONDS} --trace 0"
    out: dict = {
        "what": args.what,
        "parent": parent_rev,
        "command": command,
        "method": f"{args.pairs} pairs per workload, parent and change run back to back in fresh processes "
        "from separate copies of the sources, alternating which side runs first (parent first on even "
        "pair index); each workload takes its own consecutive seeds",
        "statistics": "median and quartiles by linear interpolation (numpy.percentile 25/50/75) over the "
        "runs of each side; change_wins counts pairs where the change is better (lower, or higher for a "
        "metric whose better is higher) out of all pairs run, a pair with an errored side counting for "
        "neither; bound_check compares the move of the median with the metric's BENCHMARK.json bound and "
        "reads unresolved when the parent's IQR is wider than the bound, unless every change run is "
        "better than every parent run; a claim is met on nine tenths of the pairs won, a median gain past "
        "the parent's IQR and no more failed operations than the parent's",
        "workloads": {},
    }
    machine = None
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {"parent": extract(args.rev, Path(tmp) / "parent"), "change": ROOT}
        for i, name in enumerate(args.workload or WORKLOADS):
            pairs = []
            for j in range(args.pairs):
                seed = args.seed + i * args.pairs + j
                order = ("parent", "change") if j % 2 == 0 else ("change", "parent")
                record: dict = {"seed": seed, "first": order[0]}
                for side in order:
                    record[side], env = bench(trees[side], name, seed, 0)
                    machine = machine or env
                pairs.append(record)
                print(f"{name} pair {j + 1}/{args.pairs} seed {seed}", file=sys.stderr, flush=True)
            out["workloads"][name] = {
                "summary": summarize(pairs, spec["end_to_end"]),
                "failed_of_attempted": failed_of_attempted(pairs),
                "pairs": pairs,
                "missing": [{"seed": p["seed"], "side": s} for p in pairs for s in trees if "error" in p[s]],
            }
        if args.claim:
            workload, metric = args.claim.split(":")
            summary = out["workloads"][workload]["summary"][metric]
            better = next(m["better"] for m in spec["end_to_end"] if m["name"] == metric)
            out["claim"] = {
                "metric": metric,
                "workload": workload,
                "parent_median": summary["parent_q1_median_q3"][1],
                "parent_iqr": summary["parent_iqr"],
                "change_median": summary["change_q1_median_q3"][1],
                "change_wins": summary["change_wins"],
                "pairs": summary["pairs"],
                "met": claim_met(summary, out["workloads"][workload]["failed_of_attempted"], better),
            }
            if args.trace_seed is not None:
                out["traced"] = [
                    {"workload": workload, "seed": args.trace_seed, "side": side,
                     "result": bench(trees[side], workload, args.trace_seed, 1)[0]}
                    for side in trees
                ]
    out["machine"] = machine
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in benchmark of the simga pipeline: generated text files -> `simga simrank`
-> `simga train --sim` -> test accuracy, in a closed loop with one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload push-hetero --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process runs one workload. One set-up writes the workload's inputs from
the seed, then writes the smoke-size inputs and runs one discarded warm-up
pipeline on them, which loads every module and lets lazy set-up finish;
set-up is done SETUP_REPEATS times and setup_s is the median. Then pipelines
run back to back on the full inputs, the next starting when the previous one
ends. Once MIN_PIPELINES have run, no pipeline starts that would, taking as
long as the last one, end after --seconds; so a run measures for at most
--seconds unless MIN_PIPELINES take longer.
Every pipeline's outputs are checked; a failed check or a nonzero exit counts
the pipeline as failed.

With --trace 0 the last stdout line carries the end-to-end metrics, measured
with no tracing installed. With --trace 1, untraced and traced pipelines
alternate, at least one of each; the last line carries the per-layer metrics of the traced ones, and
the spans are written to perfbench/.work/trace-<workload>-seed<seed>.jsonl.
The line before the last records the workload's reason and the environment.

`--workload all` runs every workload, each in its own process, and prints each
end-to-end metric with its unit and the correctness status.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

SETUP_REPEATS = 3
MIN_PIPELINES = 2
# One BLAS thread: the pipeline's dense products are small, and a second
# thread on a two-CPU box only adds contention and run-to-run spread.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit of the metrics BENCHMARK.json declares for the run's mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def llc_bytes() -> int | None:
    """Size of the highest-level CPU cache, read from sysfs."""
    best = None
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2}.get(size[-1:], 1)
        nbytes = int(size.rstrip("KM")) * scale
        if best is None or level >= best[0]:
            best = (level, nbytes)
    return best[1] if best else None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ[BLAS_VARS[0]]),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "llc_bytes": llc_bytes(),
    }


def import_program() -> bool:
    """Put the checkout's src/ first on the path; False when it holds no simga."""
    src = ROOT / "src"
    if not (src / "simga" / "cli.py").is_file():
        print(f"perfbench: no simga sources under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    import simga

    if Path(simga.__file__).resolve().parent != src / "simga":
        print(f"perfbench: imported simga from {simga.__file__}, not {src}", file=sys.stderr)
        return False
    return True


def attempt(spec, inputs, out, seed, tracer=None):
    """One pipeline; an unexpected exception is a failed pipeline, not a failed run."""
    from pipeline import PipelineResult, run_pipeline

    try:
        return run_pipeline(spec, inputs, out, seed, tracer)
    except Exception as exc:  # the loop must keep measuring; the traceback is kept
        traceback.print_exc()
        return PipelineResult(0.0, 0.0, 0.0, error=f"exception: {exc!r}")


def run_workload(args: argparse.Namespace) -> int:
    if not import_program():
        return 2
    import gen
    from spans import Instrumentation, Tracer, layer_metrics, traced_errors
    from workloads import workload

    spec = workload(args.workload, smoke=args.smoke)
    warm_spec = workload(args.workload, smoke=True)
    work = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    attempted = failed = 0

    def record(result):
        nonlocal attempted, failed
        attempted += 1
        if result.error:
            failed += 1
            print(f"perfbench: pipeline failed: {result.error}", file=sys.stderr)

    tracer = Tracer() if args.trace else None
    instr = Instrumentation(tracer) if args.trace else None
    plain, traced = [], []
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = gen.generate(spec["graph"], args.seed, work / "inputs")
            warm_inputs = gen.generate(warm_spec["graph"], args.seed, work / "warm")
            record(attempt(warm_spec, warm_inputs, work / "warm", args.seed))
            setups.append(time.perf_counter() - t0)
        setup_s = statistics.median(setups)

        deadline = time.perf_counter() + args.seconds
        while True:
            use_trace = bool(args.trace) and len(traced) < len(plain)
            gc.collect()
            if use_trace:
                tracer.pipeline = len(traced)
                instr.install()
                try:
                    result = attempt(spec, inputs, work / "out", args.seed, tracer)
                finally:
                    instr.uninstall()
                if not result.error:
                    result.error = traced_errors(tracer, tracer.pipeline, inputs)
                traced.append(result)
            else:
                result = attempt(spec, inputs, work / "out", args.seed)
                plain.append(result)
            record(result)
            enough = bool(traced) if args.trace else len(plain) >= MIN_PIPELINES
            if enough and time.perf_counter() + result.pipeline_s > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok_plain = [r for r in plain if not r.error]
    metrics: dict[str, float] = {}
    if not args.trace and ok_plain:
        metrics = {
            "pipeline_s": statistics.median(r.pipeline_s for r in ok_plain),
            "precompute_s": statistics.median(r.precompute_s for r in ok_plain),
            "train_s": statistics.median(r.train_s for r in ok_plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "test_acc": statistics.median(r.test_acc for r in ok_plain),
            "setup_s": setup_s,
        }
    elif args.trace:
        ok = [i for i, r in enumerate(traced) if not r.error]
        if ok and ok_plain:
            metrics = layer_metrics(tracer, ok)
            for key in traced[ok[0]].facts:
                metrics[key] = statistics.median(traced[i].facts[key] for i in ok)
            metrics["data.input_bytes"] = float(inputs.input_bytes)
            metrics["trace.overhead_ratio"] = statistics.median(
                traced[i].pipeline_s for i in ok
            ) / statistics.median(r.pipeline_s for r in ok_plain)

    info = {
        "workload": args.workload,
        "why": spec["why"],
        "seed": args.seed,
        "smoke": args.smoke,
        "pipeline_s": {"untraced": [r.pipeline_s for r in plain], "traced": [r.pipeline_s for r in traced]},
        "env": environment(),
    }
    if args.trace:
        WORK.mkdir(parents=True, exist_ok=True)
        tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl", info)
    units = declared_units(args.trace)
    print(json.dumps(info))
    missing = sorted(set(units) - set(metrics))
    if missing:  # a result must carry every declared metric; without one there is none
        print(f"perfbench: {failed} of {attempted} pipelines failed; no value for {missing}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in sorted(units.items())},
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; a table of metrics, units and status."""
    from workloads import WORKLOADS

    status = 0
    print(f"{'workload':<12} {'metric':<34} {'value':>14}  unit")
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name:<12} exited {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        for metric, m in result["metrics"].items():
            print(f"{name:<12} {metric:<34} {m['value']:>14.6g}  {m['unit']}")
        share = result["failed"] / result["attempted"]
        print(f"{name:<12} {'failed_ops':<34} {share:>14.6g}  share")
        print(f"{name:<12} {'correct':<34} {str(result['correct']):>14}")
        status = status or (0 if result["correct"] else 1)
    return status


def parse_args(argv: list[str]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    for var in BLAS_VARS:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    sys.exit(main(sys.argv[1:]))

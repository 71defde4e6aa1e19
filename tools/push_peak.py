"""Print the local push's work, time and traced memory round by round, then its totals.

Usage, from anywhere in a checkout:

    python3 tools/push_peak.py uniform <n> <degree> [--seed 1] [--eps 0.1] [--workers N] [--src DIR]
    python3 tools/push_peak.py edges <edge file> [--eps 0.1] [--workers N] [--src DIR]

`uniform` builds `random_graph(n, degree, seed)`; `edges` loads an edge list in
the documented text format. --src imports simga from another source tree (the
`src` directory of a `git archive` of a revision, say), so two revisions can be
compared on one graph; it defaults to this checkout's `src`. --workers sets
simrank.PUSH_WORKERS, the push's threads, in place of one per usable core; 1
runs the blocks one at a time, as a tree without the pool does.

A round starts where the push forms P @ sel, and runs to the next round's
P @ sel or to the push's return, so it holds the round's spread and sum and the
next round's selection. Per round it prints the entries committed (hot), the
entries of the full spread c P sel P^T, the entries of R as the round finds it
(committed ones still stored as zeros), the wall time, the tracemalloc peak and
that peak over the final residual's data and index bytes. The first row, round
0, is the set-up before the first product. Counts and times come from a pass
without tracemalloc, whose probe forms the spread once more and keeps a whole R
of its own, outside the timed intervals; the peaks come from a second, traced
pass that the probe does not touch. Decay c is 0.6, as in the pipeline's
default. Only the standard library, numpy and scipy are used beside simga
itself.
"""

from __future__ import annotations

import argparse
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy.sparse as sp

ROOT = Path(__file__).resolve().parent.parent


def observed_push(simrank, g, eps: float, traced: bool) -> tuple[list[dict], object]:
    """Run simrank_localpush once and return one record per round plus its result.

    Untraced, a round's record holds its counts and time; traced, its peak. The
    counts come from a whole-matrix R that the probe keeps beside the push's,
    R <- R - sel + c P sel P^T, which would distort a traced peak.
    """
    rounds: list[dict] = [{}]  # round 0: the set-up
    clock = {"start": 0.0, "spent": 0.0}  # spent: the probe's own time in the open round
    pt = simrank.transition(g).T.tocsr()
    r = sp.identity(g.n, format="csr")

    def close_round() -> None:
        now = time.perf_counter()
        rounds[-1]["s"] = now - clock["start"] - clock["spent"]
        if traced:
            rounds[-1]["peak"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
        clock["start"], clock["spent"] = now, 0.0

    class Watched(sp.csr_matrix):
        def __matmul__(self, sel):
            nonlocal r
            close_round()
            ps = sp.csr_matrix(super().__matmul__(sel))  # scipy returns the operand's class: unwatch it
            rounds.append({})
            if not traced:
                probe = time.perf_counter()
                spread = ps @ pt * 0.6
                rounds[-1].update(hot=sel.nnz, spread_nnz=spread.nnz, r_nnz=r.nnz)
                r = (r - sel) + spread
                clock["spent"] += time.perf_counter() - probe
            return ps

    real = simrank.transition
    simrank.transition = lambda graph: Watched(real(graph))
    try:
        if traced:
            tracemalloc.start()
        clock["start"] = time.perf_counter()
        raw = simrank.simrank_localpush(g, 0.6, eps)
        close_round()
    finally:
        tracemalloc.stop()
        simrank.transition = real
    return rounds, raw


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("kind", choices=["uniform", "edges"])
    ap.add_argument("args", nargs="+", help="n and degree for uniform, an edge file for edges")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--workers", type=int, help="simrank.PUSH_WORKERS for both passes (default: the tree's own)")
    ap.add_argument("--src", default=str(ROOT / "src"), help="the source tree to import simga from")
    opts = ap.parse_args(argv)
    sys.path.insert(0, opts.src)
    from simga import simrank
    from simga.graph import load_edge_list, random_graph

    if opts.workers is not None:
        if opts.workers < 1 or not hasattr(simrank, "PUSH_WORKERS"):
            ap.error(f"--workers needs a value >= 1 and a tree whose push has PUSH_WORKERS ({opts.src})")
        simrank.PUSH_WORKERS = opts.workers
    if opts.kind == "uniform":
        n, degree = int(opts.args[0]), float(opts.args[1])
        g = random_graph(n, degree, seed=opts.seed)
        name = f"random_graph({n}, {degree:g}, seed={opts.seed})"
    else:
        with open(opts.args[0]) as fh:
            g = load_edge_list(fh)
        name = opts.args[0]
    counted, _ = observed_push(simrank, g, opts.eps, traced=False)
    traced, raw = observed_push(simrank, g, opts.eps, traced=True)
    r = raw.residual
    r_bytes = r.data.nbytes + r.indices.nbytes
    workers = getattr(simrank, "PUSH_WORKERS", 1)
    print(f"{name}, n {g.n}, eps {opts.eps:g}, {workers} workers, simga from {simrank.__file__}")
    print(f"{'round':>5} {'hot':>10} {'spread nnz':>12} {'R nnz':>12} {'ms':>9} {'peak MB':>9} {'peak/R':>7}")
    for i, (m, t) in enumerate(zip(counted, traced)):
        print(f"{i:>5} {m.get('hot', 0):>10} {m.get('spread_nnz', 0):>12} {m.get('r_nnz', 0):>12} "
              f"{m['s'] * 1e3:>9.1f} {t['peak'] / 1e6:>9.1f} {t['peak'] / r_bytes:>7.2f}")
    peak = max(t["peak"] for t in traced)
    print(f"total: {len(counted) - 1} rounds, {raw.pops} pops, {sum(m['s'] for m in counted) * 1e3:.1f} ms, "
          f"traced peak {peak / 1e6:.1f} MB = {peak / r_bytes:.2f} x the final R "
          f"({r.nnz} entries, {r_bytes / 1e6:.1f} MB of data and indices)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

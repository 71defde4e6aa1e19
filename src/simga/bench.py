"""Scaling benchmark: similarity precompute + pruning + one training epoch across a size ladder.

Graphs are generated at a fixed average degree so the node count is the only
variable; the fitted log-log slope of total time against n is the reported
growth exponent (near 1 = near-linear).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import DatasetBundle
from .errors import ParameterError
from .graph import random_graph
from .model import HyperParams, _train_step, init_params, precompute_similarity
from .nn import adam_init

__all__ = ["BenchRow", "BenchResult", "run_bench", "format_tsv"]

FEATURES = 32  # Gaussian feature columns of each ladder graph


@dataclass
class BenchRow:
    n: int
    precompute_seconds: float
    epoch_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.precompute_seconds + self.epoch_seconds


@dataclass
class BenchResult:
    rows: list[BenchRow]
    exponent: float


def _synthetic_bundle(rng: np.random.Generator, n: int, degree: float):
    g = random_graph(n, avg_degree=degree, seed=int(rng.integers(0, 2**31)))
    features = rng.normal(size=(n, FEATURES))
    labels = rng.integers(0, 2, size=n)
    idx = rng.permutation(n)
    return DatasetBundle(g, features, labels, 2, idx[: n // 2], idx[n // 2 : 3 * n // 4], idx[3 * n // 4 :])


def run_bench(
    ladder: list[int],
    degree: float = 8.0,
    eps: float = 0.1,
    k: int = 64,
    c: float = 0.6,
    seed: int = 0,
) -> BenchResult:
    if len(set(ladder)) < 2:  # the exponent is a line fitted through the sizes
        raise ParameterError("ladder needs at least two distinct sizes")
    if any(n < 8 for n in ladder):
        raise ParameterError("ladder sizes must be >= 8")
    if seed < 0:
        raise ParameterError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    rows: list[BenchRow] = []
    for n in ladder:
        bundle = _synthetic_bundle(rng, n, degree)
        hp = HyperParams(k=k, eps=eps, c=c, sim_mode="approx", dropout=0.0, width=64)

        t0 = time.perf_counter()
        sim = precompute_similarity(bundle.graph, hp)
        precompute_seconds = time.perf_counter() - t0

        params = init_params(rng, bundle.num_features, n, bundle.num_classes, hp)
        state = adam_init(params.arrays())
        t0 = time.perf_counter()
        _train_step(bundle, sim, params, hp, state, rng)  # the step fit runs each epoch
        epoch_seconds = time.perf_counter() - t0

        rows.append(BenchRow(n=n, precompute_seconds=precompute_seconds, epoch_seconds=epoch_seconds))
    logs_n = np.log([r.n for r in rows])
    logs_t = np.log([max(r.total_seconds, 1e-9) for r in rows])
    exponent = float(np.polyfit(logs_n, logs_t, 1)[0])
    return BenchResult(rows=rows, exponent=exponent)


def format_tsv(result: BenchResult) -> str:
    lines = ["n\tprecompute_seconds\tepoch_seconds\ttotal_seconds"]
    for r in result.rows:
        lines.append(f"{r.n}\t{r.precompute_seconds:.6f}\t{r.epoch_seconds:.6f}\t{r.total_seconds:.6f}")
    lines.append(f"exponent\t{result.exponent:.4f}")
    return "\n".join(lines) + "\n"

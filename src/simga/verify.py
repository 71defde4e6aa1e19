"""Executable checks of the package's structural guarantees, used by the `verify` subcommand.

Three suites, each on freshly generated graphs:

  walks  -- matrix-power walk distributions equal brute-force tour enumeration,
            and pairwise meeting probabilities equal paired-tour enumeration.
  push   -- the push estimate stays within eps of the truncated power series
            in max norm, and the residual guard holds on exit.
  twins  -- nodes with identical feature rows and neighbor sets get identical
            aggregated embedding rows for arbitrary parameters (dropout off).

Each suite reports its measured worst error next to the bound it must meet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import gen_twin_graph
from .errors import ParameterError
from .graph import Graph, random_graph, transition
from .model import HyperParams, aggregate, embed, init_params, precompute_similarity
from .simrank import simrank_localpush, simrank_power_series
from .walks import enumerate_tours, meeting_probability, walk_distribution

__all__ = ["SuiteResult", "walk_suite", "push_suite", "twin_suite", "run_all"]

WALK_GRAPHS, PUSH_GRAPHS, TWIN_BUNDLES = 10, 6, 3  # inputs per suite
PUSH_EPS, PUSH_C = 0.05, 0.6  # the push suite's accuracy target and decay factor


@dataclass
class SuiteResult:
    name: str
    max_error: float
    bound: float
    passed: bool
    detail: str


def _paired_tour_meeting(g: Graph, u: int, v: int, length: int) -> float:
    """Enumerate both walks' tours and sum endpoint-probability products at shared endpoints."""
    hv = enumerate_tours(g, v, length)
    return sum(pu * hv.get(x, 0.0) for x, pu in enumerate_tours(g, u, length).items())


def walk_suite(seed: int = 0) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(WALK_GRAPHS):
        n = int(rng.integers(3, 13))
        g = random_graph(n, avg_degree=2.5, seed=int(rng.integers(0, 2**31)))
        p = transition(g)
        for u in range(g.n):
            for length in range(0, 7):
                dist = walk_distribution(p, u, length)
                tours = enumerate_tours(g, u, length)
                dense = np.zeros(g.n)
                for node, prob in tours.items():
                    dense[node] = prob
                worst = max(worst, float(np.abs(dist - dense).max()))
        # meeting probability against the paired enumeration on small lengths
        for _ in range(4):
            u, v = rng.integers(0, min(g.n, 8), size=2)
            for length in range(1, 4):
                direct = meeting_probability(p, int(u), int(v), length)
                paired = _paired_tour_meeting(g, int(u), int(v), length)
                worst = max(worst, abs(direct - paired))
    bound = 1e-12
    return SuiteResult(
        name="walks",
        max_error=worst,
        bound=bound,
        passed=worst <= bound,
        detail=f"{WALK_GRAPHS} graphs, all sources, lengths 0..6",
    )


def push_suite(seed: int = 0) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    guard_ok = True
    for _ in range(PUSH_GRAPHS):
        n = int(rng.integers(30, 121))
        g = random_graph(n, avg_degree=6.0, seed=int(rng.integers(0, 2**31)), min_degree=2)
        push = simrank_localpush(g, PUSH_C, PUSH_EPS)
        if push.max_residual() > (1.0 - PUSH_C) * PUSH_EPS:
            guard_ok = False
        series = simrank_power_series(g, PUSH_C, 50)
        gap = float(np.abs(push.estimate.toarray() - series).max())
        worst = max(worst, gap)
    passed = guard_ok and worst <= PUSH_EPS
    detail = f"{PUSH_GRAPHS} graphs, eps={PUSH_EPS}" + ("" if guard_ok else "; residual guard violated")
    return SuiteResult(name="push", max_error=worst, bound=PUSH_EPS, passed=passed, detail=detail)


def twin_suite(seed: int = 0) -> SuiteResult:
    worst = 0.0
    for i in range(TWIN_BUNDLES):
        bundle, pairs = gen_twin_graph(base_seed=seed + i, twin_pairs=2 + i)
        hp = HyperParams(dropout=0.0, k=bundle.n, eps=0.01, width=16, mlp_h_depth=2)
        rng = np.random.default_rng(seed + 1000 + i)
        params = init_params(rng, bundle.num_features, bundle.n, bundle.num_classes, hp)
        for block in (params.mlp_f, params.mlp_a, params.mlp_h):
            for layer in block:  # arbitrary parameters, not just init-scaled ones
                layer.weight += rng.normal(scale=0.5, size=layer.weight.shape)
                layer.bias += rng.normal(scale=0.5, size=layer.bias.shape)
        sim = precompute_similarity(bundle.graph, hp)
        h = embed(bundle, params, hp, training=False)
        z = aggregate(sim, h, hp.alpha)
        for u, v in pairs:
            worst = max(worst, float(np.abs(z[u] - z[v]).max()))
    bound = 1e-9
    return SuiteResult(
        name="twins",
        max_error=worst,
        bound=bound,
        passed=worst <= bound,
        detail=f"{TWIN_BUNDLES} twin bundles, arbitrary parameters, dropout off",
    )


def run_all(seed: int = 0) -> list[SuiteResult]:
    if seed < 0:
        raise ParameterError("seed must be >= 0")
    return [walk_suite(seed=seed), push_suite(seed=seed), twin_suite(seed=seed)]

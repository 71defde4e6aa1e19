"""Seeded input generator for the benchmark's two graph families.

It is written against numpy only, not against the generators in `simga.data`
or `simga.graph`, so that a change to those cannot shift a workload. It writes
the documented text formats (edge list, features, labels, three splits) and
returns what it wrote, including the node and edge counts and the input size
in bytes. The same seed always gives byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

FILES = ("edges", "features", "labels", "train", "val", "test")


@dataclass
class Inputs:
    """Paths of one generated dataset plus the facts the checks compare against."""

    paths: dict[str, Path]
    n: int
    m: int
    labels: np.ndarray
    num_classes: int
    input_bytes: int


def ring_family(rng: np.random.Generator, n: int, classes: int, feature_dim: int = 16):
    """Structural-heterophily ring; labels are structural roles, features pure noise.

    A ring of blocks, each with one group of `a` nodes per class. Consecutive
    class groups of a block are joined completely bipartite, the last class
    group joins class 0 of the next block, and class-0 groups are cliques (so
    the roles are not interchangeable). n is rounded down to a * classes *
    blocks. The graph and its node ids are the same for every seed, so every
    seed costs the same work; the seed draws the features, the splits and the
    order of the edge file.
    """
    group = max(2, min(4, n // (3 * classes)))
    blocks = n // (group * classes)
    n = blocks * group * classes
    b = np.arange(blocks)[:, None, None]
    ii, jj = np.meshgrid(np.arange(group), np.arange(group), indexing="ij")
    ii, jj = ii[None], jj[None]

    def member(blk, cls, i):
        return blk * group * classes + cls * group + i

    parts = []
    upper = (ii < jj)[0]
    parts.append((member(b, 0, ii)[:, upper], member(b, 0, jj)[:, upper]))
    for cls in range(classes - 1):
        parts.append((member(b, cls, ii), member(b, cls + 1, jj)))
    parts.append((member(b, classes - 1, ii), member((b + 1) % blocks, 0, jj)))
    src = np.concatenate([p[0].ravel() for p in parts])
    dst = np.concatenate([p[1].ravel() for p in parts])
    labels = (np.arange(n) // group) % classes
    features = rng.normal(size=(n, feature_dim))
    return n, src, dst, labels, features


def uniform_family(
    rng: np.random.Generator, n: int, avg_degree: float, classes: int, feature_dim: int, signal: float
):
    """Uniform random simple graph with n*avg_degree/2 edges and a planted feature signal.

    Labels are uniform and independent of the graph. Each class has a random
    unit mean direction; a node's features are that direction times `signal`
    plus standard Gaussian noise.
    """
    m = int(round(avg_degree * n / 2.0))
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        u = rng.integers(0, n, size=2 * m)
        v = rng.integers(0, n, size=2 * m)
        keep = u != v
        lo, hi = np.minimum(u[keep], v[keep]), np.maximum(u[keep], v[keep])
        fresh = lo * n + hi
        # keep first occurrences in draw order, so the result is set by the seed alone
        allk = np.concatenate([keys, fresh])
        _, first = np.unique(allk, return_index=True)
        keys = allk[np.sort(first)]
    src, dst = np.divmod(keys[:m], n)
    # the loader sizes the graph by the largest id, so node n-1 must have an edge
    top = max(src.max(), dst.max())
    if top != n - 1:
        swap = np.arange(n)
        swap[[top, n - 1]] = [n - 1, top]
        src, dst = swap[src], swap[dst]
    labels = rng.integers(0, classes, size=n)
    means = rng.normal(size=(classes, feature_dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    features = rng.normal(size=(n, feature_dim)) + signal * means[labels]
    return n, src, dst, labels, features


def _write_rows(path: Path, fmt: str, arr: np.ndarray) -> None:
    """Write a 1-D or 2-D array one row per line with a %-format per value."""
    arr = arr.reshape(arr.shape[0], -1)
    line = " ".join([fmt] * arr.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write((line * arr.shape[0]) % tuple(arr.ravel().tolist()))


def write_inputs(
    out_dir: Path,
    rng: np.random.Generator,
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    labels: np.ndarray,
    features: np.ndarray,
    num_classes: int,
) -> Inputs:
    """Write one dataset: edges in shuffled order and orientation, 50/25/25 random splits."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: out_dir / f"{name}.txt" for name in FILES}
    order = rng.permutation(src.size)
    flip = rng.random(src.size) < 0.5
    a, b = src[order], dst[order]
    edges = np.column_stack([np.where(flip, b, a), np.where(flip, a, b)])
    _write_rows(paths["edges"], "%d", edges)
    _write_rows(paths["features"], "%.6f", features)
    _write_rows(paths["labels"], "%d", labels)
    split = rng.permutation(n)
    cut1, cut2 = n // 2, n // 2 + n // 4
    for name, idx in (("train", split[:cut1]), ("val", split[cut1:cut2]), ("test", split[cut2:])):
        _write_rows(paths[name], "%d", idx)
    return Inputs(
        paths=paths,
        n=n,
        m=int(src.size),
        labels=np.asarray(labels, dtype=np.int64),
        num_classes=num_classes,
        input_bytes=sum(p.stat().st_size for p in paths.values()),
    )


def generate(spec: dict, seed: int, out_dir: Path) -> Inputs:
    """Generate and write the inputs a workload spec describes, from the seed alone."""
    rng = np.random.default_rng(seed)
    family = spec["family"]
    if family == "ring":
        n, src, dst, labels, features = ring_family(rng, spec["n"], spec["classes"])
    elif family == "uniform":
        n, src, dst, labels, features = uniform_family(
            rng, spec["n"], spec["degree"], spec["classes"], spec["features"], spec["signal"]
        )
    else:
        raise ValueError(f"unknown graph family {family!r}")
    return write_inputs(out_dir, rng, n, src, dst, labels, features, spec["classes"])

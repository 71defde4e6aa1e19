"""Dataset bundles: text loaders and synthetic generators used by tests and benchmarks.

File formats (all UTF-8 text):
  features  one node per line, whitespace-separated decimal reals, line i = node i
  labels    one integer per line, line i = node i
  splits    three files (train/val/test), one node id per line

Each loader takes an open text stream and reads it with one textio.read_table
call: a numpy pass, and the shared line loop, which words the errors, for
any file that pass cannot vouch for.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable

import numpy as np

from .errors import InputFormatError, ParameterError
from .graph import Graph, _add_random_edges, build_graph, load_edge_list, node_homophily
from .textio import input_error, read_table

__all__ = [
    "DatasetBundle",
    "load_features",
    "load_labels",
    "load_split",
    "load_per_node",
    "load_bundle",
    "gen_twin_graph",
    "gen_structural_heterophily",
]

TWIN_FEATURES, TWIN_CLASSES, HETEROPHILY_FEATURES = 8, 3, 16  # the generators' feature columns and classes
FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass
class DatasetBundle:
    """Graph + node features + integer labels + disjoint train/val/test indices.

    Features stay float32 or float64 as given, and `fit` trains in their
    dtype; any other dtype becomes float64.
    """

    graph: Graph
    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features)
        if self.features.dtype not in (np.float32, np.float64):
            self.features = self.features.astype(np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.train_idx = np.asarray(self.train_idx, dtype=np.int64)
        self.val_idx = np.asarray(self.val_idx, dtype=np.int64)
        self.test_idx = np.asarray(self.test_idx, dtype=np.int64)
        n = self.graph.n
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise InputFormatError(f"feature matrix must have {n} rows")
        if self.labels.shape != (n,):
            raise InputFormatError(f"labels must have length {n}")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise InputFormatError("label outside [0, num_classes)")
        all_idx = np.concatenate([self.train_idx, self.val_idx, self.test_idx])
        if all_idx.size and (all_idx.min() < 0 or all_idx.max() >= n):
            raise InputFormatError("split index out of range")
        if np.bincount(all_idx, minlength=n).max(initial=0) > 1:  # O(n); np.unique sorts
            raise InputFormatError("train/val/test splits overlap")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


def load_features(source: IO[str]) -> np.ndarray:
    """Feature matrix as float32, one node per line, which sets the training dtype.

    Parsed as float64 first; rejects ragged rows, non-finite values and values
    past float32's range, which the cast would turn into infinities.
    """
    feats = read_table(source, np.float64, "feature value", empty="empty feature file")
    for bad, what in (
        (~np.isfinite(feats), "non-finite feature value"),
        (np.abs(feats) > FLOAT32_MAX, "feature value past float32's range"),
    ):
        if bad.any():
            raise input_error(source, f"node {np.flatnonzero(bad.any(axis=1))[0]}: {what}")
    return feats.astype(np.float32)


def load_labels(source: IO[str]) -> np.ndarray:
    """Integer labels, one per line, line i = node i; an empty file is refused."""
    return read_table(source, np.int64, "label", 1, empty="empty label file").reshape(-1)


def load_split(source: IO[str]) -> np.ndarray:
    """Node ids, one per line; an empty split is allowed."""
    return read_table(source, np.int64, "node id", 1).reshape(-1)


def load_per_node(path: str | Path, load: Callable, n: int, what: str) -> np.ndarray:
    """What `load` reads from the file at `path`, refused unless it holds one row per node."""
    with open(path) as fh:
        rows = load(fh)
        if len(rows) != n:
            raise input_error(fh, f"holds {len(rows)} {what}, the graph has {n} nodes")
    return rows


def load_bundle(
    edges: str | Path,
    features: str | Path,
    labels: str | Path,
    train_split: str | Path,
    val_split: str | Path,
    test_split: str | Path,
) -> DatasetBundle:
    """Load the documented text formats from disk into a DatasetBundle; each refusal names its file."""
    with open(edges) as fh:
        graph = load_edge_list(fh)
    n = graph.n
    feats = load_per_node(features, load_features, n, "feature rows")
    labs = load_per_node(labels, load_labels, n, "labels")
    if labs.min() < 0:
        raise InputFormatError(f"{labels}: negative label {labs.min()}")
    idx = []
    listed = np.zeros(n, dtype=np.int64)  # times each node is listed by the splits read so far
    for path in (train_split, val_split, test_split):
        with open(path) as fh:
            idx.append(load_split(fh))
            if idx[-1].size and (idx[-1].min() < 0 or idx[-1].max() >= n):
                raise input_error(fh, f"node id outside [0, {n})")
            listed += np.bincount(idx[-1], minlength=n)
            if listed.max(initial=0) > 1:
                raise input_error(fh, f"node {np.argmax(listed > 1)} is listed twice across the splits")
    return DatasetBundle(graph, feats, labs, int(labs.max()) + 1, *idx)


def _random_splits(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    order = rng.permutation(n)
    a, b = n // 2, n // 2 + n // 4
    return order[:a], order[a:b], order[b:]


def gen_twin_graph(
    base_seed: int, twin_pairs: int, base_nodes: int = 24
) -> tuple[DatasetBundle, list[tuple[int, int]]]:
    """Random bundle where each designated twin pair shares its neighbor set and feature row.

    Twins occupy the ids after the base block: pair i is (base_nodes + 2i,
    base_nodes + 2i + 1). Both members attach to the same sampled base nodes
    and the feature row of the second is a bit-exact copy of the first.
    Returns the bundle together with the twin pair list.
    """
    if twin_pairs < 1:
        raise ParameterError("twin_pairs must be >= 1")
    rng = np.random.default_rng(base_seed)
    n = base_nodes + 2 * twin_pairs
    edges: set[tuple[int, int]] = set()
    _add_random_edges(rng, base_nodes, edges, 2 * base_nodes)
    pairs: list[tuple[int, int]] = []
    for i in range(twin_pairs):
        u = base_nodes + 2 * i
        v = u + 1
        size = int(rng.integers(2, 6))
        anchors = rng.choice(base_nodes, size=size, replace=False)
        for a in anchors:
            edges.add((int(a), u))
            edges.add((int(a), v))
        pairs.append((u, v))
    graph = build_graph(n, edges)
    features = rng.normal(size=(n, TWIN_FEATURES))
    labels = rng.integers(0, TWIN_CLASSES, size=n)
    for u, v in pairs:
        features[v] = features[u]
    train, val, test = _random_splits(rng, n)
    bundle = DatasetBundle(graph, features, labels, TWIN_CLASSES, train, val, test)
    return bundle, pairs


def gen_structural_heterophily(seed: int, n: int, classes: int) -> DatasetBundle:
    """Low-homophily bundle whose labels encode structural role, not features.

    Construction: a ring of B blocks, each holding one group of `a` nodes per
    class. Within a block, consecutive class layers are joined completely
    bipartite (class c to class c+1), and the last layer connects to class 0 of
    the next block, closing the ring. Class-0 groups additionally form small
    cliques, which breaks the layer-swap symmetry so the label really is a
    function of graph structure (degree and triangle membership differ by
    role). Same-class nodes of a block share their entire outside neighborhood.
    Most edges cross classes: node homophily is (a-1)/((3a-1)*classes) < 0.3.
    Features are pure Gaussian noise, uninformative about the label. n is
    rounded down to a*classes*B.
    """
    if classes < 2:
        raise ParameterError("need at least two classes")
    if n < 4 * classes:
        raise ParameterError("need n >= 4 * classes")
    rng = np.random.default_rng(seed)
    group = max(2, min(4, n // (3 * classes)))
    blocks = n // (group * classes)
    n_eff = blocks * group * classes

    def member(b: int, c: int, i: int) -> int:
        return b * group * classes + c * group + i

    labels = np.zeros(n_eff, dtype=np.int64)
    edges: list[tuple[int, int]] = []
    for b in range(blocks):
        for c in range(classes):
            for i in range(group):
                labels[member(b, c, i)] = c
        for i in range(group):  # symmetry breaker: class-0 groups are cliques
            for j in range(i + 1, group):
                edges.append((member(b, 0, i), member(b, 0, j)))
        for c in range(classes - 1):
            for i in range(group):
                for j in range(group):
                    edges.append((member(b, c, i), member(b, c + 1, j)))
        nxt = (b + 1) % blocks
        for i in range(group):
            for j in range(group):
                edges.append((member(b, classes - 1, i), member(nxt, 0, j)))
    graph = build_graph(n_eff, edges)
    features = rng.normal(size=(n_eff, HETEROPHILY_FEATURES))
    train, val, test = _random_splits(rng, n_eff)
    bundle = DatasetBundle(graph, features, labels, classes, train, val, test)
    assert node_homophily(graph, labels) < 0.3
    return bundle

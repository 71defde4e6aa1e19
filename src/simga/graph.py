"""Undirected sparse graph container, ingestion, and the random-walk transition matrix.

Graphs are stored CSR-style (offsets + concatenated sorted neighbor lists).
They are plain containers: immutable by convention after construction, safe to
share across threads. Self-loops are dropped and duplicate edges collapsed at
ingestion; node ids are dense 0-based integers and are never remapped, so gaps
in the id range become isolated nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np
import scipy.sparse as sp

from .errors import InputFormatError, ParameterError
from .textio import read_table

__all__ = [
    "Graph",
    "build_graph",
    "load_edge_list",
    "node_homophily",
    "transition",
    "random_graph",
    "random_connected_graph",
]


@dataclass
class Graph:
    """Symmetric, self-loop-free graph over nodes 0..n-1.

    offsets has length n+1 with offsets[-1] == 2*m; neighbors(u) is the
    strictly increasing slice neighbors[offsets[u]:offsets[u+1]].
    """

    n: int
    m: int
    offsets: np.ndarray
    neighbors: np.ndarray
    degrees: np.ndarray
    _adj_csr: sp.csr_matrix | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        self.neighbors = np.asarray(self.neighbors, dtype=np.int64)
        self.degrees = np.asarray(self.degrees, dtype=np.int64)
        _check_invariants(self)

    def neighbor_slice(self, u: int) -> np.ndarray:
        return self.neighbors[self.offsets[u] : self.offsets[u + 1]]

    def adjacency_csr(self) -> sp.csr_matrix:
        """Binary adjacency matrix as float64 CSR (built once, then cached)."""
        if self._adj_csr is None:
            data = np.ones(len(self.neighbors), dtype=np.float64)
            self._adj_csr = sp.csr_matrix(
                (data, self.neighbors.copy(), self.offsets.copy()), shape=(self.n, self.n)
            )
        return self._adj_csr


def _check_invariants(g: Graph) -> None:
    if g.offsets.shape != (g.n + 1,):
        raise InputFormatError("offsets must have length n+1")
    if g.offsets[0] != 0 or g.offsets[-1] != 2 * g.m:
        raise InputFormatError("offsets must start at 0 and end at 2m")
    if np.any(np.diff(g.offsets) < 0):
        raise InputFormatError("offsets must be monotone nondecreasing")
    if not np.array_equal(np.diff(g.offsets), g.degrees):
        raise InputFormatError("degrees inconsistent with offsets")
    if int(g.degrees.sum()) != 2 * g.m:
        raise InputFormatError("degree sum must equal 2m")
    if len(g.neighbors) and (g.neighbors.min() < 0 or g.neighbors.max() >= g.n):
        raise InputFormatError("neighbor id out of range")
    # the first node, by id, whose list is out of order or holds itself; out of
    # order is reported first when one node has both
    owner = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
    unordered = owner[1:][(owner[1:] == owner[:-1]) & (np.diff(g.neighbors) <= 0)]
    looped = owner[g.neighbors == owner]
    u_order = int(unordered[0]) if unordered.size else g.n
    u_loop = int(looped[0]) if looped.size else g.n
    if u_order < g.n and u_order <= u_loop:
        raise InputFormatError(f"neighbor list of node {u_order} not strictly increasing")
    if u_loop < g.n:
        raise InputFormatError(f"self-loop at node {u_loop}")
    # symmetry: u in N(v) iff v in N(u)
    a = g.adjacency_csr()
    if abs(a - a.T).nnz != 0:
        raise InputFormatError("adjacency not symmetric")


# the largest node count whose packed pair keys u*n + v (u, v < n) fit int64
_MAX_NODES = math.isqrt(np.iinfo(np.int64).max)


def build_graph(n: int, edges: np.ndarray | Iterable[tuple[int, int]]) -> Graph:
    """Assemble a Graph from undirected edge pairs (either orientation, dups ok).

    `edges` is an (m, 2) integer array or an iterable of pairs, with ids in
    [0, n). Each edge is keyed once as min*n + max; the unique keys, mirrored
    and sorted, are the CSR in (node, neighbor) order.
    """
    pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
    pairs = pairs.reshape(len(pairs), 2)
    if n > _MAX_NODES:  # keys would wrap; one n-long int64 array alone would pass 24 GB
        raise MemoryError(
            f"{n} nodes: node ids must stay below {_MAX_NODES}, so that pair keys fit int64"
        )
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise InputFormatError(f"edge endpoint outside [0, {n})")
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    loop = lo == hi
    keys = lo[~loop] * n + hi[~loop]
    # sort + first-of-run, not np.unique: on numpy 2.4 np.unique of 1.6M int64
    # keys took 1.5 s, sorting them 0.03 s
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    m = keys.size
    lo, hi = np.divmod(keys, n)
    both = np.concatenate([keys, hi * n + lo])
    both.sort()
    src, dst = np.divmod(both, n)
    degrees = np.bincount(src, minlength=n).astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    return Graph(n=n, m=m, offsets=offsets, neighbors=dst, degrees=degrees)


def load_edge_list(source: IO[str]) -> Graph:
    """Parse a "u v" edge list; '#'-prefixed and blank lines are ignored.

    Ids are nonnegative integers; the graph spans 0..max_id, so unreferenced
    ids in that range come out isolated. Raises InputFormatError with the
    offending 1-based line number on malformed input, and on empty input.
    """
    pairs = read_table(
        source, np.int64, "node id", 2, comments=True, nonnegative=True, empty="empty edge list"
    )
    return build_graph(int(pairs.max()) + 1, pairs)


def node_homophily(g: Graph, labels: np.ndarray) -> float:
    """Average fraction of same-label neighbors, over non-isolated nodes."""
    labels = np.asarray(labels)
    if labels.shape != (g.n,):
        raise ParameterError(f"labels must have length {g.n}")
    active = g.degrees > 0
    if not active.any():
        raise ParameterError("homophily undefined: all nodes isolated")
    rep = np.repeat(np.arange(g.n), g.degrees)
    same = (labels[rep] == labels[g.neighbors]).astype(np.float64)
    sums = np.zeros(g.n)
    np.add.at(sums, rep, same)
    return float((sums[active] / g.degrees[active]).mean())


def transition(g: Graph) -> sp.csr_matrix:
    """Row-stochastic random-walk matrix P as CSR: row u holds 1/deg(u) at each neighbor.

    Rows of isolated nodes are all-zero (walk mass is absorbed there).
    """
    inv_degree = np.zeros(g.n)
    nz = g.degrees > 0
    inv_degree[nz] = 1.0 / g.degrees[nz]
    data = np.repeat(inv_degree, g.degrees)
    return sp.csr_matrix((data, g.neighbors.copy(), g.offsets.copy()), shape=(g.n, g.n))


def random_graph(
    n: int,
    avg_degree: float,
    seed: int,
    min_degree: int = 0,
) -> Graph:
    """Uniform random graph with a target average degree and optional degree floor.

    The floor matters for similarity-fidelity tests: very low-degree near-twin
    structures (pendant siblings, isolated squares) carry the largest
    linearization gap between the linearised (power-series) object and true
    SimRank.
    """
    if n < 2:
        raise ParameterError("need at least two nodes")
    if not (0.0 <= avg_degree < math.inf):
        raise ParameterError(f"average degree must be finite and >= 0, got {avg_degree}")
    if min_degree >= n:
        raise ParameterError("min_degree must be below n")
    rng = np.random.default_rng(seed)
    edges: set[tuple[int, int]] = set()
    _add_random_edges(rng, n, edges, min(int(round(avg_degree * n / 2.0)), n * (n - 1) // 2))
    if min_degree > 0:
        deg = np.zeros(n, dtype=np.int64)
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        for u in range(n):
            while deg[u] < min_degree:
                v = int(rng.integers(0, n))
                e = (min(u, v), max(u, v))
                if u != v and e not in edges:
                    edges.add(e)
                    deg[u] += 1
                    deg[v] += 1
    return build_graph(n, edges)


def random_connected_graph(n: int, extra_edges: int, seed: int) -> Graph:
    """Random recursive tree plus uniformly sampled extra edges; always connected."""
    if n < 2:
        raise ParameterError("need at least two nodes")
    rng = np.random.default_rng(seed)
    edges: set[tuple[int, int]] = set()
    order = rng.permutation(n)
    for i in range(1, n):
        u = int(order[i])
        v = int(order[rng.integers(0, i)])
        edges.add((min(u, v), max(u, v)))
    _add_random_edges(rng, n, edges, min(len(edges) + extra_edges, n * (n - 1) // 2))
    return build_graph(n, edges)


def _add_random_edges(
    rng: np.random.Generator, n: int, edges: set[tuple[int, int]], target: int
) -> None:
    """Draw id pairs in [0, n), adding each non-loop one as (min, max), until len(edges) == target."""
    while len(edges) < target:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((min(int(u), int(v)), max(int(u), int(v))))

"""Undirected sparse graph container, ingestion, and the random-walk transition matrix.

A graph is its binary adjacency: one canonical CSR with sorted neighbor lists.
Graphs are plain containers: immutable by convention after construction, safe
to share across threads. Self-loops are dropped and duplicate edges collapsed
at ingestion; node ids are dense 0-based integers and are never remapped, so
gaps in the id range become isolated nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """Symmetric, self-loop-free graph over nodes 0..n-1, held as its adjacency.

    adj is an n x n CSR of stored 1s that equals its transpose; neighbors(u) is
    the strictly increasing slice adj.indices[adj.indptr[u]:adj.indptr[u+1]].
    The 1s are float32: exact, so a float32 product A @ H stays float32, and
    scipy upcasts them for a float64 H.
    """

    adj: sp.csr_matrix

    def __post_init__(self) -> None:
        _check_invariants(self.adj)
        self.adj = self.adj.astype(np.float32, copy=False)

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    @property
    def m(self) -> int:
        return self.adj.nnz // 2

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.adj.indptr)

    def neighbor_slice(self, u: int) -> np.ndarray:
        return self.adj.indices[self.adj.indptr[u] : self.adj.indptr[u + 1]]

    def adjacency_csr(self) -> sp.csr_matrix:
        """The binary adjacency matrix itself, not a copy."""
        return self.adj


def _check_invariants(adj: sp.csr_matrix) -> None:
    n = adj.shape[0]
    if adj.shape != (n, n):
        raise InputFormatError(f"adjacency must be square, got shape {adj.shape}")
    degrees = np.diff(adj.indptr)
    if np.any(degrees < 0):
        raise InputFormatError("adjacency indptr must be nondecreasing")
    nbrs = adj.indices
    if nbrs.size and (nbrs.min() < 0 or nbrs.max() >= n):
        raise InputFormatError("neighbor id out of range")
    if np.any(adj.data != 1.0):
        raise InputFormatError("adjacency values must all be 1")
    # the first node, by id, whose list is out of order or holds itself; out of
    # order is reported first when one node has both
    owner = np.repeat(np.arange(n, dtype=np.int64), degrees)
    unordered = owner[1:][(owner[1:] == owner[:-1]) & (np.diff(nbrs) <= 0)]
    looped = owner[nbrs == owner]
    u_order = int(unordered[0]) if unordered.size else n
    u_loop = int(looped[0]) if looped.size else n
    if u_order < n and u_order <= u_loop:
        raise InputFormatError(f"neighbor list of node {u_order} not strictly increasing")
    if u_loop < n:
        raise InputFormatError(f"self-loop at node {u_loop}")
    # symmetry: u in N(v) iff v in N(u); A^T as CSR lists each row in order too
    t = adj.T.tocsr()
    if not (np.array_equal(adj.indptr, t.indptr) and np.array_equal(nbrs, t.indices)):
        raise InputFormatError("adjacency not symmetric")


# the largest node count whose packed pair keys u*n + v (u, v < n) fit int64
_MAX_NODES = math.isqrt(np.iinfo(np.int64).max)


def build_graph(n: int, edges: np.ndarray | Iterable[tuple[int, int]]) -> Graph:
    """Assemble a Graph from undirected edge pairs (either orientation, dups ok).

    `edges` is an (m, 2) integer array or an iterable of pairs, with ids in
    [0, n). Each edge is keyed once as min*n + max; the unique keys, mirrored
    and sorted, are the adjacency's entries in (node, neighbor) order.
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
    lo, hi = np.divmod(keys, n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n), out=offsets[1:])
    both = np.concatenate([keys, hi * n + lo])
    both.sort()
    dst = np.remainder(both, n, out=both)
    return Graph(sp.csr_matrix((np.ones(dst.size, dtype=np.float32), dst, offsets), shape=(n, n)))


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
    degrees = g.degrees
    active = degrees > 0
    if not active.any():
        raise ParameterError("homophily undefined: all nodes isolated")
    rep = np.repeat(np.arange(g.n), degrees)
    same = labels[rep] == labels[g.adj.indices]
    sums = np.bincount(rep, weights=same, minlength=g.n)  # sums of 0/1 weights are exact
    return float((sums[active] / degrees[active]).mean())


def transition(g: Graph) -> sp.csr_matrix:
    """Row-stochastic random-walk matrix P as CSR: row u holds 1/deg(u) at each neighbor.

    Rows of isolated nodes are all-zero (walk mass is absorbed there).
    """
    deg = g.degrees
    deg = deg[deg > 0]  # an isolated node's row holds no entry
    data = np.repeat(1.0 / deg, deg)
    # copies of the index arrays, so P never aliases A
    return sp.csr_matrix((data, g.adj.indices.copy(), g.adj.indptr.copy()), shape=(g.n, g.n))


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
        deg = np.bincount(np.array(list(edges), dtype=np.int64).ravel(), minlength=n)
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

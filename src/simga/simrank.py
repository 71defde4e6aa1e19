"""All-pairs SimRank: exact fixed point, and its linearisation as a power series or a local push.

Two objects live here and are deliberately kept distinct:

  fixed point   S = c * P S P^T off-diagonal with diag(S) = 1; ground truth.
  power series  sum_{k>=0} c^k P^k ((1-c) I) (P^T)^k; the linearised object.
                simrank_power_series truncates it and the local push
                approximates it.

The fixed point starts from S = I as CSR and every step is a pair of sparse
products, so a step costs work in the entries S holds, not in n^2: on the
benchmark's ring graph (n = 2,992) S ends with 2.8 % of its entries nonzero.
On a graph where S fills, a sparse step costs about twice a dense one. The
fixed point returns a dense n x n SimMatrix.

The push is level-synchronous (Jacobi order): it keeps a walk-mass sum E and a
residual R, both sparse n x n, from E = 0 and R = I. Each round commits every
residual above the threshold (1-c)*eps at once,

  sel = R on its entries > (1-c)*eps,   E += sel,   R <- R - sel + c * P sel P^T,

which costs two sparse products. After every round

  E + sum_k c^k P^k R (P^T)^k = sum_k c^k P^k (P^T)^k,

and the push exits once max R <= (1-c)*eps. P is row-substochastic, so the
uncommitted tail sum_k c^k P^k R (P^T)^k is at most max R / (1-c) per entry.
The push returns (1-c) * E as PushMatrix.estimate, which therefore falls short
of the power series by at most max R, below eps; the residual stays in walk-mass
units. PushMatrix.pops counts the entries committed over all rounds (an entry
committed in two rounds counts twice). E is symmetric only up to rounding in
the sparse products: at eps 0.1 the largest |E - E^T| was 0 on a 4000-node
ring graph and 6.9e-18 on a 40000-node uniform graph of degree 8.

The top-k similarity the model consumes comes from model.precompute_similarity
alone: topk_prune over the fixed point, or topk_from_push over the push.
Dense similarity matrices are only allowed up to DENSE_LIMIT nodes; past that
only the push + top-k sparse route is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO

import numpy as np
import scipy.sparse as sp

from .errors import GuardError, InputFormatError, NumericError, ParameterError
from .graph import _MAX_NODES, Graph, transition
from .textio import input_error, read_table

__all__ = [
    "DENSE_LIMIT",
    "SimMatrix",
    "PairMatrix",
    "PushMatrix",
    "SparseSim",
    "simrank_fixedpoint",
    "simrank_power_series",
    "simrank_localpush",
    "topk_prune",
    "topk_from_push",
    "sparse_aggregate",
    "class_score_histogram",
    "dump_sparse_sim",
    "load_sparse_sim",
]

DENSE_LIMIT = 20_000
SYMMETRY_BLOCK = 2**18  # elements per block of SimMatrix's symmetry check (2 MB of float64)
DUMP_CHUNK = 2**16  # entries per join and write in dump_sparse_sim; its text tables are per chunk


def _check_decay(c: float) -> None:
    if not (0.0 < c < 1.0):
        raise ParameterError(f"decay factor must lie in (0, 1), got {c}")


def _check_eps(eps: float) -> None:
    if not (0.0 < eps < math.inf):
        raise ParameterError(f"eps must be finite and > 0, got {eps}")


def _dense_guard(n: int, what: str) -> None:
    if n > DENSE_LIMIT:
        raise GuardError(
            f"{what} needs a dense {n}x{n} matrix; the dense path is limited to "
            f"n <= {DENSE_LIMIT}. Use the push + top-k sparse route instead."
        )


@dataclass
class SimMatrix:
    """Dense all-pairs similarity with provenance metadata."""

    values: np.ndarray
    method: str
    c: float
    iterations: int | None = None

    def __post_init__(self) -> None:
        v = self.values = np.asarray(self.values, dtype=np.float64)
        if not v.size:
            return
        lo, hi = v.min(), v.max()  # NaN reaches both, so no n x n bool array is needed
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise NumericError(f"similarity matrix ({self.method}) has non-finite entries")
        if self.method == "fixedpoint":
            rows = max(1, SYMMETRY_BLOCK // len(v))
            for r in range(0, len(v), rows):  # row block against column block, never all of v - v.T
                asym = np.subtract(v[r : r + rows], v[:, r : r + rows].T)
                if np.abs(asym, out=asym).max() > 1e-12:
                    raise NumericError("fixed-point similarity not symmetric within 1e-12")
            if lo < 0.0 or hi > 1.0 + 1e-9:
                raise NumericError("fixed-point similarity outside [0, 1]")
            if np.any(np.diag(v) != 1.0):
                raise NumericError("fixed-point similarity diagonal must be exactly 1")

    @property
    def n(self) -> int:
        return self.values.shape[0]


class PairMatrix(sp.csr_matrix):
    """n x n CSR pair matrix that also answers `u * n + v in m` for a nonzero (u, v)."""

    def __contains__(self, key: int) -> bool:
        return self[divmod(key, self.shape[1])] != 0


@dataclass
class PushMatrix:
    """The push's estimate of the power series plus its terminal residual, both sparse n x n.

    estimate is (1-c) times the committed walk mass; residual holds the walk
    mass that never crossed the (1-c)*eps threshold. pops counts committed
    entries over all rounds.
    """

    n: int
    c: float
    eps: float
    estimate: PairMatrix
    residual: PairMatrix
    pops: int

    def max_residual(self) -> float:
        return float(self.residual.data.max(initial=0.0))


@dataclass
class SparseSim:
    """Row-wise top-k similarity: per row at most k (column, score) pairs, columns ascending."""

    n: int
    k: int
    indptr: np.ndarray
    cols: np.ndarray
    scores: np.ndarray
    method: str
    c: float
    _csr_cache: sp.csr_matrix | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        n, cols, scores = self.n, self.cols, self.scores
        if n < 0:
            raise InputFormatError(f"negative node count {n}")
        counts = np.diff(self.indptr)
        if self.indptr.shape != (n + 1,) or self.indptr[0] != 0 or counts.min(initial=0) < 0:
            raise InputFormatError("bad indptr")
        if self.indptr[-1] != cols.size or scores.shape != cols.shape:
            raise InputFormatError("indptr, columns and scores disagree in length")
        if np.any(counts > self.k):
            raise InputFormatError(f"row holds more than k={self.k} entries")
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            raise InputFormatError(f"column id outside [0, {n})")
        rows = np.repeat(np.arange(n, dtype=np.int64), counts)
        if np.any(np.diff(rows * n + cols) <= 0):
            raise InputFormatError("columns not strictly ascending within a row")
        if not np.isfinite(scores).all():
            raise InputFormatError("non-finite score")
        if scores.size and scores.min() < 0.0:
            raise InputFormatError("scores must be nonnegative")

    def row(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[u], self.indptr[u + 1]
        return self.cols[lo:hi], self.scores[lo:hi]

    def to_csr(self) -> sp.csr_matrix:
        if self._csr_cache is None:
            self._csr_cache = sp.csr_matrix(
                (self.scores, self.cols, self.indptr), shape=(self.n, self.n)
            )
        return self._csr_cache

    def densify(self) -> np.ndarray:
        _dense_guard(self.n, "sparse similarity export")
        return self.to_csr().toarray()


def simrank_fixedpoint(g: Graph, c: float, iterations: int) -> SimMatrix:
    """Iterate S <- c * P S P^T off-diagonal with the diagonal pinned to 1.

    S starts as the CSR identity and stays CSR, so a step costs sparse
    products over the entries S actually holds. The result is a dense n x n
    matrix. Rows/columns of isolated nodes stay zero off-diagonal (their
    diagonal is still pinned). Converges geometrically at rate c.
    """
    _check_decay(c)
    if iterations < 1:
        raise ParameterError("need at least one iteration")
    _dense_guard(g.n, "fixed-point SimRank")
    p = transition(g)
    pt = p.T.tocsr()
    eye = sp.identity(g.n, format="csr")
    s = eye
    for _ in range(iterations):
        # one new matrix per statement, so at most two copies of S are live
        s = p @ s
        s = s @ pt
        s.data *= c
        s = s - sp.diags(s.diagonal())
        s = s + eye  # diagonal exactly 1, stored or not before
    # shave asymmetric rounding (<= 1 ulp) from the products
    return SimMatrix(values=s.minimum(s.T).toarray(), method="fixedpoint", c=c, iterations=iterations)


def simrank_power_series(g: Graph, c: float, terms: int) -> SimMatrix:
    """Truncated series sum_{k=0}^{terms} c^k P^k ((1-c) I) (P^T)^k, no diagonal pin."""
    _check_decay(c)
    if terms < 0:
        raise ParameterError("terms must be >= 0")
    _dense_guard(g.n, "power-series SimRank")
    p = transition(g)
    pt = p.T.tocsr()
    term = (1.0 - c) * np.eye(g.n)
    acc = term.copy()
    for _ in range(terms):
        term = c * ((p @ term) @ pt)
        acc += term
    return SimMatrix(values=acc, method="power_series", c=c, iterations=terms)


def simrank_localpush(g: Graph, c: float, eps: float) -> PushMatrix:
    """Level-synchronous push: each round commits every residual above (1-c)*eps at once.

    Starts from R = I, E = 0. A round takes sel = R on its entries above the
    threshold, adds sel to E and replaces R by R - sel + c * P sel P^T; it
    stops once max R <= (1-c)*eps and returns (1-c) * E as the estimate.
    """
    _check_decay(c)
    _check_eps(eps)
    n = g.n
    threshold = (1.0 - c) * eps
    p = transition(g)
    pt = p.T.tocsr()
    res = sp.identity(n, format="csr")
    # committed entries of every round as (row, col, value); E is their sum
    rows, cols, vals = [np.empty(0, np.int64)], [np.empty(0, np.int32)], [np.empty(0)]
    pops = 0
    while True:
        hot = np.flatnonzero(res.data > threshold)
        if hot.size == 0:
            break
        pops += hot.size
        rows.append(np.searchsorted(res.indptr, hot, side="right") - 1)
        cols.append(res.indices[hot])
        vals.append(res.data[hot])
        # index arrays already in R's index dtype, so scipy neither scans nor copies them
        indptr = np.searchsorted(hot, res.indptr).astype(res.indptr.dtype, copy=False)
        sel = sp.csr_matrix((vals[-1], cols[-1], indptr), shape=(n, n))
        res.data[hot] = 0.0  # R - sel; the sum below drops the explicit zeros
        spread = p @ sel @ pt
        spread.data *= c
        res = res + spread
    est = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    est.data *= 1.0 - c  # walk mass -> the power series
    return PushMatrix(
        n=n, c=c, eps=eps, estimate=PairMatrix(est), residual=PairMatrix(res), pops=pops
    )


def _rows_from_candidates(
    n: int, k: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Select per-row the k largest candidates (ties -> smaller column), columns ascending.

    The candidates are distinct (row, col) pairs of an n x n matrix, in any order.
    """
    order = np.lexsort((cols, -vals, rows))
    counts = np.bincount(rows, minlength=n)
    row_start = np.cumsum(counts) - counts
    rank = np.arange(rows.size) - np.repeat(row_start, counts)  # position within its row
    keep = order[rank < k]
    keep = keep[np.argsort(rows[keep].astype(np.int64) * n + cols[keep], kind="stable")]
    indptr = np.concatenate([[0], np.cumsum(np.minimum(counts, k))])
    return indptr, cols[keep], vals[keep]


def topk_prune(s: SimMatrix, k: int) -> SparseSim:
    """Keep the k largest nonzero entries of each row (ties -> smaller column id)."""
    if k < 1:
        raise ParameterError("k must be >= 1")
    rows, cols = np.nonzero(s.values)
    vals = s.values[rows, cols]
    indptr, cols_out, vals_out = _rows_from_candidates(s.n, k, rows, cols, vals)
    return SparseSim(
        n=s.n, k=k, indptr=indptr, cols=cols_out, scores=vals_out, method=s.method, c=s.c
    )


def topk_from_push(push: PushMatrix, k: int) -> SparseSim:
    """Sparse route: pin the push estimate's diagonal to 1, prune per row.

    Never materializes a dense matrix, so it works past DENSE_LIMIT.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    n = push.n
    est = push.estimate.tocoo()
    rows, cols, vals = est.row, est.col, est.data
    off = rows != cols
    rows = np.concatenate([rows[off], np.arange(n)])
    cols = np.concatenate([cols[off], np.arange(n)])
    vals = np.concatenate([vals[off], np.ones(n)])
    indptr, cols_out, vals_out = _rows_from_candidates(n, k, rows, cols, vals)
    return SparseSim(
        n=n, k=k, indptr=indptr, cols=cols_out, scores=vals_out, method="localpush", c=push.c
    )


def sparse_aggregate(s: SparseSim, h: np.ndarray) -> np.ndarray:
    """Row u of the result is sum over (v, score) in row u of score * h[v]."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != s.n:
        raise ParameterError(f"row count mismatch: similarity has {s.n} rows, h has {h.shape}")
    return s.to_csr() @ h


@dataclass
class ScoreHistogram:
    """Log10-binned off-diagonal scores, split by endpoint label agreement."""

    bin_edges: np.ndarray
    intra_counts: np.ndarray
    inter_counts: np.ndarray
    floor: float
    pairs_retained: int


def class_score_histogram(
    s: SparseSim, labels: np.ndarray, floor: float = 1e-12, bins: int = 40
) -> ScoreHistogram:
    """Distribution of log scores over unordered node pairs, intra- vs inter-class.

    Reads the retained (top-k) similarity, so it never builds an n x n matrix.
    Each off-diagonal pair {u, v} kept by either row counts once, scored by
    S[min, max] when that row keeps it and by S[max, min] otherwise. With
    k >= n every nonzero pair is kept. Entries at or below `floor` are
    discarded as trivial before binning.
    """
    labels = np.asarray(labels)
    if labels.shape != (s.n,):
        raise ParameterError(f"labels must have length {s.n}")
    coo = s.to_csr().tocoo()
    upper, lower = coo.row < coo.col, coo.row > coo.col
    iu = np.concatenate([coo.row[upper], coo.col[lower]]).astype(np.int64)
    ju = np.concatenate([coo.col[upper], coo.row[lower]]).astype(np.int64)
    vals = np.concatenate([coo.data[upper], coo.data[lower]])
    _, first = np.unique(iu * s.n + ju, return_index=True)  # first = the upper entry
    keep = first[vals[first] > floor]
    iu, ju, vals = iu[keep], ju[keep], vals[keep]
    logs = np.log10(vals)
    same = labels[iu] == labels[ju]
    if logs.size:
        lo, hi = logs.min(), logs.max()
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
    else:
        lo, hi = -1.0, 0.0
    edges = np.linspace(lo, hi, bins + 1)
    intra, _ = np.histogram(logs[same], bins=edges)
    inter, _ = np.histogram(logs[~same], bins=edges)
    return ScoreHistogram(
        bin_edges=edges,
        intra_counts=intra,
        inter_counts=inter,
        floor=floor,
        pairs_retained=int(logs.size),
    )


# one "u v score" row of a similarity dump's body
_DUMP_ROW = np.dtype([("u", np.int64), ("v", np.int64), ("s", np.float64)])


# per field of a dump row ("u ", "v ", "score\n"): the format of one value, and
# whether its text keeps the format's line break once one % call's output is split
_DUMP_FIELDS = (("%d \n", False), ("%d \n", False), ("%.17g\n", True))


def _dump_lines(fields: list[np.ndarray]) -> str:
    """The rows of one dump chunk from its row ids, column ids and scores."""
    # dedupe before any text exists (the last chunk's died with its call): np.unique
    # leaves a few small objects alive in interpreter caches, and allocated among the
    # texts they would pin the texts' memory in the process after the dump
    found = [np.unique(field.view(np.int64), return_inverse=True) for field in fields]
    values: list = [None] * (3 * fields[0].size)
    for i, (field, (bits, inverse), (fmt, keepends)) in enumerate(zip(fields, found, _DUMP_FIELDS)):
        text = fmt * bits.size % tuple(bits.view(field.dtype).tolist())
        values[i::3] = np.array(text.splitlines(keepends), dtype=object)[inverse].tolist()
    return "".join(values)


def dump_sparse_sim(s: SparseSim, sink: IO[str]) -> None:
    """Text dump: header "n k c method", then "u v score" rows sorted by (u, v), scores as %.17g.

    Each DUMP_CHUNK entries take one join and one write. Within a chunk each distinct
    row id, column id and score (by its bits, so -0.0 prints "-0") is formatted once,
    by one % call per field, and shared through np.unique's inverse: S's scores repeat.
    """
    sink.write(f"{s.n} {s.k} {s.c:.17g} {s.method}\n")
    rows = np.repeat(np.arange(s.n), np.diff(s.indptr))
    for lo in range(0, rows.size, DUMP_CHUNK):
        hi = min(lo + DUMP_CHUNK, rows.size)
        sink.write(_dump_lines([rows[lo:hi], s.cols[lo:hi], s.scores[lo:hi]]))


def load_sparse_sim(source: IO[str]) -> SparseSim:
    """Read a dump_sparse_sim text dump back; malformed input raises InputFormatError."""
    header = source.readline().split()
    if len(header) != 4:
        raise input_error(source, "similarity dump: bad header, expected 'n k c method'")
    try:
        n, k, c = int(header[0]), int(header[1]), float(header[2])
    except ValueError:
        raise input_error(source, "similarity dump: non-numeric header field") from None
    if n < 0 or k < 1:
        raise input_error(source, "similarity dump: header needs n >= 0 and k >= 1")
    if n > _MAX_NODES:  # as for an edge id that large: no n-long array, no int64 pair keys
        raise MemoryError(f"similarity dump of {n} nodes: node ids must stay below {_MAX_NODES}")
    body = read_table(source, _DUMP_ROW, "similarity dump value", first_line=2)
    rows = body["u"]
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise input_error(source, f"similarity dump: row id outside [0, {n})")
    if np.any(np.diff(rows) < 0):
        raise input_error(source, "similarity dump: rows out of order")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    cols, scores = np.ascontiguousarray(body["v"]), np.ascontiguousarray(body["s"])
    try:
        return SparseSim(n=n, k=k, indptr=indptr, cols=cols, scores=scores, method=header[3], c=c)
    except InputFormatError as exc:
        raise input_error(source, f"similarity dump: {exc}") from None

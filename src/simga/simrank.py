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
fixed point checks S on its CSR, in O(nnz), and only then makes it a dense
n x n SimMatrix, whose own check refuses non-finite entries alone.

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
alone: topk_prune over the fixed point, or topk_from_push over the push. Each
returns a SparseSim: one canonical n x n CSR (per row at most k entries, columns
ascending) plus k, method and c. Dense similarity matrices are only allowed up
to DENSE_LIMIT nodes; past that only the push + top-k sparse route is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
HISTOGRAM_FLOOR, HISTOGRAM_BINS = 1e-12, 40  # class_score_histogram's trivial-score floor and bin count
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
    """Dense all-pairs similarity and provenance; refuses non-finite entries (the fixed point checks more)."""

    values: np.ndarray
    method: str
    c: float
    iterations: int | None = None

    def __post_init__(self) -> None:
        v = self.values = np.asarray(self.values, dtype=np.float64)
        if v.size and not (np.isfinite(v.min()) and np.isfinite(v.max())):  # NaN reaches both
            raise NumericError("similarity matrix has non-finite entries")

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
    """Row-wise top-k similarity as one canonical n x n CSR: per row at most k entries, columns ascending."""

    csr: sp.csr_matrix
    k: int
    method: str
    c: float

    def __post_init__(self) -> None:
        s, n = self.csr, self.n
        if np.diff(s.indptr).max(initial=0) > self.k:
            raise InputFormatError(f"row holds more than k={self.k} entries")
        if s.nnz and (s.indices.min() < 0 or s.indices.max() >= n):
            raise InputFormatError(f"column id outside [0, {n})")
        if not s.has_canonical_format:  # indptr nondecreasing, columns strictly ascending
            raise InputFormatError("columns not strictly ascending within a row")
        lo, hi = s.data.min(initial=0.0), s.data.max(initial=0.0)  # NaN reaches both
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise InputFormatError("non-finite score")
        if lo < 0.0:
            raise InputFormatError("scores must be nonnegative")

    @classmethod
    def from_arrays(cls, n: int, k: int, indptr, cols, scores, method: str, c: float) -> SparseSim:
        """S from raw CSR arrays, as a dump or a checkpoint holds them; checked before scipy reads them."""
        if n < 0:
            raise InputFormatError(f"negative node count {n}")
        indptr = np.asarray(indptr, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)  # a dump's are strided views: copied here
        scores = np.ascontiguousarray(scores, dtype=np.float64)  # once, not by every sparse product
        if indptr.shape != (n + 1,) or indptr[0] != 0 or np.diff(indptr).min(initial=0) < 0:
            raise InputFormatError("bad indptr")
        # scipy would drop the entries past indptr[-1] without a word
        if indptr[-1] != cols.size or scores.shape != cols.shape:
            raise InputFormatError("indptr, columns and scores disagree in length")
        return cls(sp.csr_matrix((scores, cols, indptr), shape=(n, n)), k=k, method=method, c=c)

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    def densify(self) -> np.ndarray:
        _dense_guard(self.n, "sparse similarity export")
        return self.csr.toarray()


def _checked_symmetric(s: sp.csr_matrix) -> sp.csr_matrix:
    """The fixed point's CSR S, checked on its stored entries, with its asymmetric rounding shaved."""
    lo, hi = s.data.min(initial=0.0), s.data.max(initial=0.0)  # NaN reaches both
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NumericError("similarity matrix (fixedpoint) has non-finite entries")
    t = s.T.tocsr()  # S^T, columns ascending within each row
    s = t.T.tocsr()  # S sorted the same way: two O(nnz) passes, cheaper than sort_indices
    same = np.array_equal(s.indptr, t.indptr) and np.array_equal(s.indices, t.indices)
    # the patterns differ only where a product underflowed to 0 in one order and not the other
    asym = np.subtract(s.data, t.data) if same else (s - t).data
    if np.abs(asym, out=asym).max(initial=0.0) > 1e-12:
        raise NumericError("fixed-point similarity not symmetric within 1e-12")
    if lo < 0.0 or hi > 1.0 + 1e-9:
        raise NumericError("fixed-point similarity outside [0, 1]")
    if np.any(s.diagonal() != 1.0):
        raise NumericError("fixed-point similarity diagonal must be exactly 1")
    if not same:
        return s.minimum(t)
    np.minimum(s.data, t.data, out=s.data)
    return s


def simrank_fixedpoint(g: Graph, c: float, iterations: int) -> SimMatrix:
    """Iterate S <- c * P S P^T off-diagonal with the diagonal pinned to 1, on CSR from S = I.

    S is refused unless finite (checked first, so a NaN reads as non-finite),
    symmetric within 1e-12, inside [0, 1] and 1 on its diagonal; then its
    rounding asymmetry (<= 1 ulp) is shaved and it is returned dense. Rows and
    columns of isolated nodes stay zero off-diagonal. Converges at rate c.
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
    return SimMatrix(values=_checked_symmetric(s).toarray(), method="fixedpoint", c=c, iterations=iterations)


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


def _topk(s: sp.csr_matrix, k: int, method: str, c: float) -> SparseSim:
    """Each row's k largest entries (ties -> smaller column), from a canonical CSR with no stored zeros.

    A row of at most k entries is kept as it is. Only the entries of rows over k
    are sorted, by row and then value descending; the sort is stable, so a row's
    column order breaks ties. The rest are zeroed and eliminated from s in place,
    which leaves the survivors in CSR order.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    counts = np.diff(s.indptr)
    over = np.flatnonzero(counts > k)
    if over.size:
        width = counts[over]
        pos = np.flatnonzero(np.repeat(counts > k, counts))  # CSR positions of the over-k rows' entries
        past = pos - np.repeat(s.indptr[over], width) >= k  # past the k-th place in its row
        order = np.lexsort((-s.data[pos], np.repeat(over, width)))
        s.data[pos[order[past]]] = 0.0
        s.eliminate_zeros()
    return SparseSim(s, k=k, method=method, c=c)


def topk_prune(s: SimMatrix, k: int) -> SparseSim:
    """Keep the k largest nonzero entries of each row (ties -> smaller column id)."""
    n = s.n
    cols = np.flatnonzero(s.values)  # flat indices, row-major, so in CSR order
    vals = s.values.ravel()[cols]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols // n, minlength=n))])
    cols %= n
    return _topk(sp.csr_matrix((vals, cols, indptr), shape=(n, n)), k, s.method, s.c)


def topk_from_push(push: PushMatrix, k: int) -> SparseSim:
    """Sparse route: pin the push estimate's diagonal to 1, prune per row.

    Never materializes a dense matrix, so it works past DENSE_LIMIT.
    """
    est = push.estimate
    s = est - sp.diags(est.diagonal()) + sp.identity(push.n, format="csr")  # canonical CSR
    return _topk(s, k, "localpush", push.c)


def sparse_aggregate(s: SparseSim, h: np.ndarray) -> np.ndarray:
    """Row u of the result is sum over (v, score) in row u of score * h[v]."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != s.n:
        raise ParameterError(f"row count mismatch: similarity has {s.n} rows, h has {h.shape}")
    return s.csr @ h


@dataclass
class ScoreHistogram:
    """Log10-binned off-diagonal scores, split by endpoint label agreement."""

    bin_edges: np.ndarray
    intra_counts: np.ndarray
    inter_counts: np.ndarray
    pairs_retained: int


def class_score_histogram(s: SparseSim, labels: np.ndarray) -> ScoreHistogram:
    """Distribution of log scores over unordered node pairs, intra- vs inter-class.

    Reads the retained (top-k) similarity, so it never builds an n x n matrix.
    Each off-diagonal pair {u, v} kept by either row counts once, scored by
    S[min, max] when that row keeps it and by S[max, min] otherwise. With
    k >= n every nonzero pair is kept. Entries at or below HISTOGRAM_FLOOR are
    discarded as trivial before binning into HISTOGRAM_BINS bins.
    """
    labels = np.asarray(labels)
    if labels.shape != (s.n,):
        raise ParameterError(f"labels must have length {s.n}")
    coo = s.csr.tocoo()
    upper, lower = coo.row < coo.col, coo.row > coo.col
    iu = np.concatenate([coo.row[upper], coo.col[lower]]).astype(np.int64)
    ju = np.concatenate([coo.col[upper], coo.row[lower]]).astype(np.int64)
    vals = np.concatenate([coo.data[upper], coo.data[lower]])
    _, first = np.unique(iu * s.n + ju, return_index=True)  # first = the upper entry
    keep = first[vals[first] > HISTOGRAM_FLOOR]
    iu, ju, vals = iu[keep], ju[keep], vals[keep]
    logs = np.log10(vals)
    same = labels[iu] == labels[ju]
    if logs.size:
        lo, hi = logs.min(), logs.max()
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
    else:
        lo, hi = -1.0, 0.0
    edges = np.linspace(lo, hi, HISTOGRAM_BINS + 1)
    intra, _ = np.histogram(logs[same], bins=edges)
    inter, _ = np.histogram(logs[~same], bins=edges)
    return ScoreHistogram(
        bin_edges=edges,
        intra_counts=intra,
        inter_counts=inter,
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
    rows = np.repeat(np.arange(s.n), np.diff(s.csr.indptr))
    cols = s.csr.indices.astype(np.int64)  # _dump_lines reads each field's bits as int64
    for lo in range(0, rows.size, DUMP_CHUNK):
        hi = min(lo + DUMP_CHUNK, rows.size)
        sink.write(_dump_lines([rows[lo:hi], cols[lo:hi], s.csr.data[lo:hi]]))


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
    try:
        return SparseSim.from_arrays(n, k, indptr, body["v"], body["s"], method=header[3], c=c)
    except InputFormatError as exc:
        raise input_error(source, f"similarity dump: {exc}") from None

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
fixed point checks S on its CSR, in O(nnz), and returns that CSR as a
SparseSim with k = n, which topk_prune then prunes.

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

The push keeps R in blocks of consecutive rows (_BlockedResidual). A round
selects its entries block by block and forms P sel once. It then takes the
blocks in waves of up to PUSH_WORKERS, the usable cores (the process's CPU
affinity) but at most 2: the calling thread forms a wave's first spread and a
thread pool the others, the route of the whole-matrix sum is read from them in
block order, and the sums of the blocks that wait are formed the same way.
scipy's sparse products and sums release the GIL, so the threads overlap. A
block the round does not reach only drops its committed zeros. What is live at
once is R, sel, P sel, E's committed entries and one wave's spreads and sums
(P sel goes before the last wave's sums), where one whole-matrix sum per round
held the old R, the full spread and an array sized for both. On
random_graph(n, 8, seed=1), over the final R's data and index bytes, the
push's tracemalloc peak (tools/push_peak.py --workers N, round by round) was
4.16 with the whole-matrix sum at n = 20,000, 40,000 and 100,000, eps 0.1,
and 2.19 at n = 8,000, eps 0.02. Per wave width:

  workers   n = 20,000   40,000   100,000   8,000 at eps 0.02
     1         2.03       1.74     1.63          1.66
     2         2.62       2.03     1.80          2.19
     4         3.33       2.61     2.16          2.19
     8         3.58       2.90     2.81          2.19
    16         3.56       3.13     3.92          2.19

Hence the cap: a wave as wide as the blocks holds all of the spread and the
sum, as at n = 8,000, which is two blocks, from 2 workers on. The pool lives
for one push, and a one-block push (n <= PUSH_BLOCK) makes none. The blocks
summed on the pool's threads live in those threads' malloc arenas, where glibc
keeps them once freed; model.precompute_similarity hands that memory back
(_release_freed_memory) once the push is dropped. The blocks and the waves
reproduce the whole-matrix push's estimate, residual and pops array for array;
_BlockedResidual says how. PushMatrix.residual joins the blocks on first read.

The top-k similarity the model consumes comes from model.precompute_similarity
alone: topk_prune over the fixed point, or topk_from_push over the push. S is
one type, pruned or not: a SparseSim, one canonical n x n CSR (per row at most
k entries, columns ascending) plus k, method and c. The exact S can fill to n^2
entries, so it and the dense oracles stop at DENSE_LIMIT nodes; past that only
push + top-k runs.
"""

from __future__ import annotations

import ctypes
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Callable, Iterator

import numpy as np
import scipy.sparse as sp

from .errors import GuardError, InputFormatError, NumericError, ParameterError
from .graph import _MAX_NODES, Graph, transition, transition_t
from .textio import input_error, read_table

__all__ = [
    "DENSE_LIMIT",
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
PUSH_BLOCK = 4096  # rows per block of the push's residual at least; a graph of up to this many nodes is one block
PUSH_BLOCKS = 16  # blocks at most: each block's products and sum clear scratch arrays of n entries
# threads per multi-block push: the usable cores, at most 2. A wave forms and sums this many blocks at
# once and holds all their spreads and sums, so the push's peak grows with it (the module docstring's table)
PUSH_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def _check_decay(c: float) -> None:
    if not (0.0 < c < 1.0):
        raise ParameterError(f"decay factor must lie in (0, 1), got {c}")


def _check_eps(eps: float) -> None:
    if not (0.0 < eps < math.inf):
        raise ParameterError(f"eps must be finite and > 0, got {eps}")


def _dense_guard(n: int, what: str) -> None:
    if n > DENSE_LIMIT:
        raise GuardError(
            f"{what} can hold {n}x{n} entries; it is limited to "
            f"n <= {DENSE_LIMIT}. Use the push + top-k sparse route instead."
        )


class PairMatrix(sp.csr_matrix):
    """n x n CSR pair matrix that also answers `u * n + v in m` for a nonzero (u, v)."""

    def __contains__(self, key: int) -> bool:
        return self[divmod(key, self.shape[1])] != 0


@dataclass
class PushMatrix:
    """The push's estimate of the power series plus its terminal residual, both sparse n x n.

    estimate is (1-c) times the committed walk mass; residual holds the walk
    mass that never crossed the (1-c)*eps threshold. pops counts committed
    entries over all rounds. The push leaves the residual in row blocks, which
    hold R once; residual joins them into one CSR on first read, copying block
    by block and releasing each, so that read peaks near one R plus one block.
    The pipeline never makes it.
    """

    c: float
    eps: float
    estimate: PairMatrix
    pops: int
    _blocks: _BlockedResidual = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.estimate.shape[0]

    @cached_property
    def residual(self) -> PairMatrix:
        return self._blocks.assemble()

    def max_residual(self) -> float:
        return float(self.residual.data.max(initial=0.0))


@dataclass
class SparseSim:
    """S as one canonical n x n CSR: per row at most k entries, columns ascending.

    Top-k pruned S has the k it was pruned to; the fixed point's unpruned S has k = n.
    """

    csr: sp.csr_matrix
    k: int
    method: str
    c: float
    iterations: int | None = None  # the fixed point's, as provenance; dumps and checkpoints drop it

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
        if lo < 0.0 or hi > 1.0:
            raise InputFormatError("scores must lie in [0, 1]")
        if not (0.0 < self.c < 1.0):  # NaN fails both
            raise InputFormatError(f"decay factor must lie in (0, 1), got {self.c}")

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

    @property
    def values(self) -> np.ndarray:
        _dense_guard(self.n, "dense similarity view")
        return self.csr.toarray()  # a fresh n x n array on every read


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


def simrank_fixedpoint(g: Graph, c: float, iterations: int) -> SparseSim:
    """Iterate S <- c * P S P^T off-diagonal with the diagonal pinned to 1, on CSR from S = I.

    S is refused unless finite (checked first, so a NaN reads as non-finite),
    symmetric within 1e-12, inside [0, 1] and 1 on its diagonal; then its
    rounding asymmetry (<= 1 ulp) is shaved and that CSR is returned as a
    SparseSim with k = n. Rows and columns of isolated nodes stay zero
    off-diagonal. Converges at rate c.
    """
    _check_decay(c)
    if iterations < 1:
        raise ParameterError("need at least one iteration")
    _dense_guard(g.n, "fixed-point SimRank")
    p, pt = transition(g), transition_t(g)
    eye = sp.identity(g.n, format="csr")
    s = eye
    for _ in range(iterations):
        # one new matrix per statement, so at most two copies of S are live
        s = p @ s
        s = s @ pt
        s.data *= c
        s = s - sp.diags(s.diagonal())
        s = s + eye  # diagonal exactly 1, stored or not before
    return SparseSim(_checked_symmetric(s), k=g.n, method="fixedpoint", c=c, iterations=iterations)


def simrank_power_series(g: Graph, c: float, terms: int) -> np.ndarray:
    """Truncated series sum_{k=0}^{terms} c^k P^k ((1-c) I) (P^T)^k, no diagonal pin, as a dense array."""
    _check_decay(c)
    if terms < 0:
        raise ParameterError("terms must be >= 0")
    _dense_guard(g.n, "power-series SimRank")
    p, pt = transition(g), transition_t(g)
    term = (1.0 - c) * np.eye(g.n)
    acc = term.copy()
    for _ in range(terms):
        term = c * ((p @ term) @ pt)
        acc += term
    return acc


def _index_dtype(largest: int) -> type:
    return np.int32 if largest <= np.iinfo(np.int32).max else np.int64


def _reversal(b: sp.csr_matrix) -> np.ndarray:
    """The positions of b's entries with each row's listed in reverse order."""
    ends = b.indptr[:-1].astype(np.int64) + b.indptr[1:] - 1  # each row's last position
    return np.repeat(ends, np.diff(b.indptr)) - np.arange(b.nnz)


def _reversed_rows(b: sp.csr_matrix) -> sp.csr_matrix:
    """b with each row's entries in reverse order."""
    src = _reversal(b)
    return sp.csr_matrix((b.data[src], b.indices[src], b.indptr), shape=b.shape)


def _canonical(b: sp.csr_matrix) -> bool:
    """Whether every row's columns strictly ascend, checked afresh as csr_plus_csr checks its operands."""
    return sp.csr_matrix((b.data, b.indices, b.indptr), shape=b.shape).has_canonical_format


def _with_zero_duplicate(s: sp.csr_matrix) -> sp.csr_matrix:
    """s plus a 0.0 repeat of its last entry: no value changes, but s is no longer canonical."""
    last = s.nnz - 1
    indptr = s.indptr.copy()
    indptr[np.searchsorted(s.indptr, last, side="right"):] += 1
    return sp.csr_matrix(
        (np.append(s.data, 0.0), np.append(s.indices, s.indices[last]), indptr), shape=s.shape
    )


def _spread(ps: sp.csr_matrix, lo: int, hi: int, pt: sp.csr_matrix, c: float) -> sp.csr_matrix:
    """Rows lo:hi of the spread c * (P sel) P^T, from P sel."""
    if hi - lo < ps.shape[0]:  # ps[lo:hi] as views on ps's arrays; slicing would copy them
        a, z = ps.indptr[lo], ps.indptr[hi]
        ps = sp.csr_matrix((ps.data[a:z], ps.indices[a:z], ps.indptr[lo : hi + 1] - a),
                           shape=(hi - lo, ps.shape[1]))
    s = ps @ pt
    s.data *= c
    return s


def _run(pool: ThreadPoolExecutor | None, fn: Callable, items: list) -> list:
    """fn over items, results in items' order: the pool takes all but the first, which runs here."""
    if pool is None or len(items) < 2:
        return [fn(i) for i in items]
    rest = [pool.submit(fn, i) for i in items[1:]]
    return [fn(items[0])] + [f.result() for f in rest]


def _release_freed_memory() -> None:
    """Return the free memory of every malloc arena to the system, where libc has malloc_trim (glibc).

    glibc gives each thread a malloc arena of its own and keeps what is freed
    there for that arena's reuse, so the blocks of a push's residual formed on
    the pool stay resident once the push is dropped, out of the main thread's
    reach, unless they are handed back.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # another libc, or none that ctypes can open
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


@contextmanager
def _push_pool(blocks: int) -> Iterator[ThreadPoolExecutor | None]:
    """The PUSH_WORKERS - 1 threads that join the calling thread in one push's waves, joined on exit.

    None where a wave could hold only one block.
    """
    workers = min(PUSH_WORKERS, blocks)
    if workers < 2:
        yield None
        return
    with ThreadPoolExecutor(workers - 1) as pool:
        yield pool


class _BlockedResidual:
    """The push's residual R, n x n, as CSR blocks of consecutive rows.

    A block holds max(PUSH_BLOCK, n / PUSH_BLOCKS) rows. A round forms its spread
    and adds it in waves of up to PUSH_WORKERS blocks, whose spreads, then sums,
    run at once, the calling thread taking one and the push's pool the rest; it
    leaves a block it does not reach in place. So one wave's spreads and sums
    are live at once: a part of the full-size spread and sum wherever the push
    has more blocks than a wave holds, and all of it in a push of no more
    than PUSH_WORKERS blocks. Each output row of scipy's csr_matmat and
    csr_plus_csr depends on that row alone, so the blocks hold the rows one
    whole-matrix sum R + spread would, with its values in its column order, on
    any thread and in any wave. The order matters: the next round's selection,
    and with it the summation order of its products and of E, follows R's row
    order.

    csr_plus_csr takes one of two routes for the whole sum: a sorted merge when
    both operands are canonical (columns strictly ascending in every row), else a
    general route that lists each row's columns in reverse order of first
    appearance, and so reverses a row it adds nothing to. Each block follows the
    whole's route:
      - a block the round does not reach only drops its committed zeros, and
        `flipped` records that the whole sum would have reversed its rows; that
        is done on its next add, or in assemble;
      - a spread block that is canonical while the whole is not gets a zero
        duplicate, which sends its add down the general route and changes no value;
      - the whole is canonical only if all of R and every spread block are, so
        blocks wait for their add until a spread block that is not canonical
        settles the route, or until every spread block is formed and R is checked.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        rows = max(PUSH_BLOCK, -(-n // PUSH_BLOCKS))
        self.bounds = [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]
        idx = _index_dtype(n)
        self.blocks = [  # R = I
            sp.csr_matrix((np.ones(hi - lo), np.arange(lo, hi, dtype=idx), np.arange(hi - lo + 1, dtype=idx)),
                          shape=(hi - lo, n))
            for lo, hi in self.bounds
        ]
        self.flipped = [False] * len(self.blocks)
        self.hot: list[np.ndarray] = []

    def take(self, threshold: float) -> sp.csr_matrix | None:
        """Zero R's entries above threshold and return them as sel, in R's order; None if none."""
        self.hot = [np.flatnonzero(b.data > threshold) for b in self.blocks]
        if not any(hot.size for hot in self.hot):
            return None
        cols, vals, ends, taken = [], [], [np.zeros(1, np.int64)], 0
        for b, hot in zip(self.blocks, self.hot):
            cols.append(b.indices[hot])
            vals.append(b.data[hot])
            ends.append(np.searchsorted(hot, b.indptr[1:]) + taken)
            taken += hot.size
            b.data[hot] = 0.0  # R - sel; the next add drops the explicit zeros
        cols = np.concatenate(cols)
        # index arrays already in one index dtype, so scipy neither scans nor copies them
        indptr = np.concatenate(ends).astype(cols.dtype)
        return sp.csr_matrix((np.concatenate(vals), cols, indptr), shape=(self.n, self.n))

    def add(self, p: sp.csr_matrix, sel: sp.csr_matrix, pt: sp.csr_matrix, c: float,
            pool: ThreadPoolExecutor | None) -> None:
        """R <- R + c * P sel P^T, a wave of up to PUSH_WORKERS blocks at a time."""
        ps = p @ sel
        general, waiting = False, {}  # block -> its spread, None where the round does not reach it
        blocks = len(self.bounds)
        for w in range(0, blocks, PUSH_WORKERS):
            wave = range(w, min(w + PUSH_WORKERS, blocks))
            reached = [i for i in wave if ps.indptr[self.bounds[i][0]] != ps.indptr[self.bounds[i][1]]]
            spreads = dict(zip(reached, _run(pool, lambda i: _spread(ps, *self.bounds[i], pt, c), reached)))
            if wave.stop == blocks:
                ps = None  # every spread block is formed: P sel goes before the last sums
            for i in wave:  # the route, in block order
                s = spreads.pop(i, None)
                general = general or (s is not None and not s.has_canonical_format)
                waiting[i] = s if s is not None and s.nnz else None
            del s  # waiting holds the spreads alone, so _merge can release them
            if general:
                self._merge(waiting, True, pool)
        if waiting:  # every spread block is canonical: the whole sum's route is R's
            general = not all(
                _canonical(_reversed_rows(b) if f else b) for b, f in zip(self.blocks, self.flipped)
            )
            self._merge(waiting, general, pool)

    def _merge(self, waiting: dict[int, sp.csr_matrix | None], general: bool,
               pool: ThreadPoolExecutor | None) -> None:
        """Add each waiting spread to its block by the whole sum's route; waiting ends empty.

        The sums run as the wave's spreads do, one on the calling thread and the
        rest on the pool. A block with neither a spread nor committed zeros only
        records the route, on the calling thread: on a 20,001-node path, whose
        rounds mostly reach one of its 5 blocks, handing those to the pool as
        well took 20.1-23.3 s against 13.5-19.5 s (3 alternating runs). Each old
        block and spread is released as soon as their sum is formed.
        """

        def merge(i: int) -> None:
            s = waiting.pop(i)
            b, self.blocks[i] = self.blocks[i], None
            if s is None:
                if self.hot[i].size:
                    b.eliminate_zeros()
                self.blocks[i], self.flipped[i] = b, self.flipped[i] ^ general
                return
            if self.flipped[i]:
                b, self.flipped[i] = _reversed_rows(b), False
            if general and s.has_canonical_format:
                s = _with_zero_duplicate(s)
            b = b + s
            del s
            # scipy sizes the sum for nnz(b) + nnz(s) and may keep a view on it; the unused
            # tail is as large as the overlap, which makes the early rounds' blocks ~2x
            if b.data.base is not None and b.data.base.size - b.nnz > b.nnz // 8:
                b.data, b.indices = b.data.copy(), b.indices.copy()
            self.blocks[i] = b

        for i in [i for i, s in waiting.items() if s is None and not self.hot[i].size]:
            merge(i)
        _run(pool, merge, list(waiting))

    def assemble(self) -> PairMatrix:
        """R as one CSR, copied block by block into preallocated arrays; the blocks are released."""
        if len(self.blocks) == 1 and not self.flipped[0]:
            return PairMatrix(self.blocks.pop())
        nnz = sum(b.nnz for b in self.blocks)
        idx = _index_dtype(max(nnz, self.n))
        data, indices = np.empty(nnz), np.empty(nnz, idx)
        indptr = np.zeros(self.n + 1, idx)
        at = 0
        for i, (lo, hi) in enumerate(self.bounds):
            b, self.blocks[i] = self.blocks[i], None
            src = _reversal(b) if self.flipped[i] else slice(None)
            data[at : at + b.nnz] = b.data[src]
            indices[at : at + b.nnz] = b.indices[src]
            indptr[lo + 1 : hi + 1] = b.indptr[1:] + at
            at += b.nnz
        return PairMatrix((data, indices, indptr), shape=(self.n, self.n))


def simrank_localpush(g: Graph, c: float, eps: float) -> PushMatrix:
    """Level-synchronous push: each round commits every residual above (1-c)*eps at once.

    Starts from R = I, E = 0. A round takes sel = R on its entries above the
    threshold, adds sel to E and replaces R by R - sel + c * P sel P^T; it
    stops once max R <= (1-c)*eps and returns (1-c) * E as the estimate. R
    stays in row blocks, which give every array one whole-matrix sum per round
    would. A push of more than one block forms each round's block spreads and
    sums in waves of up to PUSH_WORKERS blocks (at most 2), the calling thread
    taking one and a pool the others; the pool ends with the push, on an error
    too. Live at once: R, sel, P sel, the committed entries and one wave's
    spreads and sums, which is all of a round's spread and sum where the push
    has no more blocks than a wave. The traced peak on a uniform degree-8 graph
    at n = 100,000, eps 0.1, is 1.63 final residuals with one worker (130.0 MB)
    and 1.80 with two (144.2 MB), where the whole-matrix sum took 4.16 (332.5 MB).
    """
    _check_decay(c)
    _check_eps(eps)
    n = g.n
    threshold = (1.0 - c) * eps
    p, pt = transition(g), transition_t(g)
    res = _BlockedResidual(n)
    # committed entries of every round as (row, col, value); E is their sum
    rows, cols, vals = [np.empty(0, np.int64)], [np.empty(0, np.int32)], [np.empty(0)]
    with _push_pool(len(res.blocks)) as pool:
        while (sel := res.take(threshold)) is not None:
            rows.append(np.repeat(np.arange(n), np.diff(sel.indptr)))
            cols.append(sel.indices)
            vals.append(sel.data)
            res.add(p, sel, pt, c, pool)
    est = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    est.data *= 1.0 - c  # walk mass -> the power series
    pops = sum(v.size for v in vals)
    return PushMatrix(c=c, eps=eps, estimate=PairMatrix(est), pops=pops, _blocks=res)


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


def topk_prune(s: SparseSim, k: int) -> SparseSim:
    """Keep the k largest nonzero entries of each row (ties -> smaller column id); s is left as it is."""
    return _topk(s.csr.copy(), k, s.method, s.c)


def topk_from_push(push: PushMatrix, k: int) -> SparseSim:
    """Sparse route: pin the push estimate's diagonal to 1, prune per row.

    Never materializes a dense matrix, so it works past DENSE_LIMIT.
    """
    est = push.estimate
    s = est - sp.diags(est.diagonal()) + sp.identity(push.n, format="csr")  # canonical CSR
    return _topk(s, k, "localpush", push.c)


def sparse_aggregate(s: SparseSim, h: np.ndarray) -> np.ndarray:
    """Row u of the result is sum over (v, score) in row u of score * h[v], in h's and S's dtype."""
    h = np.asarray(h)
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

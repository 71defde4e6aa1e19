import io
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from simga import simrank
from simga.data import gen_structural_heterophily
from simga.errors import GuardError, InputFormatError, NumericError, ParameterError
from simga.graph import build_graph, random_graph, transition
from simga.model import HyperParams, precompute_similarity
from simga.simrank import (
    DUMP_CHUNK,
    SparseSim,
    _checked_symmetric,
    _topk,
    class_score_histogram,
    dump_sparse_sim,
    load_sparse_sim,
    simrank_fixedpoint,
    simrank_localpush,
    simrank_power_series,
    sparse_aggregate,
    topk_from_push,
    topk_prune,
)

from conftest import graph_from_text, two_cliques


class TestFixedPoint:
    def test_unit_diagonal(self):
        g = random_graph(30, avg_degree=4, seed=0)
        s = simrank_fixedpoint(g, 0.6, 10)
        assert np.all(np.diag(s.values) == 1.0)

    def test_single_edge_pair_is_zero(self):
        g = graph_from_text("0 1")
        s = simrank_fixedpoint(g, 0.6, 20)
        assert s.values[0, 1] == 0.0

    def test_star_leaves(self, star2):
        s = simrank_fixedpoint(star2, 0.6, 20)
        assert s.values[0, 2] == pytest.approx(0.6, abs=1e-12)

    def test_bad_decay_rejected(self, star2):
        for c in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ParameterError):
                simrank_fixedpoint(star2, c, 5)

    def test_symmetric_bounded(self):
        g = random_graph(50, avg_degree=5, seed=3)
        v = simrank_fixedpoint(g, 0.6, 15).values
        assert np.abs(v - v.T).max() <= 1e-12
        assert v.min() >= 0.0 and v.max() <= 1.0 + 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_entries_monotone_in_decay(self, seed):
        g = random_graph(40, avg_degree=5, seed=seed, min_degree=1)
        lo = simrank_fixedpoint(g, 0.4, 25).values
        mid = simrank_fixedpoint(g, 0.6, 25).values
        hi = simrank_fixedpoint(g, 0.8, 25).values
        assert np.all(lo <= mid + 1e-12)
        assert np.all(mid <= hi + 1e-12)

    def test_disconnected_pairs_exactly_zero(self):
        g = two_cliques(4)
        s = simrank_fixedpoint(g, 0.6, 20)
        assert np.all(s.values[:4, 4:] == 0.0)

    def test_isolated_node_row(self):
        g = graph_from_text("0 2")  # node 1 isolated
        s = simrank_fixedpoint(g, 0.6, 10)
        assert s.values[1, 1] == 1.0
        assert s.values[1, 0] == 0.0 and s.values[1, 2] == 0.0

    def test_returns_unpruned_sparse_sim(self):
        g = random_graph(30, avg_degree=4, seed=5)
        s = simrank_fixedpoint(g, 0.6, 5)
        assert isinstance(s, SparseSim)
        assert (s.k, s.method, s.iterations) == (g.n, "fixedpoint", 5)
        pruned = topk_prune(s, g.n).csr  # k = n prunes nothing
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(pruned, name), getattr(s.csr, name))


def dense_fixedpoint(g, c, iterations):
    """The all-dense loop simrank_fixedpoint ran before it iterated on CSR."""
    p = transition(g)
    pt = p.T.tocsr()
    s = np.eye(g.n)
    for _ in range(iterations):
        s = c * ((p @ s) @ pt)
        np.fill_diagonal(s, 1.0)
    return np.minimum(s, s.T)


class TestFixedPointAgainstDenseLoop:
    """The CSR steps give the S of the all-dense loop, while S stays sparse and once it fills."""

    CASES = {
        "path": lambda: build_graph(400, [(i, i + 1) for i in range(399)]),
        "two_cliques": lambda: two_cliques(5),
        # the cycle 1-2-...-299-1 plus the isolated node 0
        "isolated_node": lambda: build_graph(300, [(i, i % 299 + 1) for i in range(1, 300)]),
        "fills": lambda: random_graph(200, avg_degree=8, seed=0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_dense_loop(self, case):
        g = self.CASES[case]()
        ref = dense_fixedpoint(g, 0.6, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a SparseEfficiencyWarning fails the test
            v = simrank_fixedpoint(g, 0.6, 5).values
        assert isinstance(v, np.ndarray) and v.shape == (g.n, g.n)
        assert np.abs(v - ref).max() <= 1e-15
        assert np.array_equal(v == 0.0, ref == 0.0)
        assert np.all(np.diag(v) == 1.0)
        assert np.array_equal(v, v.T)


class TestPowerSeries:
    def test_zero_terms(self, triangle):
        s = simrank_power_series(triangle, 0.6, 0)
        assert np.allclose(s, 0.4 * np.eye(3))

    def test_entries_nondecreasing_in_terms(self):
        g = random_graph(25, avg_degree=4, seed=5)
        prev = simrank_power_series(g, 0.6, 2)
        for terms in (5, 10, 20):
            cur = simrank_power_series(g, 0.6, terms)
            assert np.all(cur >= prev - 1e-15)
            prev = cur

    def test_star_gap_to_fixed_point_is_real_and_measured(self, star2):
        # the series and the pinned fixed point are distinct objects; the gap
        # on a 2-leaf star is ~0.1125 and is recorded, not asserted equal
        series = simrank_power_series(star2, 0.6, 20)
        fixed = simrank_fixedpoint(star2, 0.6, 20).values
        gap = abs(series[0, 2] - fixed[0, 2])
        assert 0.05 < gap < 0.2


class TestLocalPush:
    def test_single_isolated_node(self):
        g = build_graph(1, [])
        raw = simrank_localpush(g, 0.6, 0.1)
        assert raw.estimate.nnz == 1 and raw.estimate[0, 0] == 1.0 - 0.6
        assert 0 in raw.estimate  # flattened pair key u * n + v
        assert raw.residual.nnz == 0

    def test_bad_eps_rejected(self, star2):
        with pytest.raises(ParameterError):
            simrank_localpush(star2, 0.6, 0.0)

    @pytest.mark.parametrize("eps", [0.1, 0.02])
    def test_residual_guard_on_exit(self, eps):
        g = random_graph(60, avg_degree=6, seed=2)
        raw = simrank_localpush(g, 0.6, eps)
        assert raw.max_residual() <= (1 - 0.6) * eps

    @pytest.mark.parametrize("seed", range(6))
    def test_rescaled_estimate_matches_power_series(self, seed):
        eps = 0.05
        g = random_graph(40 + 7 * seed, avg_degree=6, seed=seed, min_degree=2)
        raw = simrank_localpush(g, 0.6, eps)
        series = simrank_power_series(g, 0.6, 50)
        assert np.abs(raw.estimate.toarray() - series).max() <= eps

    def test_estimate_symmetric_within_pop_threshold(self):
        # rounding in the sparse products can leave one of a mirrored pair just
        # under the push threshold (1-c)*eps and the other just over it, so
        # mirrored walk masses differ by at most that threshold, and the
        # estimate, (1-c) times the walk mass, by (1-c) times it
        eps, c = 0.05, 0.6
        g = random_graph(50, avg_degree=6, seed=9)
        est = simrank_localpush(g, c, eps).estimate.toarray()
        assert np.abs(est - est.T).max() <= (1 - c) * ((1 - c) * eps + 1e-12)

    def test_node_relabelling_agrees_on_the_bound(self):
        eps = 0.05
        g = random_graph(45, avg_degree=5, seed=4, min_degree=2)
        perm = np.random.default_rng(4).permutation(g.n)  # node u of g is node perm[u] of h
        edges = [(u, v) for u in range(g.n) for v in g.neighbor_slice(u).tolist() if u < v]
        h = build_graph(g.n, [(perm[u], perm[v]) for u, v in edges])
        series = simrank_power_series(g, 0.6, 50)
        a = simrank_localpush(g, 0.6, eps)
        b = simrank_localpush(h, 0.6, eps)
        back = np.ix_(perm, perm)
        assert np.abs(a.estimate.toarray() - series).max() <= eps
        assert np.abs(b.estimate.toarray()[back] - series).max() <= eps
        # committed mass is order-dependent only through sub-threshold residuals;
        # the estimate is (1-c) times the committed mass
        mass_gap = abs(a.estimate.sum() - b.estimate.sum())
        support = (a.residual.toarray() != 0) | (b.residual.toarray()[back] != 0)
        assert mass_gap <= (1 - 0.6) * support.sum() * (1 - 0.6) * eps


def production(g, c, eps, mode):
    """The production S with every nonzero kept (k = n), as a dense matrix."""
    return precompute_similarity(g, HyperParams(c=c, eps=eps, k=g.n, sim_mode=mode)).values


class TestProduction:
    def test_exact_star_value(self, star2):
        s = production(star2, 0.6, 0.01, "exact")
        assert s[0, 2] == pytest.approx(0.6, abs=1e-12)

    def test_diagonal_pinned_in_both_modes(self):
        g = random_graph(30, avg_degree=5, seed=1)
        for mode in ("exact", "approx"):
            s = production(g, 0.6, 0.05, mode)
            assert np.all(np.diag(s) == 1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_vs_approx_disagreement_bounded(self, seed):
        g = random_graph(60 + 10 * seed, avg_degree=10, seed=seed, min_degree=7)
        exact = production(g, 0.6, 0.01, "exact")
        approx = production(g, 0.6, 0.01, "approx")
        assert np.abs(exact - approx).max() <= 0.05

    def test_dense_guard_refuses_large_graphs(self):
        g = build_graph(20001, [(0, 1)])
        with pytest.raises(GuardError, match="top-k"):
            precompute_similarity(g, HyperParams(eps=0.1, sim_mode="exact"))

    def test_exact_route_builds_no_dense_matrix(self):
        # S stays one CSR from the fixed point through top-k; a dense S alone
        # would trace 8 n^2 bytes
        g = gen_structural_heterophily(0, 3000, 4).graph
        hp = HyperParams(sim_mode="exact", eps=0.1, k=1024)
        precompute_similarity(g, hp)  # warm: first-call set-up is not the route's
        tracemalloc.start()
        try:
            precompute_similarity(g, hp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * g.n * g.n / 2


class TestTopkPrune:
    def test_k_at_least_n_keeps_all_nonzeros(self):
        g = random_graph(20, avg_degree=4, seed=0)
        s = simrank_fixedpoint(g, 0.6, 10)
        pruned = topk_prune(s, g.n)
        assert np.array_equal(pruned.values, s.values * (s.values != 0))

    def test_k1_keeps_diagonal_of_unit_diag_matrix(self):
        g = random_graph(15, avg_degree=4, seed=2)
        s = simrank_fixedpoint(g, 0.6, 10)
        pruned = topk_prune(s, 1)
        for u in range(g.n):
            cols, scores = row(pruned, u)
            assert cols.tolist() == [u] and scores.tolist() == [1.0]

    def test_ties_go_to_smaller_column(self):
        values = np.array([[0.2, 0.5, 0.5], [0.5, 0.2, 0.5], [0.1, 0.1, 0.1]])
        s = SparseSim(sp.csr_matrix(values), k=3, method="custom", c=0.6)
        pruned = topk_prune(s, 1)
        assert row(pruned, 0)[0].tolist() == [1]
        assert row(pruned, 1)[0].tolist() == [0]
        assert row(pruned, 2)[0].tolist() == [0]

    def test_retained_mass_nondecreasing_in_k(self):
        g = random_graph(30, avg_degree=5, seed=7)
        s = simrank_fixedpoint(g, 0.6, 10)
        total = s.values.sum()
        prev = 0.0
        for k in (1, 2, 4, 8, 16, 30):
            frac = topk_prune(s, k).csr.data.sum() / total
            assert frac >= prev - 1e-15
            prev = frac
        assert prev == pytest.approx(1.0)

    def test_bad_k_rejected(self, star2):
        s = simrank_fixedpoint(star2, 0.6, 5)
        with pytest.raises(ParameterError):
            topk_prune(s, 0)

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 5), st.integers(0, 7)),
            st.sampled_from([0.125, 0.25, 0.5, 1.0]),  # few values, so many ties
        ),
        st.integers(1, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_row_selection_matches_per_row_sort(self, cands, k):
        n = 8  # rows 6 and 7 never hold a candidate
        pairs = list(cands.items())
        csr = sorted(pairs)  # the candidates as CSR rows, columns ascending
        indptr = np.searchsorted([u for (u, _), _ in csr], np.arange(n + 1))
        cols = np.array([v for (_, v), _ in csr], dtype=np.int64)
        vals = np.array([x for _, x in csr], dtype=np.float64)
        pruned = _topk(sp.csr_matrix((vals, cols, indptr), shape=(n, n)), k, "custom", 0.6)
        for u in range(n):
            mine = [(v, x) for (r, v), x in pairs if r == u]
            top = sorted(mine, key=lambda e: (-e[1], e[0]))[:k]
            want = sorted(top)
            cols_out, vals_out = row(pruned, u)
            assert list(zip(cols_out.tolist(), vals_out.tolist())) == want

    def test_sparse_route_matches_dense_route(self):
        g = random_graph(40, avg_degree=6, seed=11)
        raw = simrank_localpush(g, 0.6, 0.02)
        values = raw.estimate.toarray()  # the push estimate with a unit diagonal
        np.fill_diagonal(values, 1.0)
        dense = SparseSim(sp.csr_matrix(values), k=g.n, method="localpush", c=0.6)
        for k in (1, 3, 10, 40):
            a = topk_from_push(raw, k).values
            b = topk_prune(dense, k).values
            assert np.array_equal(a, b)

    def test_push_topk_keeps_the_estimate_bit_for_bit(self):
        # topk_from_push only pins the diagonal and prunes: with k = n every
        # off-diagonal score is the push estimate's entry, unscaled
        g = random_graph(60, avg_degree=6, seed=12)
        raw = simrank_localpush(g, 0.6, 0.02)
        s = topk_from_push(raw, g.n).csr
        est = raw.estimate
        off = ~np.eye(g.n, dtype=bool)
        assert np.array_equal(s.toarray()[off], est.toarray()[off])
        assert np.array_equal(s.diagonal(), np.ones(g.n))
        assert s.nnz - g.n == est.nnz - np.count_nonzero(est.diagonal())

    def test_push_that_commits_nothing_gives_the_identity(self):
        g = random_graph(30, avg_degree=4, seed=13)
        raw = simrank_localpush(g, 0.6, 5.0)  # threshold (1-c)*eps = 2 is above R = I
        assert raw.pops == 0
        s = topk_from_push(raw, 3)
        assert s.n == g.n
        assert np.array_equal(s.values, np.eye(g.n))


class TestSparseAggregate:
    def test_identity_aggregation(self):
        s = SparseSim(sp.csr_matrix(np.eye(6)), k=6, method="custom", c=0.6)
        pruned = topk_prune(s, 3)
        h = np.random.default_rng(0).normal(size=(6, 4))
        assert np.array_equal(sparse_aggregate(pruned, h), h)

    def test_zero_input(self):
        g = random_graph(10, avg_degree=3, seed=0)
        pruned = topk_prune(simrank_fixedpoint(g, 0.6, 5), 4)
        out = sparse_aggregate(pruned, np.zeros((10, 3)))
        assert np.all(out == 0.0)

    def test_matches_dense_product(self):
        rng = np.random.default_rng(42)
        g = random_graph(8, avg_degree=3, seed=1)
        s = simrank_fixedpoint(g, 0.6, 10)
        pruned = topk_prune(s, 8)
        h = rng.normal(size=(8, 5))
        want = pruned.values @ h
        assert np.abs(sparse_aggregate(pruned, h) - want).max() <= 1e-12

    def test_dimension_mismatch(self):
        g = random_graph(10, avg_degree=3, seed=0)
        pruned = topk_prune(simrank_fixedpoint(g, 0.6, 5), 4)
        with pytest.raises(ParameterError):
            sparse_aggregate(pruned, np.zeros((9, 3)))


class TestScoreHistogram:
    def test_uniform_labels_leave_inter_empty(self):
        g = random_graph(20, avg_degree=4, seed=3)
        s = simrank_fixedpoint(g, 0.6, 10)
        hist = class_score_histogram(topk_prune(s, s.n), np.zeros(20, int))
        assert hist.inter_counts.sum() == 0
        assert hist.intra_counts.sum() == hist.pairs_retained

    def test_two_cliques_all_mass_intra(self):
        g = two_cliques(4)
        labels = np.array([0] * 4 + [1] * 4)
        s = simrank_fixedpoint(g, 0.6, 20)
        hist = class_score_histogram(topk_prune(s, s.n), labels)
        assert hist.inter_counts.sum() == 0  # cross-component similarity is exactly 0
        assert hist.intra_counts.sum() > 0

    def test_counts_conserve_retained_pairs(self):
        g = random_graph(25, avg_degree=5, seed=6)
        s = simrank_fixedpoint(g, 0.6, 10)
        labels = np.random.default_rng(1).integers(0, 3, size=25)
        hist = class_score_histogram(topk_prune(s, s.n), labels)
        assert hist.intra_counts.sum() + hist.inter_counts.sum() == hist.pairs_retained

    def test_pair_kept_by_either_row_counts_once(self):
        # {0, 1} is kept by both rows, {0, 2} only by row 2
        s = SparseSim.from_arrays(n=3, k=2, indptr=[0, 2, 4, 6], cols=[0, 1, 0, 1, 0, 2],
                                  scores=[1.0, 0.5, 0.5, 1.0, 0.3, 1.0], method="custom", c=0.6)
        hist = class_score_histogram(s, np.array([0, 0, 1]))
        assert hist.pairs_retained == 2
        assert hist.intra_counts.sum() == 1 and hist.inter_counts.sum() == 1


class TestDumpLoad:
    def test_round_trip(self):
        g = random_graph(15, avg_degree=4, seed=8)
        pruned = topk_prune(simrank_fixedpoint(g, 0.6, 10), 5)
        buf = io.StringIO()
        dump_sparse_sim(pruned, buf)
        buf.seek(0)
        loaded = load_sparse_sim(buf)
        assert loaded.n == pruned.n and loaded.k == pruned.k and loaded.c == pruned.c
        assert loaded.method == pruned.method
        assert np.array_equal(loaded.values, pruned.values)

    def test_scores_survive_at_full_precision(self, star2):
        pruned = topk_prune(simrank_fixedpoint(star2, 0.6, 20), 8)
        buf = io.StringIO()
        dump_sparse_sim(pruned, buf)
        text = buf.getvalue()
        assert "0 2 0.59999999999999998" in text  # 17 significant digits of 0.6
        buf.seek(0)
        assert load_sparse_sim(buf).values[0, 2] == 0.6

    def test_bad_header_rejected(self):
        with pytest.raises(InputFormatError):
            load_sparse_sim(io.StringIO("5 3 x fixedpoint\n"))

    def test_signed_zero_survives(self):
        s = SparseSim.from_arrays(n=2, k=2, indptr=[0, 2, 3], cols=[0, 1, 1], scores=[-0.0, 0.0, -0.0],
                                  method="custom", c=0.6)
        buf = io.StringIO()
        dump_sparse_sim(s, buf)
        assert buf.getvalue().splitlines()[1:] == ["0 0 -0", "0 1 0", "1 1 -0"]
        buf.seek(0)
        assert np.signbit(load_sparse_sim(buf).csr.data).tolist() == [True, False, True]

    @pytest.mark.parametrize("case", ["empty_rows", "no_nodes", "past_one_chunk", "repeats_across_chunks",
                                      "row_across_chunks", "signed_zeros", "tiny_scores"])
    def test_matches_per_line_writer(self, case):
        # the chunked writer must give the bytes of one f-string line per entry
        if case == "empty_rows":
            s = SparseSim.from_arrays(n=5, k=3, indptr=[0, 2, 2, 3, 3, 6], cols=[0, 4, 2, 0, 3, 4],
                                      scores=[1.0, 1 / 3, 0.6, 1e-300, 0.0, 0.1], method="fixedpoint", c=0.6)
        elif case == "no_nodes":
            s = SparseSim.from_arrays(n=0, k=1, indptr=[0], cols=[], scores=[], method="localpush", c=0.8)
        elif case == "signed_zeros":  # -0.0 and 0.0 are formatted apart: "-0" and "0"
            s = SparseSim.from_arrays(n=3, k=3, indptr=[0, 3, 4, 6], cols=[0, 1, 2, 1, 0, 2],
                                      scores=[0.0, -0.0, 0.0, -0.0, 1.0, 0.0], method="custom", c=0.6)
        elif case == "tiny_scores":  # the least subnormal and a tiny normal
            s = SparseSim.from_arrays(n=2, k=2, indptr=[0, 2, 4], cols=[0, 1, 0, 1],
                                      scores=[5e-324, 1e-300, 1e-300, 5e-324], method="custom", c=0.6)
        elif case == "row_across_chunks":  # rows of 3 entries: the chunk boundary splits a row
            n = DUMP_CHUNK // 3 + 2
            rng = np.random.default_rng(2)
            s = SparseSim.from_arrays(n=n, k=3, indptr=np.arange(n + 1) * 3, cols=np.tile([0, 1, 2], n),
                                      scores=rng.random(3 * n), method="localpush", c=0.6)
            assert DUMP_CHUNK % 3 and DUMP_CHUNK < s.csr.nnz
        else:
            rng = np.random.default_rng(0)
            n, k = DUMP_CHUNK // 2, 6  # 3 entries per row on average: 1.5 chunks, some rows empty
            counts = rng.integers(0, k + 1, size=n)
            cols = np.concatenate([np.sort(rng.choice(n, size=c, replace=False)) for c in counts])
            scores = rng.random(cols.size)
            if case == "repeats_across_chunks":  # four scores, each on both sides of the boundary
                scores = rng.choice([1.0, 0.6, 1 / 3, 0.1], size=cols.size)
            s = SparseSim.from_arrays(n=n, k=k, indptr=np.concatenate([[0], np.cumsum(counts)]), cols=cols,
                                      scores=scores, method="localpush", c=0.6)
            assert DUMP_CHUNK < cols.size < 2 * DUMP_CHUNK
        got, want = io.StringIO(), io.StringIO()
        dump_sparse_sim(s, got)
        dump_per_line(s, want)
        assert got.getvalue() == want.getvalue()

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_repeated_scores_match_per_line_writer(self, data):
        # scores from a small pool, so repeats dominate, under chunks of 1 to 8 entries
        n = data.draw(st.integers(1, 8))
        kept = data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        pool = data.draw(st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.1, 1 / 3, 0.6, 1.0]),
                                  min_size=1, max_size=4))
        scores = data.draw(st.lists(st.sampled_from(pool), min_size=sum(kept), max_size=sum(kept)))
        mask = np.array(kept).reshape(n, n)
        s = SparseSim.from_arrays(n=n, k=n, indptr=np.concatenate([[0], np.cumsum(mask.sum(axis=1))]),
                                  cols=np.nonzero(mask)[1], scores=scores, method="custom", c=0.6)
        got, want = io.StringIO(), io.StringIO()
        with mock.patch.object(simrank, "DUMP_CHUNK", data.draw(st.integers(1, 8))):
            dump_sparse_sim(s, got)
        dump_per_line(s, want)
        assert got.getvalue() == want.getvalue()


def dump_per_line(s, sink):
    """The dump written one f-string line per entry, the reference for the chunked writer."""
    sink.write(f"{s.n} {s.k} {s.c:.17g} {s.method}\n")
    for u in range(s.n):
        cols, scores = row(s, u)
        for v, score in zip(cols.tolist(), scores.tolist()):
            sink.write(f"{u} {v} {score:.17g}\n")


def row(s, u):
    """Row u of a SparseSim's CSR: its column ids and its scores."""
    lo, hi = s.csr.indptr[u], s.csr.indptr[u + 1]
    return s.csr.indices[lo:hi], s.csr.data[lo:hi]


def past_one_block():
    """A 600 x 600 identity, and two rows near its end."""
    n = 600
    return np.eye(n), n - 2, n - 1


class TestSimMatrixValidation:
    def test_asymmetric_fixedpoint_rejected(self):
        # a 2 x 2 matrix, and a pair in the last rows of a larger one, as the fixed point's CSR S
        big, u, v = past_one_block()
        big[u, v], big[v, u] = 0.5, 0.2
        for values in (np.array([[1.0, 0.5], [0.2, 1.0]]), big):
            with pytest.raises(NumericError, match="not symmetric within 1e-12"):
                _checked_symmetric(sp.csr_matrix(values))

    def test_non_finite_rejected(self):
        # a 2 x 2 matrix, and NaN, +inf or -inf in the last row block of a larger one
        cases = [np.array([[1.0, np.nan], [np.nan, 1.0]])]
        for bad in (np.nan, np.inf, -np.inf):
            big, u, v = past_one_block()
            big[u, v] = big[v, u] = bad
            cases.append(big)
        for values in cases:
            with pytest.raises(NumericError, match="non-finite"):
                _checked_symmetric(sp.csr_matrix(values))

    def test_checks_build_no_matrix_sized_temporary(self):
        # the checks read indptr and the CSR's stored entries, so building a
        # SparseSim traces a small share of the dense S's bytes
        n = 2000
        rng = np.random.default_rng(0)
        values = rng.random((n, n))
        values = np.minimum(values, values.T)
        np.fill_diagonal(values, 1.0)
        csr = sp.csr_matrix(values)
        tracemalloc.start()
        try:
            SparseSim(csr, k=n, method="fixedpoint", c=0.6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes / 4

    def test_dense_view_guarded(self):
        n = simrank.DENSE_LIMIT + 1
        s = SparseSim(sp.identity(n, format="csr"), k=1, method="custom", c=0.6)
        with pytest.raises(GuardError, match=f"n <= {simrank.DENSE_LIMIT}"):
            s.values


class TestFixedPointChecks:
    """simrank_fixedpoint refuses a bad S on its CSR, with one message per condition."""

    def test_asymmetric_pattern_rejected(self):
        # (u, v) is stored and (v, u) is not, so the patterns of S and S^T differ
        big, u, v = past_one_block()
        big[u, v] = 0.5
        with pytest.raises(NumericError, match="not symmetric within 1e-12"):
            _checked_symmetric(sp.csr_matrix(big))

    def test_pattern_mismatch_within_tolerance_is_shaved(self):
        # an unpartnered entry below 1e-12 passes, and the shave takes it to 0
        big, u, v = past_one_block()
        big[u, v] = 1e-13
        assert np.array_equal(_checked_symmetric(sp.csr_matrix(big)).toarray(), np.eye(len(big)))

    @pytest.mark.parametrize("bad", [-0.25, 1.5])
    def test_out_of_range_rejected(self, bad):
        big, u, v = past_one_block()
        big[u, v] = big[v, u] = bad
        with pytest.raises(NumericError, match=r"outside \[0, 1\]"):
            _checked_symmetric(sp.csr_matrix(big))

    def test_diagonal_not_one_rejected(self):
        big, u, _ = past_one_block()
        big[u, u] = 0.5
        with pytest.raises(NumericError, match="diagonal must be exactly 1"):
            _checked_symmetric(sp.csr_matrix(big))

    def test_nan_reads_as_non_finite(self):
        # off the diagonal a NaN passes the other checks (it compares false), and on
        # it, it would read as a diagonal fault
        for u, v in ((598, 599), (599, 599)):
            big, _, _ = past_one_block()
            big[u, v] = big[v, u] = np.nan
            with pytest.raises(NumericError, match="non-finite"):
                _checked_symmetric(sp.csr_matrix(big))

    def test_shave_takes_the_smaller_of_each_pair(self):
        rng = np.random.default_rng(1)
        values = rng.random((50, 50)) * (rng.random((50, 50)) < 0.2)
        values = np.maximum(values, values.T)  # symmetric, entries in [0, 1)
        upper = np.triu(values, 1) > 0
        values[upper] = np.nextafter(values[upper], 2.0)  # one ulp of asymmetric rounding
        np.fill_diagonal(values, 1.0)
        got = _checked_symmetric(sp.csr_matrix(values)).toarray()
        assert np.array_equal(got, np.minimum(values, values.T))

    def test_traced_peak_on_a_filled_graph(self):
        # S fills; the bound is the peak traced when the fixed point checked a
        # dense S (6.17 n^2 doubles); the CSR checks trace 5.67
        g = random_graph(200, avg_degree=8, seed=0)
        tracemalloc.start()
        try:
            simrank_fixedpoint(g, 0.6, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.17 * 8 * g.n * g.n

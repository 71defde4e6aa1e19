import io
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from simga.errors import InputFormatError, ParameterError
from simga.graph import (
    Graph,
    build_graph,
    load_edge_list,
    node_homophily,
    random_connected_graph,
    random_graph,
    transition,
    transition_t,
)

from conftest import graph_from_text


def adjacency(lists, value=1.0):
    """CSR whose row u holds `value` at each id of lists[u], in the order given."""
    degrees = [len(nb) for nb in lists]
    return sp.csr_matrix(
        (
            np.full(sum(degrees), value),
            np.array([v for nb in lists for v in nb], dtype=np.int64),
            np.concatenate([[0], np.cumsum(degrees)]),
        ),
        shape=(len(lists), len(lists)),
    )


class TestLoadEdgeList:
    def test_path_graph(self):
        g = graph_from_text("0 1\n1 2")
        assert (g.n, g.m) == (3, 2)
        assert g.neighbor_slice(1).tolist() == [0, 2]
        assert g.adjacency_csr() is g.adj

    def test_duplicate_and_self_loop_collapsed(self):
        g = graph_from_text("0 1\n1 0\n0 0")
        assert (g.n, g.m) == (2, 1)

    def test_id_gap_becomes_isolated_node(self):
        g = graph_from_text("0 2")
        assert g.n == 3
        assert g.degrees[1] == 0

    def test_comments_and_blank_lines_ignored(self):
        g = graph_from_text("# header\n\n0 1\n  \n# trailing\n1 2\n")
        assert (g.n, g.m) == (3, 2)

    def test_malformed_token_reports_line_number(self):
        with pytest.raises(InputFormatError, match="line 2"):
            graph_from_text("0 1\n1 x")

    def test_line_numbers_count_a_leading_header(self):
        with pytest.raises(InputFormatError, match="line 5: non-integer"):
            graph_from_text("# u v\n\n# more\n0 1\n1 x\n")

    def test_wrong_arity_reports_line_number(self):
        with pytest.raises(InputFormatError, match="line 1"):
            graph_from_text("0 1 2")

    def test_negative_id_rejected(self):
        with pytest.raises(InputFormatError, match="negative"):
            graph_from_text("0 -1")

    def test_empty_input_rejected(self):
        with pytest.raises(InputFormatError, match="empty"):
            graph_from_text("# nothing\n")


class TestBuildGraph:
    @pytest.mark.parametrize("edges", [[(0, 3)], [(0, -1)], [(3, 3)]])
    def test_endpoint_outside_the_node_range_rejected(self, edges):
        with pytest.raises(InputFormatError, match=r"edge endpoint outside \[0, 3\)"):
            build_graph(3, edges)

    def test_array_and_pair_list_give_the_same_graph(self):
        pairs = [(2, 0), (0, 2), (1, 1), (3, 1), (0, 1)]
        a, b = build_graph(5, pairs), build_graph(5, np.array(pairs))
        assert (a.n, a.m) == (b.n, b.m) == (5, 3)
        assert a.adj.indices.tolist() == b.adj.indices.tolist() == [1, 2, 0, 3, 0, 1]
        assert a.adj.indptr.tolist() == b.adj.indptr.tolist() == [0, 2, 4, 5, 6, 6]


class TestGraphInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_graph_structure(self, seed):
        g = random_graph(40, avg_degree=5, seed=seed)
        assert int(g.degrees.sum()) == 2 * g.m
        assert g.adj.indptr[-1] == 2 * g.m
        for u in range(g.n):
            nb = g.neighbor_slice(u)
            assert np.all(np.diff(nb) > 0)
            assert u not in nb
            for v in nb.tolist():  # symmetry
                assert u in g.neighbor_slice(v)

    def test_min_degree_floor(self):
        g = random_graph(50, avg_degree=4, seed=1, min_degree=3)
        assert g.degrees.min() >= 3

    def test_connected_generator_is_connected(self):
        g = random_connected_graph(30, extra_edges=10, seed=0)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in g.neighbor_slice(u).tolist():
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        assert len(seen) == g.n

    @pytest.mark.parametrize(
        "lists,message",
        [
            ([[2, 1], [0], [0]], "neighbor list of node 0 not strictly increasing"),
            ([[1, 2], [0, 2], [1, 0]], "neighbor list of node 2 not strictly increasing"),
            ([[1, 2], [0, 1], [0, 2]], "self-loop at node 1"),
            ([[1, 2], [0, 1], [1, 0]], "self-loop at node 1"),  # node 2 is out of order too
            ([[1, 2], [1, 0], [0, 2]], "neighbor list of node 1 not strictly increasing"),
        ],
    )
    def test_bad_neighbor_list_names_the_first_node(self, lists, message):
        with pytest.raises(InputFormatError, match=f"^{message}$"):
            Graph(adjacency(lists))

    def test_asymmetric_input_rejected(self):
        with pytest.raises(InputFormatError):
            Graph(adjacency([[1], [1]]))  # node 1 lists itself

    @pytest.mark.parametrize(
        "adj,message",
        [
            (sp.csr_matrix((2, 3)), r"adjacency must be square, got shape \(2, 3\)"),
            (adjacency([[1], [0]], value=2.0), "adjacency values must all be 1"),
            (adjacency([[1], [0]], value=0.0), "adjacency values must all be 1"),
            (adjacency([[1], []]), "adjacency not symmetric"),
        ],
    )
    def test_malformed_adjacency_rejected(self, adj, message):
        with pytest.raises(InputFormatError, match=f"^{message}$"):
            Graph(adj)

    def test_loaded_graph_holds_only_its_adjacency(self):
        g = random_graph(20000, avg_degree=8, seed=0)
        text = "\n".join(
            f"{u} {v}" for u in range(g.n) for v in g.neighbor_slice(u).tolist() if u < v
        )
        tracemalloc.start()
        try:
            loaded = load_edge_list(io.StringIO(text))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        adj = loaded.adj
        assert held <= 1.1 * (adj.data.nbytes + adj.indices.nbytes + adj.indptr.nbytes)


class TestNodeHomophily:
    def test_triangle_constant_labels(self, triangle):
        assert node_homophily(triangle, np.zeros(3, int)) == 1.0

    def test_single_edge_distinct_labels(self):
        g = graph_from_text("0 1")
        assert node_homophily(g, np.array([0, 1])) == 0.0

    def test_star_mixed_labels(self):
        # center 0 labeled 0, leaves labeled 0, 0, 1 -> (2/3 + 1 + 1 + 0)/4
        g = graph_from_text("0 1\n0 2\n0 3")
        value = node_homophily(g, np.array([0, 0, 0, 1]))
        assert value == pytest.approx((2 / 3 + 1 + 1 + 0) / 4, abs=1e-12)

    def test_isolated_nodes_excluded_from_average(self):
        g = graph_from_text("0 1\n3 4")  # node 2 isolated
        labels = np.array([0, 0, 9, 0, 1])
        assert node_homophily(g, labels) == pytest.approx((1 + 1 + 0 + 0) / 4)

    def test_all_isolated_rejected(self):
        g = build_graph(3, [])
        with pytest.raises(ParameterError, match="homophily undefined"):
            node_homophily(g, np.zeros(3, int))

    def test_constant_labels_give_one(self):
        g = random_graph(30, avg_degree=4, seed=7)
        assert node_homophily(g, np.zeros(30, int)) == pytest.approx(1.0)

    @given(st.permutations(list(range(4))), st.integers(0, 2**30))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_label_relabeling(self, perm, seed):
        g = random_graph(25, avg_degree=4, seed=seed % 1000)
        labels = np.random.default_rng(seed).integers(0, 4, size=25)
        relabeled = np.asarray(perm)[labels]
        assert node_homophily(g, labels) == pytest.approx(
            node_homophily(g, relabeled), abs=1e-12
        )


class TestTransition:
    def test_path_middle_row(self, path3):
        p = transition(path3)
        assert p.toarray()[1].tolist() == [0.5, 0.0, 0.5]

    def test_isolated_row_is_zero(self):
        g = graph_from_text("0 2")
        p = transition(g)
        assert p.toarray()[1].tolist() == [0.0, 0.0, 0.0]

    def test_star_center_row_uniform(self, star4):
        p = transition(star4)
        assert np.allclose(p.toarray()[0], [0, 0.25, 0.25, 0.25, 0.25])

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_sum_to_one(self, seed):
        g = random_graph(60, avg_degree=6, seed=seed)
        p = transition(g)
        sums = np.asarray(p.sum(axis=1)).ravel()
        active = g.degrees > 0
        assert np.abs(sums[active] - 1.0).max() < 1e-12
        assert np.all(sums[~active] == 0.0)

    @pytest.mark.parametrize("text", ["0 2", "0 1\n1 2\n2 0\n2 3\n5 6"])
    def test_transpose_read_off_the_adjacency(self, text):
        g = graph_from_text(text)
        want, got = transition(g).T.tocsr(), transition_t(g)
        for a, b in [(want.data, got.data), (want.indices, got.indices), (want.indptr, got.indptr)]:
            assert a.dtype == b.dtype and np.array_equal(a, b)

import numpy as np
import pytest

from simga.errors import GuardError, ParameterError
from simga.graph import random_connected_graph, random_graph, transition
from simga.simrank import simrank_fixedpoint
from simga.walks import (
    enumerate_tours,
    meeting_probability,
    simrank_series,
    walk_distribution,
)

from conftest import graph_from_text


def tours_dense(g, u, length):
    dense = np.zeros(g.n)
    for node, prob in enumerate_tours(g, u, length).items():
        dense[node] = prob
    return dense


class TestWalkDistribution:
    def test_length_zero_is_indicator(self, path3):
        d = walk_distribution(transition(path3), 0, 0)
        assert d.tolist() == [1.0, 0.0, 0.0]

    def test_path_one_step(self, path3):
        d = walk_distribution(transition(path3), 0, 1)
        assert d.tolist() == [0.0, 1.0, 0.0]

    def test_path_two_steps(self, path3):
        d = walk_distribution(transition(path3), 0, 2)
        assert d.tolist() == [0.5, 0.0, 0.5]

    def test_source_out_of_range(self, path3):
        with pytest.raises(ParameterError):
            walk_distribution(transition(path3), 5, 1)

    def test_mass_absorbed_at_isolated_node(self):
        g = graph_from_text("0 2")  # node 1 isolated
        p = transition(g)
        assert walk_distribution(p, 0, 3).sum() == pytest.approx(1.0)
        assert walk_distribution(p, 1, 2).sum() == 0.0


class TestEnumerateTours:
    def test_star_center_one_step(self):
        g = graph_from_text("0 1\n0 2\n0 3")
        assert enumerate_tours(g, 0, 1) == {1: pytest.approx(1 / 3), 2: pytest.approx(1 / 3), 3: pytest.approx(1 / 3)}

    def test_isolated_source_no_tours(self):
        g = graph_from_text("0 2")
        assert enumerate_tours(g, 1, 1) == {}

    def test_guard_on_size(self):
        g = random_graph(13, avg_degree=3, seed=0)
        with pytest.raises(GuardError):
            enumerate_tours(g, 0, 2)

    def test_guard_on_length(self, path3):
        with pytest.raises(GuardError):
            enumerate_tours(path3, 0, 7)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_walk_distribution_everywhere(self, seed):
        # the walk/tour equivalence on every guarded instance
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        g = random_graph(n, avg_degree=2.5, seed=seed + 100)
        p = transition(g)
        for u in range(g.n):
            for length in range(7):
                got = walk_distribution(p, u, length)
                want = tours_dense(g, u, length)
                assert np.abs(got - want).max() <= 1e-12


class TestMeetingProbability:
    def test_self_meeting_is_squared_norm(self, triangle):
        p = transition(triangle)
        d = walk_distribution(p, 0, 2)
        assert meeting_probability(p, 0, 0, 2) == pytest.approx(float(d @ d))

    def test_disconnected_components_never_meet(self):
        g = graph_from_text("0 1\n2 3")
        p = transition(g)
        for length in (1, 2, 3):
            assert meeting_probability(p, 0, 2, length) == 0.0

    def test_star_leaves_meet_at_center(self, star2):
        p = transition(star2)
        assert meeting_probability(p, 0, 2, 1) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_paired_tour_enumeration(self, seed):
        g = random_graph(8, avg_degree=2.5, seed=seed)
        p = transition(g)
        for u in range(g.n):
            for v in range(u, g.n):
                for length in (1, 2, 3):
                    hu = tours_dense(g, u, length)
                    hv = tours_dense(g, v, length)
                    assert meeting_probability(p, u, v, length) == pytest.approx(
                        float(hu @ hv), abs=1e-12
                    )


class TestWalkSeries:
    def test_single_edge_series_is_zero_off_diagonal(self):
        g = graph_from_text("0 1")
        for terms in (1, 5, 20):
            s = simrank_series(g, 0.6, terms)
            assert s[0, 1] == 0.0
        fp = simrank_fixedpoint(g, 0.6, 20)
        assert fp.values[0, 1] == 0.0  # matches the fixed point here

    def test_truncation_tail_bound(self):
        c = 0.6
        g = random_connected_graph(20, extra_edges=15, seed=3)
        for terms in (3, 8, 15):
            a = simrank_series(g, c, terms)
            b = simrank_series(g, c, terms + 10)
            bound = c ** (terms + 1) / (1 - c)
            assert np.abs(a - b).max() <= bound + 1e-12

    def test_entries_nondecreasing_in_terms(self):
        g = random_connected_graph(15, extra_edges=10, seed=1)
        prev = simrank_series(g, 0.6, 1)
        for terms in (2, 4, 8):
            cur = simrank_series(g, 0.6, terms)
            off = ~np.eye(g.n, dtype=bool)
            assert np.all(cur[off] >= prev[off] - 1e-15)
            prev = cur

    def test_diagonal_pinned(self):
        g = random_connected_graph(10, extra_edges=5, seed=2)
        s = simrank_series(g, 0.6, 5)
        assert np.all(np.diag(s) == 1.0)

    @pytest.mark.parametrize("terms", (1, 5, 25))
    def test_closed_forms_within_tail_bound(self, triangle, star2, terms):
        # SimRank of a triangle pair is c/(4-3c); pendant siblings first meet
        # at step one, so their SimRank is c. Summing re-meetings as well gives
        # 0.4412 and 1.2187 at 25 terms.
        c = 0.6
        bound = c ** (terms + 1)
        tri = simrank_series(triangle, c, terms)
        assert abs(tri[0, 1] - c / (4 - 3 * c)) <= bound
        sib = simrank_series(star2, c, terms)
        assert abs(sib[0, 2] - c) <= bound

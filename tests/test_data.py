import io

import numpy as np
import pytest

from simga.data import (
    DatasetBundle,
    gen_structural_heterophily,
    gen_twin_graph,
    load_features,
    load_labels,
    load_split,
)
from simga.errors import InputFormatError, ParameterError
from simga.graph import build_graph, node_homophily


class TestLoaders:
    def test_features_shape(self):
        feats = load_features(io.StringIO("1.0 2.0\n-0.5 3e-2\n"))
        assert feats.shape == (2, 2)
        assert feats[1, 1] == pytest.approx(0.03)

    def test_features_are_float32_up_to_its_range(self):
        top = float(np.finfo(np.float32).max)
        feats = load_features(io.StringIO(f"{top!r} -0.1\n"))
        assert feats.dtype == np.float32 and feats[0, 0] == np.float32(top)
        with pytest.raises(InputFormatError, match="node 1: feature value past float32's range"):
            load_features(io.StringIO("0 1\n2 -1e39\n"))

    def test_features_ragged_rejected(self):
        with pytest.raises(InputFormatError, match="line 2"):
            load_features(io.StringIO("1 2\n3\n"))

    def test_features_non_numeric_rejected(self):
        with pytest.raises(InputFormatError, match="line 1"):
            load_features(io.StringIO("a b\n"))

    def test_labels(self):
        assert load_labels(io.StringIO("0\n2\n1\n")).tolist() == [0, 2, 1]

    def test_split_may_be_loaded(self):
        assert load_split(io.StringIO("3\n1\n")).tolist() == [3, 1]


class TestBundleValidation:
    def _graph(self):
        return build_graph(4, [(0, 1), (1, 2), (2, 3)])

    def test_feature_row_count_checked(self):
        with pytest.raises(InputFormatError, match="rows"):
            DatasetBundle(self._graph(), np.zeros((3, 2)), np.zeros(4, int), 2, [0], [1], [2])

    def test_label_range_checked(self):
        with pytest.raises(InputFormatError, match="label"):
            DatasetBundle(self._graph(), np.zeros((4, 2)), np.array([0, 1, 2, 3]), 2, [0], [1], [2])

    @pytest.mark.parametrize("given,kept", [(np.float32, np.float32), (np.float64, np.float64), (np.int64, np.float64)])
    def test_features_keep_a_float_dtype(self, given, kept):
        bundle = DatasetBundle(self._graph(), np.ones((4, 2), dtype=given), np.zeros(4, int), 2, [0], [1], [2])
        assert bundle.features.dtype == kept

    def test_overlapping_splits_rejected(self):
        with pytest.raises(InputFormatError, match="overlap"):
            DatasetBundle(self._graph(), np.zeros((4, 2)), np.zeros(4, int), 2, [0, 1], [1], [2])


class TestTwinGraph:
    def test_twins_share_neighbors_and_features(self):
        bundle, pairs = gen_twin_graph(base_seed=5, twin_pairs=3)
        assert len(pairs) == 3
        for u, v in pairs:
            assert bundle.graph.neighbor_slice(u).tolist() == bundle.graph.neighbor_slice(v).tolist()
            assert bundle.features[u].tobytes() == bundle.features[v].tobytes()

    def test_zero_pairs_rejected(self):
        with pytest.raises(ParameterError):
            gen_twin_graph(base_seed=0, twin_pairs=0)

    def test_deterministic(self):
        a, _ = gen_twin_graph(base_seed=9, twin_pairs=2)
        b, _ = gen_twin_graph(base_seed=9, twin_pairs=2)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tolist() == b.labels.tolist()
        assert a.graph.adj.indices.tolist() == b.graph.adj.indices.tolist()
        assert a.train_idx.tolist() == b.train_idx.tolist()


class TestStructuralHeterophily:
    def test_homophily_below_threshold(self):
        bundle = gen_structural_heterophily(seed=0, n=400, classes=2)
        assert node_homophily(bundle.graph, bundle.labels) < 0.3

    def test_deterministic(self):
        a = gen_structural_heterophily(seed=3, n=120, classes=3)
        b = gen_structural_heterophily(seed=3, n=120, classes=3)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.graph.adj.indices.tolist() == b.graph.adj.indices.tolist()
        assert a.test_idx.tolist() == b.test_idx.tolist()

    @pytest.mark.parametrize("n,classes", [(400, 2), (120, 3), (64, 4)])
    def test_labels_balanced(self, n, classes):
        bundle = gen_structural_heterophily(seed=1, n=n, classes=classes)
        counts = np.bincount(bundle.labels, minlength=classes)
        assert counts.max() - counts.min() <= 1

    def test_splits_cover_half_quarter_quarter(self):
        bundle = gen_structural_heterophily(seed=2, n=200, classes=2)
        n = bundle.n
        assert len(bundle.train_idx) == n // 2
        assert len(bundle.val_idx) == n // 4
        assert len(bundle.train_idx) + len(bundle.val_idx) + len(bundle.test_idx) == n

    def test_too_small_rejected(self):
        with pytest.raises(ParameterError):
            gen_structural_heterophily(seed=0, n=7, classes=2)

    def test_label_follows_structural_role(self):
        # class 0 nodes carry the clique edges, so their degree differs from all others
        bundle = gen_structural_heterophily(seed=4, n=240, classes=2)
        deg = bundle.graph.degrees
        deg0 = set(deg[bundle.labels == 0].tolist())
        deg1 = set(deg[bundle.labels == 1].tolist())
        assert deg0.isdisjoint(deg1)

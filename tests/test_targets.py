import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hgrw.graph import HeteroGraph
from hgrw.metapath import MetaPath, compose_metapath
from hgrw.targets import (
    SimilarityTargets,
    TargetsConfig,
    neighborhood_distributions,
    similarity_targets,
)

from conftest import make_graph, symmetric_edges
from oracles import centered_cosine, dense_target_matrices


def build_star():
    edges = symmetric_edges([(0, 1), (0, 2), (0, 3)])
    return make_graph(
        {"node": 4},
        [("link", "node", "node", edges)],
        "node",
        labels=[1, 0, 0, -1],
        num_classes=2,
        train=[1, 2],
    )


def star_distributions(star_graph, alpha=0.6):
    sub = compose_metapath(star_graph, MetaPath((0,)))
    return neighborhood_distributions(sub, star_graph, TargetsConfig(alpha=alpha), 1)


class TestNeighborhoodDistributions:
    def test_star_label_distribution_and_coverage(self, star_graph):
        df = star_distributions(star_graph)
        assert np.allclose(df.label[0][0], [2 / 3, 0])
        assert df.train_neighbor_frac[0] == pytest.approx(2 / 3)
        assert df.mask[0]  # 2/3 > 0.6

    def test_isolated_nodes_get_zero_rows(self):
        g = make_graph(
            {"n": 3},
            [("r", "n", "n", symmetric_edges([(0, 1)]))],
            "n",
            labels=[0, 1, 0],
            num_classes=2,
        )
        df = star_distributions(g, alpha=0.0)
        assert np.all(df.attr[0][2] == 0.0)
        assert np.all(df.label[0][2] == 0.0)
        assert df.train_neighbor_frac[2] == 0.0
        assert not df.mask[2]

    def test_fully_labeled_rows_sum_to_one(self):
        edges = symmetric_edges([(0, 1), (1, 2), (0, 2)])
        g = make_graph({"n": 3}, [("r", "n", "n", edges)], "n", labels=[0, 1, 1])
        df = star_distributions(g)
        assert np.allclose(df.label[0].sum(axis=1), 1.0)

    def test_label_row_sums_bounded(self, star_graph):
        cfg = TargetsConfig(alpha=0.5)
        sub = compose_metapath(star_graph, MetaPath((0,)))
        df = neighborhood_distributions(sub, star_graph, cfg, 3)
        for hop in df.label:
            sums = hop.sum(axis=1)
            assert np.all(sums >= -1e-12) and np.all(sums <= 1.0 + 1e-12)


class TestCenteredCosine:
    def test_self_similarity(self):
        x = np.array([1.0, 2.0])
        assert centered_cosine(x, x, np.zeros(2)) == pytest.approx(1.0)

    def test_antipodal_after_centering(self):
        assert centered_cosine([1, 0], [0, 1], np.array([0.5, 0.5])) == pytest.approx(-1.0)

    def test_zero_centered_vector_gives_zero(self):
        mean = np.array([1.0, 1.0])
        assert centered_cosine([1, 1], [3, 0], mean) == 0.0


class TestLabelMask:
    def test_alpha_one_masks_everything(self, star_graph):
        df = star_distributions(star_graph)
        assert not (df.train_neighbor_frac > 1.0).any()

    def test_alpha_zero_keeps_nodes_with_train_neighbors(self, star_graph):
        df = star_distributions(star_graph)
        mask = df.train_neighbor_frac > 0.0
        # only the center sees train neighbors; every leaf sees just the
        # untrained center
        assert mask.tolist() == [True, False, False, False]

    @given(a=st.floats(0, 1), b=st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_alpha(self, a, b):
        df = star_distributions(build_star())
        lo, hi = min(a, b), max(a, b)
        assert np.all((df.train_neighbor_frac > hi) <= (df.train_neighbor_frac > lo))


class TestSimilarityTargets:
    def build(self, n=20, num_hops=2, seed=0, labeled_frac=0.8) -> tuple[HeteroGraph, SimilarityTargets]:
        rng = np.random.default_rng(seed)
        dense = rng.random((n, n)) < 0.15
        dense |= dense.T
        np.fill_diagonal(dense, False)
        edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(dense))]
        labels = rng.integers(0, 3, size=n)
        labels[rng.random(n) > labeled_frac] = -1
        g = make_graph({"n": n}, [("r", "n", "n", edges)], "n", labels.tolist(), num_classes=3, seed=seed)
        sub = compose_metapath(g, MetaPath((0,)))
        tg = similarity_targets(sub, g, TargetsConfig(alpha=0.3), num_hops)
        return g, tg

    def test_self_pair_is_one(self):
        _, tg = self.build()
        assert tg.attr_block(np.array([0]), np.array([0]))[0, 0] == pytest.approx(1.0)

    def test_symmetric_and_bounded(self):
        _, tg = self.build()
        rng = np.random.default_rng(1)
        for _ in range(30):
            i, j = rng.integers(0, tg.n, size=(2, 1))
            v = tg.attr_block(i, j)[0, 0]
            assert v == pytest.approx(tg.attr_block(j, i)[0, 0])
            assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12
            w = tg.label_block(i, j)[0, 0]
            assert w == pytest.approx(tg.label_block(j, i)[0, 0])
            assert -1.0 - 1e-12 <= w <= 1.0 + 1e-12

    def test_antipodal_pair_reaches_minus_one(self):
        # half the population sees [1,0], half sees [0,1]; the column mean is
        # [.5,.5] and the centered neighbor distributions are antipodal
        edges = symmetric_edges([(0, 2), (1, 3)])
        features = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=np.float32)
        g = make_graph(
            {"n": 4},
            [("r", "n", "n", edges)],
            "n",
            labels=[0, 1, 0, 1],
            feature_dim=2,
            features={"n": features},
        )
        sub = compose_metapath(g, MetaPath((0,)))
        tg = similarity_targets(sub, g, TargetsConfig(alpha=0.0), 1)
        assert tg.attr_block(np.array([0]), np.array([1]))[0, 0] == pytest.approx(-1.0)

    def test_matches_dense_oracle(self):
        for num_hops in (1, 2):
            g, tg = self.build(n=40, num_hops=num_hops, seed=3)
            adj = compose_metapath(g, MetaPath((0,))).adjacency.toarray().astype(np.float64)
            y = np.zeros((40, 3))
            train = (g.splits == 0) & (g.labels >= 0)
            y[np.flatnonzero(train), g.labels[train]] = 1.0
            sx, sy = dense_target_matrices(adj, g.features[0].astype(np.float64), y, num_hops)
            idx = np.arange(40)
            assert np.allclose(tg.attr_block(idx, idx), sx, atol=1e-12)
            assert np.allclose(tg.label_block(idx, idx), sy, atol=1e-12)

    def test_full_window_matches_the_blocks(self):
        for num_hops in (1, 2):
            _, tg = self.build(n=25, num_hops=num_hops, seed=4)
            idx = np.arange(25)
            attr, label, mask = tg.full_window()
            # a symmetric product and an indexed one may round apart
            assert np.allclose(attr, tg.attr_block(idx, idx), rtol=0, atol=1e-15)
            assert np.allclose(label, tg.label_block(idx, idx), rtol=0, atol=1e-15)
            assert np.array_equal(mask, tg.mask_block(idx, idx))
            assert tg.full_window()[1] is label

    def test_lazy_blocks_equal_dense_matrix(self):
        _, tg = self.build(n=30, seed=5)
        idx = np.arange(30)
        full = tg.attr_block(idx, idx)
        rows = np.array([3, 7, 11])
        cols = np.array([0, 2, 29])
        assert np.array_equal(tg.attr_block(rows, cols), full[np.ix_(rows, cols)])

    def test_translation_invariance(self):
        g, _ = self.build(n=15, seed=7)
        rng = np.random.default_rng(7)
        # eighth-steps keep both x and x+4 exactly representable in float32,
        # so the shift really is a pure translation
        exact = (rng.integers(-16, 17, size=g.features[0].shape) / 8.0).astype(np.float32)

        def with_features(x):
            return g.__class__(
                schema=g.schema,
                adjacency=g.adjacency,
                features=(x,),
                labels=g.labels,
                splits=g.splits,
                target_type=g.target_type,
                num_classes=g.num_classes,
            )

        cfg = TargetsConfig(alpha=0.3)
        base = with_features(exact)
        shifted = with_features(exact + np.float32(4.0))
        idx = np.arange(15)
        t1 = similarity_targets(compose_metapath(base, MetaPath((0,))), base, cfg, 2)
        t2 = similarity_targets(compose_metapath(shifted, MetaPath((0,))), shifted, cfg, 2)
        assert np.allclose(t1.attr_block(idx, idx), t2.attr_block(idx, idx), atol=1e-9)

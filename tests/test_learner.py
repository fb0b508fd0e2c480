import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hgrw.errors import DataError
from hgrw.learner import (
    LearnerConfig,
    PairBatch,
    SimilarityModel,
    full_batch,
    gradients,
    load_model,
    pair_loss,
    read_checkpoint,
    save_model,
    similarity_block,
    train,
)
from hgrw.metapath import MetaPath, compose_metapath, enumerate_metapaths
from hgrw.sparse import row_normalize
from hgrw.synth import SynthConfig, synth_generate
from hgrw.targets import TargetsConfig, similarity_targets

from conftest import make_graph, symmetric_edges
from oracles import fd_gradients, model_similarity


class StaticTargets:
    """Targets stub backed by explicit matrices."""

    def __init__(self, attr: np.ndarray, label: np.ndarray, mask: np.ndarray):
        self.attr = attr
        self.label = label
        self.mask = mask

    def attr_block(self, rows, cols):
        return self.attr[np.ix_(rows, cols)]

    def label_block(self, rows, cols):
        return self.label[np.ix_(rows, cols)]

    def mask_block(self, rows, cols):
        return np.outer(self.mask[rows], self.mask[cols])


def planted_instance(n=30, seed=0, num_hops=1, paths_len=1, concat=False, alpha=0.3):
    g = synth_generate(
        SynthConfig(target_nodes=n, num_classes=2, feature_dim=4,
                    self_homophily=(0.3,), mean_degree=4.0, seed=seed)
    )
    paths = enumerate_metapaths(g.schema, g.target_type, paths_len)
    tcfg = TargetsConfig(num_hops=num_hops, alpha=alpha)
    targets = [similarity_targets(compose_metapath(g, p), g, tcfg)[1] for p in paths]
    cfg = LearnerConfig(hidden_dim=4, num_hops=num_hops, seed=seed,
                        concat_distribution_features=concat)
    dist = [t.df for t in targets] if concat else None
    model = SimilarityModel(g, paths, cfg, dist_features=dist)
    return g, paths, targets, model


class TestEncode:
    def test_empty_graph_propagates_zero(self):
        g = make_graph({"n": 3}, [("r", "n", "n", [])], "n", labels=[0, 1, 0])
        model = SimilarityModel(g, [MetaPath((0,))], LearnerConfig(hidden_dim=2, num_hops=1))
        z = model.encodings()
        assert len(z) == 1
        assert np.all(z[0] == 0.0)

    def test_identity_projection_single_relation(self):
        edges = symmetric_edges([(0, 1), (1, 2)])
        g = make_graph({"n": 3}, [("r", "n", "n", edges)], "n", labels=[0, 1, 0], feature_dim=3)
        model = SimilarityModel(g, [MetaPath((0,))], LearnerConfig(hidden_dim=3, num_hops=1))
        model.set_param(("in", 0), np.eye(3))
        z = model.encodings()[0]
        expected = row_normalize(g.adjacency[0]) @ g.features[0].astype(np.float64)
        assert np.allclose(z, expected, atol=1e-12)

    def test_mixed_input_dims_share_hidden_space(self):
        g = make_graph(
            {"paper": 3, "author": 2},
            [("pa", "paper", "author", [(0, 0)]), ("ap", "author", "paper", [(0, 0)])],
            "paper",
            labels=[0, 1, 0],
        )
        feats = list(g.features)
        feats[1] = np.random.default_rng(0).standard_normal((2, 5)).astype(np.float32)
        nts = list(g.schema.node_types)
        nts[1] = nts[1].__class__(1, "author", 2, 5)
        g = g.__class__(
            schema=g.schema.__class__(node_types=tuple(nts), relations=g.schema.relations),
            adjacency=g.adjacency,
            features=tuple(feats),
            labels=g.labels,
            splits=g.splits,
            target_type=0,
            num_classes=2,
        )
        model = SimilarityModel(g, [MetaPath((0, 1))], LearnerConfig(hidden_dim=6, num_hops=2))
        z = model.encodings()
        assert z[0].shape == (5, 6) and z[1].shape == (5, 6)

    def test_cache_tracks_parameter_updates(self):
        g, paths, _, model = planted_instance()
        z1 = model.encodings()[0].copy()
        key, param = model.param_items()[0]
        model.set_param(key, param + 0.1)
        z2 = model.encodings()[0]
        assert not np.allclose(z1, z2)


class TestModelSimilarity:
    def test_self_similarity_is_one(self):
        _, paths, _, model = planted_instance()
        assert model_similarity(model, paths[0], 3, 3) == pytest.approx(1.0)

    @given(seed=st.integers(0, 10**5))
    @settings(max_examples=15, deadline=None)
    def test_bounded_and_symmetric(self, seed):
        _, paths, _, model = planted_instance(seed=seed % 7)
        rng = np.random.default_rng(seed)
        i, j = int(rng.integers(30)), int(rng.integers(30))
        s = model_similarity(model, paths[0], i, j)
        assert -1.0 - 1e-9 <= s <= 1.0 + 1e-9
        assert s == pytest.approx(model_similarity(model, paths[0], j, i))

    def test_block_matches_scalar(self):
        _, paths, _, model = planted_instance()
        rows = np.array([0, 3, 7])
        cols = np.array([2, 5])
        block = similarity_block(model, paths[0], rows, cols)
        for a, i in enumerate(rows):
            for b, j in enumerate(cols):
                assert block[a, b] == pytest.approx(model_similarity(model, paths[0], int(i), int(j)))


class TestPairLoss:
    def test_exact_fit_is_zero(self):
        g, paths, _, model = planted_instance()
        idx = np.arange(g.target_count)
        s = similarity_block(model, paths[0], idx, idx)
        stub = StaticTargets(s, s, np.ones(g.target_count))
        l1, l2 = pair_loss(model, paths[0], full_batch(g.target_count), stub)
        assert l1 == pytest.approx(0.0, abs=1e-18)
        assert l2 == pytest.approx(0.0, abs=1e-18)

    def test_masked_out_pairs_contribute_nothing(self):
        g, paths, _, model = planted_instance()
        n = g.target_count
        stub = StaticTargets(np.zeros((n, n)), np.ones((n, n)), np.zeros(n))
        _, l2 = pair_loss(model, paths[0], full_batch(n), stub)
        assert l2 == 0.0

    def test_single_pair_hand_arithmetic(self):
        g, paths, _, model = planted_instance()
        n = g.target_count
        s = model_similarity(model, paths[0], 2, 9)
        # residuals of exactly 0.5 against both targets
        attr = np.full((n, n), s - 0.5)
        label = np.full((n, n), s + 0.5)
        stub = StaticTargets(attr, label, np.ones(n))
        l1, l2 = pair_loss(model, paths[0], PairBatch(np.array([2]), np.array([9])), stub)
        assert l1 == pytest.approx(0.25)
        assert l2 == pytest.approx(0.25)

    def test_full_batch_equals_pair_sum(self):
        g, paths, targets, model = planted_instance(n=12)
        n = g.target_count
        l1, l2 = pair_loss(model, paths[0], full_batch(n), targets[0])
        acc1 = acc2 = 0.0
        tg = targets[0]
        for i in range(n):
            for j in range(n):
                s = model_similarity(model, paths[0], i, j)
                acc1 += (s - tg.attr_target(i, j)) ** 2
                acc2 += tg.pair_mask(i, j) * (s - tg.label_target(i, j)) ** 2
        assert l1 == pytest.approx(acc1, rel=1e-9)
        assert l2 == pytest.approx(acc2, rel=1e-9)

    def test_window_mean_recovers_full_loss(self):
        # cyclic windows cover every ordered pair the same number of times,
        # so the mean window loss rescales exactly to the full-batch loss
        g, paths, targets, model = planted_instance(n=9)
        n, k1, k2 = 9, 3, 4
        full_l1, full_l2 = pair_loss(model, paths[0], full_batch(n), targets[0])
        tot1 = tot2 = 0.0
        base = np.arange(n)
        for a in range(n):
            for b in range(n):
                rows = (a + np.arange(k1)) % n
                cols = (b + np.arange(k2)) % n
                w1, w2 = pair_loss(model, paths[0], PairBatch(rows, cols), targets[0])
                tot1 += w1
                tot2 += w2
        scale = (n * n) / (k1 * k2)
        assert tot1 / (n * n) * scale == pytest.approx(full_l1, rel=1e-9)
        assert tot2 / (n * n) * scale == pytest.approx(full_l2, rel=1e-9)


class TestGradients:
    def test_zero_at_exact_fit(self):
        g, paths, _, model = planted_instance()
        idx = np.arange(g.target_count)
        s = similarity_block(model, paths[0], idx, idx)
        stub = StaticTargets(s, s, np.ones(g.target_count))
        res = gradients(model, paths[0], full_batch(g.target_count), stub)
        for grad in list(res.w_in.values()) + res.w_path:
            assert np.allclose(grad, 0.0, atol=1e-12)

    def test_masked_label_gradients_vanish(self):
        g, paths, _, model = planted_instance()
        n = g.target_count
        stub = StaticTargets(np.zeros((n, n)), np.ones((n, n)), np.zeros(n))
        res = gradients(model, paths[0], full_batch(n), stub,
                        include_attr=False, include_label=True)
        assert res.l2 == 0.0
        for grad in list(res.w_in.values()) + res.w_path:
            assert np.allclose(grad, 0.0, atol=1e-15)

    @pytest.mark.parametrize("num_hops,concat", [(1, False), (2, False), (1, True), (2, True)])
    def test_matches_finite_differences(self, num_hops, concat):
        g, paths, targets, model = planted_instance(
            n=12, seed=3, num_hops=num_hops, paths_len=1, concat=concat
        )
        rng = np.random.default_rng(5)
        batch = PairBatch(
            np.sort(rng.choice(12, size=8, replace=False)),
            np.sort(rng.choice(12, size=7, replace=False)),
        )
        res = gradients(model, paths[0], batch, targets[0])
        ref = fd_gradients(model, paths[0], batch, targets[0])
        for key, param in model.param_items():
            analytic = res.w_in[key[1]] if key[0] == "in" else res.w_path[key[2]]
            err = np.abs(analytic - ref[key])
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(ref[key])), 1e-6)
            assert np.max(err / denom) < 1e-4


class TestTrain:
    def test_single_path_uniform_lambda(self):
        g, paths, targets, _ = planted_instance(n=25)
        cfg = LearnerConfig(hidden_dim=4, num_hops=1, epochs_attr=4, epochs_label=2, seed=0)
        _, hist = train(g, paths[:1], targets[:1], cfg)
        assert all(row.lambdas == (1.0,) for row in hist)
        assert [row.phase for row in hist] == ["attr"] * 4 + ["label"] * 2

    def test_deterministic_given_seed(self):
        g, paths, targets, _ = planted_instance(n=25)
        cfg = LearnerConfig(hidden_dim=4, num_hops=1, epochs_attr=5, epochs_label=2, seed=9)
        m1, h1 = train(g, paths, targets, cfg)
        m2, h2 = train(g, paths, targets, cfg)
        assert h1 == h2
        for (k1, p1), (k2, p2) in zip(m1.param_items(), m2.param_items()):
            assert k1 == k2 and np.array_equal(p1, p2)

    def test_attr_loss_decreases_on_planted_instance(self):
        g = synth_generate(SynthConfig(target_nodes=200, num_classes=2, seed=2))
        paths = enumerate_metapaths(g.schema, g.target_type, 1)
        tcfg = TargetsConfig(num_hops=1, alpha=0.6)
        targets = [similarity_targets(compose_metapath(g, p), g, tcfg)[1] for p in paths]
        cfg = LearnerConfig(epochs_attr=40, epochs_label=1, seed=2)
        _, hist = train(g, paths, targets, cfg)
        # batches are full windows at this size, so history rows are exact
        # full-batch attribute losses
        assert hist[39].losses[0] < hist[0].losses[0]

    def test_small_batches_vary_by_epoch(self):
        g, paths, targets, _ = planted_instance(n=30)
        cfg = LearnerConfig(hidden_dim=4, num_hops=1, epochs_attr=4, epochs_label=1,
                            batch_rows=6, batch_cols=5, seed=1)
        _, hist = train(g, paths, targets, cfg)
        assert len({row.losses for row in hist}) > 1


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        g, paths, targets, _ = planted_instance(n=20)
        cfg = LearnerConfig(hidden_dim=4, num_hops=1, epochs_attr=3, epochs_label=1, seed=4)
        model, _ = train(g, paths, targets, cfg)
        fn = str(tmp_path / "model.msl")
        save_model(model, fn, extra_meta={"targets": {"num_hops": 1, "alpha": 0.3}})
        loaded, header = load_model(fn, g)
        assert header["meta"]["targets"]["alpha"] == 0.3
        for (k1, p1), (k2, p2) in zip(model.param_items(), loaded.param_items()):
            assert k1 == k2 and np.array_equal(p1, p2)
        assert model_similarity(loaded, paths[0], 1, 2) == pytest.approx(
            model_similarity(model, paths[0], 1, 2)
        )

    def test_header_readable_without_graph(self, tmp_path):
        g, paths, targets, model = planted_instance(n=20)
        fn = str(tmp_path / "model.msl")
        save_model(model, fn)
        header = read_checkpoint(fn).header
        assert header["paths"] == [list(p.relation_ids) for p in paths]

    def test_schema_mismatch_rejected(self, tmp_path):
        g, paths, _, model = planted_instance(n=20)
        fn = str(tmp_path / "model.msl")
        save_model(model, fn)
        other = synth_generate(SynthConfig(target_nodes=21, num_classes=2, self_homophily=(0.3,), seed=0))
        with pytest.raises(DataError):
            load_model(fn, other)

    def test_bad_magic_rejected(self, tmp_path):
        fn = tmp_path / "junk.msl"
        fn.write_bytes(b"NOPE" + b"\x00" * 16)
        g, *_ = planted_instance(n=20)
        with pytest.raises(DataError):
            read_checkpoint(str(fn))

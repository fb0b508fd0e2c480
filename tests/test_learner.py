import contextlib
import errno
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hgrw import learner
from hgrw.errors import DataError, NumericError
from hgrw.learner import (
    HistoryRow,
    LearnerConfig,
    PairBatch,
    SimilarityModel,
    _path_reps,
    gradients,
    param_views,
    read_checkpoint,
    save_history_csv,
    save_model,
    train,
    union_adjacency,
)
from hgrw.metapath import MetaPath, compose_metapath, enumerate_metapaths
from hgrw.sparse import row_normalize
from hgrw.synth import SynthConfig, synth_generate
from hgrw.targets import TargetsConfig, similarity_targets

from conftest import make_graph, symmetric_edges
from oracles import dense_gradients, fd_gradients, model_similarity, pair_loss, similarity_block


class StaticTargets:
    """One-hop targets stub backed by explicit factors: the pair (i, j) has
    attribute target attr[i] @ attr[j], label target label[i] @ label[j]
    and mask mask[i] * mask[j]."""

    num_hops = 1

    def __init__(self, attr: np.ndarray, label: np.ndarray, mask: np.ndarray):
        self.attr = attr
        self.label = label
        self.mask = mask

    def one_hop_factors(self):
        return self.attr, self.label, self.mask

    def attr_block(self, rows, cols):
        return self.attr[rows] @ self.attr[cols].T

    def label_block(self, rows, cols):
        return self.label[rows] @ self.label[cols].T

    def mask_block(self, rows, cols):
        return np.outer(self.mask[rows], self.mask[cols])


def full_batch(n):
    return PairBatch(np.arange(n), np.arange(n))


def replace_param(model, key, value):
    """Set one parameter of ``model`` through its flat vector."""
    params = model.params.copy()
    param_views(params, model.layout)[key][...] = value
    model.set_params(params)


def unit_rows(model, path):
    """The one-hop unit rows, whose Gram is the model's similarity matrix."""
    return _path_reps(model, path)[0].units


def target_encodings(model, path):
    """Per hop, the kept target rows of W^k X times the input projections."""
    return [rep.z for rep in _path_reps(model, path)]


# the targets planted_instance builds by default
PLANTED_TARGETS = TargetsConfig(alpha=0.3)


def planted_instance(n=30, seed=0, num_hops=1, paths_len=1, concat=False, alpha=PLANTED_TARGETS.alpha):
    g = synth_generate(
        SynthConfig(target_nodes=n, num_classes=2, feature_dim=4,
                    self_homophily=(0.3,), mean_degree=4.0, seed=seed)
    )
    paths = enumerate_metapaths(g.schema, g.target_type, paths_len)
    targets = [similarity_targets(compose_metapath(g, p), g, TargetsConfig(alpha=alpha), num_hops)
               for p in paths]
    cfg = LearnerConfig(hidden_dim=4, num_hops=num_hops, seed=seed,
                        concat_distribution_features=concat)
    model = SimilarityModel(g, paths, cfg)
    return g, paths, targets, model


def two_type_instance(seed, num_hops, dims=(3, 5), n=(9, 6), hidden=4):
    """A random graph of target type "p" and a second type "a" of another
    feature width: a self relation on "p" and the pair p -> a, a -> p,
    with the model over the paths (self) and (p -> a -> p)."""
    rng = np.random.default_rng(seed)

    def edges(n_src, n_dst):
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(rng.random((n_src, n_dst)) < 0.35))]

    pa = edges(n[0], n[1])
    g = make_graph(
        {"p": n[0], "a": n[1]},
        [("pp", "p", "p", symmetric_edges(edges(n[0], n[0]))), ("pa", "p", "a", pa),
         ("ap", "a", "p", [(j, i) for i, j in pa])],
        "p",
        labels=rng.integers(0, 2, n[0]).tolist(),
        num_classes=2,
        feature_dim={"p": dims[0], "a": dims[1]},
        seed=seed,
    )
    paths = [MetaPath((0,)), MetaPath((1, 2))]
    targets = [similarity_targets(compose_metapath(g, p), g, TargetsConfig(), num_hops) for p in paths]
    model = SimilarityModel(g, paths, LearnerConfig(hidden_dim=hidden, num_hops=num_hops, seed=seed))
    return g, paths, targets, model


class TestEncode:
    def test_empty_graph_propagates_zero(self):
        g = make_graph({"n": 3}, [("r", "n", "n", [])], "n", labels=[0, 1, 0])
        model = SimilarityModel(g, [MetaPath((0,))], LearnerConfig(hidden_dim=2, num_hops=1))
        z = target_encodings(model, MetaPath((0,)))
        assert len(z) == 1
        assert np.all(z[0] == 0.0)

    def test_identity_projection_single_relation(self):
        edges = symmetric_edges([(0, 1), (1, 2)])
        g = make_graph({"n": 3}, [("r", "n", "n", edges)], "n", labels=[0, 1, 0], feature_dim=3)
        model = SimilarityModel(g, [MetaPath((0,))], LearnerConfig(hidden_dim=3, num_hops=1))
        replace_param(model, ("in", 0), np.eye(3))
        z = target_encodings(model, MetaPath((0,)))[0]
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
        z = target_encodings(model, MetaPath((0, 1)))
        # the model keeps only the target type's rows: the 3 papers
        assert z[0].shape == (3, 6) and z[1].shape == (3, 6)

    @given(seed=st.integers(0, 10**4), num_hops=st.integers(1, 3),
           dims=st.tuples(st.integers(1, 6), st.integers(1, 6)))
    @settings(max_examples=30, deadline=None)
    def test_mixed_types_match_the_explicit_walk(self, seed, num_hops, dims):
        g, paths, _, model = two_type_instance(seed, num_hops, dims)
        rng = np.random.default_rng(seed)
        w_in = [rng.normal(size=(t.feature_dim, 4)) for t in g.schema.node_types]
        for t, w in enumerate(w_in):
            replace_param(model, ("in", t), w)
        union, _ = union_adjacency(g)
        walk = row_normalize(union)
        z = np.concatenate([x.astype(np.float64) @ w for x, w in zip(g.features, w_in)])
        encodings = target_encodings(model, paths[0])
        assert len(encodings) == num_hops
        for enc in encodings:
            z = walk @ z
            assert np.max(np.abs(enc - z[: g.target_count])) <= 1e-12


class TestWindowReps:
    @pytest.mark.parametrize("num_hops", [1, 2])
    @pytest.mark.parametrize("concat", [False, True])
    def test_window_rows_match_the_full_rows(self, num_hops, concat):
        _, paths, _, model = planted_instance(n=20, seed=1, num_hops=num_hops, concat=concat)
        rng = np.random.default_rng(num_hops)
        full = _path_reps(model, paths[0])
        windows = (np.array([7, 2, 2, 19, 0, 7]), rng.permutation(20)[:9], np.arange(20))
        for idx in windows:
            for rep, ref in zip(_path_reps(model, paths[0], idx), full, strict=True):
                for name in ("units", "norms", "inputs", "z"):
                    np.testing.assert_allclose(getattr(rep, name), getattr(ref, name)[idx], rtol=0, atol=1e-12)
                np.testing.assert_array_equal(rep.z_mean, ref.z_mean)


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
        units = unit_rows(model, paths[0])
        stub = StaticTargets(units, units, np.ones(g.target_count))
        l1, l2 = pair_loss(model, paths[0], full_batch(g.target_count), stub)
        assert l1 == pytest.approx(0.0, abs=1e-18)
        assert l2 == pytest.approx(0.0, abs=1e-18)

    def test_masked_out_pairs_contribute_nothing(self):
        g, paths, _, model = planted_instance()
        n = g.target_count
        stub = StaticTargets(np.zeros((n, 1)), np.ones((n, 1)), np.zeros(n))
        _, l2 = pair_loss(model, paths[0], full_batch(n), stub)
        assert l2 == 0.0

    def test_single_pair_hand_arithmetic(self):
        g, paths, _, model = planted_instance()
        n = g.target_count
        s = model_similarity(model, paths[0], 2, 9)
        # residuals of exactly 0.5 against both targets at the pair (2, 9)
        attr, label = np.ones((n, 1)), np.ones((n, 1))
        attr[2], label[2] = s - 0.5, s + 0.5
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
                pair = np.array([i]), np.array([j])
                acc1 += (s - tg.attr_block(*pair)[0, 0]) ** 2
                acc2 += tg.mask[i] * tg.mask[j] * (s - tg.label_block(*pair)[0, 0]) ** 2
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
        units = unit_rows(model, paths[0])
        stub = StaticTargets(units, units, np.ones(g.target_count))
        res = gradients(model, paths[0], full_batch(g.target_count), stub)
        assert np.allclose(res.grad, 0.0, atol=1e-12)

    def test_masked_label_gradients_vanish(self):
        g, paths, _, model = planted_instance()
        n = g.target_count
        stub = StaticTargets(np.zeros((n, 1)), np.ones((n, 1)), np.zeros(n))
        res = gradients(model, paths[0], full_batch(n), stub,
                        include_attr=False, include_label=True)
        assert res.l2 == 0.0
        assert np.allclose(res.grad, 0.0, atol=1e-15)

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
        ref = param_views(fd_gradients(model, paths[0], batch, targets[0]), model.layout)
        for key, analytic in param_views(res.grad, model.layout).items():
            err = np.abs(analytic - ref[key])
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(ref[key])), 1e-6)
            assert np.max(err / denom) < 1e-4

    @pytest.mark.parametrize("path", [0, 1])
    def test_two_types_two_hops_input_blocks_match_finite_differences(self, path):
        g, paths, targets, model = two_type_instance(seed=4, num_hops=2)
        batch = PairBatch(np.array([0, 2, 3, 7]), np.array([1, 2, 5, 6, 8]))
        res = gradients(model, paths[path], batch, targets[path])
        ref = param_views(fd_gradients(model, paths[path], batch, targets[path]), model.layout)
        views = param_views(res.grad, model.layout)
        for t in g.schema.node_types:
            analytic = views["in", t.type_id]
            assert np.abs(analytic).max() > 1e-6
            err = np.abs(analytic - ref["in", t.type_id])
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(ref["in", t.type_id])), 1e-6)
            assert np.max(err / denom) < 1e-4


def cancelling_instance(seed, concat, alpha, core=5, isolated=3):
    """A one-hop instance with rows of zero centered norm: every core node
    has a twin with negated features and the same edges, so the encodings
    cancel in the column mean, and the isolated nodes' encodings (zero, like
    their neighbourhood distributions) sit at that mean up to rounding, far
    under the zero-norm cutoff."""
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(core) for j in range(i + 1, core) if rng.random() < 0.5]
    pairs += [(i + core, j + core) for i, j in pairs]
    n = 2 * core + isolated
    x = rng.standard_normal((n, 4)).astype(np.float32)
    x[core : 2 * core] = -x[:core]
    labels = rng.integers(0, 2, n).tolist()
    g = make_graph({"n": n}, [("r", "n", "n", symmetric_edges(pairs))], "n",
                   labels=labels, num_classes=2, features={"n": x}, feature_dim=4)
    path = MetaPath((0,))
    tg = similarity_targets(compose_metapath(g, path), g, TargetsConfig(alpha=alpha), 1)
    cfg = LearnerConfig(hidden_dim=4, num_hops=1, seed=seed, concat_distribution_features=concat)
    return g, [path], [tg], SimilarityModel(g, [path], cfg)


def window(kind, n, rng):
    """Row and column indices of one window shape over n targets."""
    if kind == "full":
        return np.arange(n), np.arange(n)
    if kind == "sampled":
        return (np.sort(rng.choice(n, size=rng.integers(1, n + 1), replace=False)),
                np.sort(rng.choice(n, size=rng.integers(1, n + 1), replace=False)))
    if kind == "single row":
        return rng.integers(0, n, 1), np.arange(n)
    if kind == "single column":
        return np.sort(rng.choice(n, size=n // 2, replace=False)), rng.integers(0, n, 1)
    if kind == "unsorted":
        return rng.permutation(n)[: rng.integers(2, n + 1)], rng.permutation(n)
    if kind == "square":  # the columns are the rows, repeats included
        idx = rng.integers(0, n, n // 2 + 1)
        return idx, idx.copy()
    return rng.integers(0, n, 2 * n), rng.integers(0, n, n // 2 + 1)  # repeated indices


def assert_close(x, ref):
    # relative to the larger side, with an absolute floor for entries that
    # should be zero: the two forms cancel different terms
    x, ref = np.asarray(x), np.asarray(ref)
    assert np.all(np.abs(x - ref) <= 1e-10 * np.maximum(np.abs(ref), 1e-2))


class TestFactoredGradients:
    @given(
        seed=st.integers(0, 10**4),
        instance=st.sampled_from(["synth", "cancelling"]),
        kind=st.sampled_from(["full", "sampled", "single row", "single column", "unsorted", "repeated", "square"]),
        include_attr=st.booleans(),
        include_label=st.booleans(),
        concat=st.booleans(),
        alpha=st.sampled_from([0.0, 0.3, 1.0]),  # 1.0 masks every pair out
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_dense_window(self, seed, instance, kind, include_attr, include_label, concat, alpha):
        if instance == "synth":
            g, paths, targets, model = planted_instance(
                n=13 + seed % 8, seed=seed % 5, concat=concat, alpha=alpha
            )
        else:
            g, paths, targets, model = cancelling_instance(seed, concat, alpha)
        rng = np.random.default_rng(seed)
        for _ in range(int(rng.integers(0, 3))):  # move off the initial parameters
            key, shape = model.layout[int(rng.integers(len(model.layout)))]
            replace_param(model, key, param_views(model.params, model.layout)[key]
                          + rng.normal(scale=0.3, size=shape))
        batch = PairBatch(*window(kind, g.target_count, rng))
        res = gradients(model, paths[0], batch, targets[0], include_attr, include_label)
        ref = dense_gradients(model, paths[0], batch, targets[0], include_attr, include_label)
        assert_close(res.l1, ref.l1)
        assert_close(res.l2, ref.l2)
        assert res.grad.shape == ref.grad.shape == model.params.shape
        assert_close(res.grad, ref.grad)

    def test_cancelling_instance_has_zero_norm_rows(self):
        _, paths, targets, model = cancelling_instance(seed=0, concat=True, alpha=0.3)
        norms = _path_reps(model, paths[0])[0].norms
        assert np.sum(norms < 1e-12) >= 3 and np.any(norms > 1e-6)

    @pytest.mark.parametrize("concat", [False, True])
    def test_two_hops_use_the_dense_window(self, concat):
        g, paths, targets, model = planted_instance(n=14, seed=2, num_hops=2, concat=concat)
        batch = PairBatch(np.array([3, 1, 3, 9]), np.arange(14))
        res = gradients(model, paths[0], batch, targets[0])
        ref = dense_gradients(model, paths[0], batch, targets[0])
        assert (res.l1, res.l2) == pytest.approx((ref.l1, ref.l2), rel=1e-12)
        assert np.allclose(res.grad, ref.grad, rtol=1e-10, atol=1e-12)

    def test_two_hop_full_window_reads_the_targets_full_product(self):
        g, paths, targets, model = planted_instance(n=14, seed=2, num_hops=2)
        batch = full_batch(g.target_count)
        res = gradients(model, paths[0], batch, targets[0])
        ref = dense_gradients(model, paths[0], batch, targets[0])
        assert (res.l1, res.l2) == pytest.approx((ref.l1, ref.l2), rel=1e-12)
        assert np.allclose(res.grad, ref.grad, rtol=1e-10, atol=1e-12)
        # the full window's blocks are built once and then reused
        assert targets[0].full_window()[0] is targets[0].full_window()[0]

    @pytest.mark.parametrize("num_hops", [1, 2])
    def test_non_finite_parameters_give_non_finite_losses(self, num_hops):
        # the Gram form clamps its losses at 0.0; the clamp must keep NaN
        g, paths, targets, model = planted_instance(n=14, seed=1, num_hops=num_hops)
        key, shape = model.layout[0]
        replace_param(model, key, np.full(shape, np.nan))
        res = gradients(model, paths[0], full_batch(g.target_count), targets[0])
        assert not np.isfinite(res.l1) and not np.isfinite(res.l2)


@pytest.mark.parametrize("num_hops", [1, 2])
def test_sampled_window_sets_the_step_cost(num_hops):
    """One step on a 100 x 80 window over 20,000 targets allocates for the
    window's rows only: a single n x hidden float64 array would take 5 MB."""
    n = 20_000
    rng = np.random.default_rng(0)
    pairs = list(zip(rng.integers(0, n, 2 * n).tolist(), rng.integers(0, n, 2 * n).tolist()))
    g = make_graph({"n": n}, [("r", "n", "n", symmetric_edges(pairs))], "n",
                   labels=rng.integers(0, 2, n).tolist(), num_classes=2)
    path = MetaPath((0,))
    model = SimilarityModel(g, [path], LearnerConfig(num_hops=num_hops))
    # gradients reads the targets only through these blocks and factors
    stub = StaticTargets(rng.normal(size=(n, 3)), rng.normal(size=(n, 3)), np.ones(n))
    batch = PairBatch(np.sort(rng.choice(n, 100, replace=False)), np.sort(rng.choice(n, 80, replace=False)))
    tracemalloc.start()
    try:
        gradients(model, path, batch, stub)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


class TestTrain:
    @pytest.mark.parametrize("num_hops", [1, 2])
    def test_overflowing_learning_rate_raises(self, num_hops):
        g, paths, _, _ = planted_instance(n=25, num_hops=num_hops)
        cfg = LearnerConfig(hidden_dim=4, num_hops=num_hops, epochs_attr=4, epochs_label=1,
                            learning_rate=1e300, seed=0)
        with pytest.raises(NumericError, match="non-finite loss"):
            train(g, paths, PLANTED_TARGETS, cfg)

    def test_single_path_uniform_lambda(self):
        g, paths, _, _ = planted_instance(n=25)
        cfg = LearnerConfig(hidden_dim=4, num_hops=1, epochs_attr=4, epochs_label=2, seed=0)
        _, hist = train(g, paths[:1], PLANTED_TARGETS, cfg)
        assert all(row.lambdas == (1.0,) for row in hist)
        assert [row.phase for row in hist] == ["attr"] * 4 + ["label"] * 2

    def test_deterministic_given_seed(self):
        g, paths, _, _ = planted_instance(n=25)
        cfg = LearnerConfig(hidden_dim=4, num_hops=1, epochs_attr=5, epochs_label=2, seed=9)
        m1, h1 = train(g, paths, PLANTED_TARGETS, cfg)
        m2, h2 = train(g, paths, PLANTED_TARGETS, cfg)
        assert h1 == h2
        assert m1.layout == m2.layout and np.array_equal(m1.params, m2.params)

    def test_attr_loss_decreases_on_planted_instance(self):
        g = synth_generate(SynthConfig(target_nodes=200, num_classes=2, seed=2))
        paths = enumerate_metapaths(g.schema, g.target_type, 1)
        cfg = LearnerConfig(epochs_attr=40, epochs_label=1, seed=2)
        _, hist = train(g, paths, TargetsConfig(alpha=0.6), cfg)
        # batches are full windows at this size, so history rows are exact
        # full-batch attribute losses
        assert hist[39].losses[0] < hist[0].losses[0]

    def test_small_batches_vary_by_epoch(self):
        g, paths, _, _ = planted_instance(n=30)
        cfg = LearnerConfig(hidden_dim=4, num_hops=1, epochs_attr=4, epochs_label=1,
                            batch_rows=6, batch_cols=5, seed=1)
        _, hist = train(g, paths, PLANTED_TARGETS, cfg)
        assert len({row.losses for row in hist}) > 1


class TestCheckpoint:
    @pytest.mark.parametrize("num_hops,concat", [(1, False), (1, True), (2, False), (2, True)])
    def test_round_trip(self, num_hops, concat, tmp_path):
        g, paths, _, _ = planted_instance(n=20)
        cfg = LearnerConfig(hidden_dim=4, num_hops=num_hops, epochs_attr=3, epochs_label=1, seed=4,
                            concat_distribution_features=concat)
        model, _ = train(g, paths, PLANTED_TARGETS, cfg)
        fn = str(tmp_path / "model.msl")
        save_model(model, fn, extra_meta={"targets": {"num_hops": num_hops, "alpha": 0.3}})
        ckpt = read_checkpoint(fn)
        loaded, header = ckpt.model(g), ckpt.header
        assert header["meta"]["targets"]["alpha"] == 0.3
        assert model.layout == loaded.layout and np.array_equal(model.params, loaded.params)
        assert model_similarity(loaded, paths[0], 1, 2) == pytest.approx(
            model_similarity(model, paths[0], 1, 2)
        )
        # the rebuilt model, distribution columns included, scores as trained
        for p in paths:
            for rep, ref in zip(_path_reps(loaded, p), _path_reps(model, p), strict=True):
                np.testing.assert_array_equal(rep.units, ref.units)

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
            read_checkpoint(fn).model(other)

    def test_failed_save_keeps_existing_files(self, tmp_path, monkeypatch):
        g, paths, targets, model = planted_instance(n=20)
        fn = tmp_path / "model.msl"
        save_model(model, str(fn))
        before = fn.read_bytes()
        # the disk fills up after the magic, the header length and the header
        # have gone out, as the parameters are written
        real_atomic_write = learner.atomic_write

        class DiskFullAfterHeader:
            def __init__(self, fh):
                self.fh, self.writes_left = fh, 3

            def write(self, data):
                if not self.writes_left:
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.writes_left -= 1
                return self.fh.write(data)

        @contextlib.contextmanager
        def atomic_write(filename, mode, **kwargs):
            with real_atomic_write(filename, mode, **kwargs) as fh:
                yield DiskFullAfterHeader(fh)

        monkeypatch.setattr(learner, "atomic_write", atomic_write)
        with pytest.raises(OSError, match="No space left"):
            save_model(model, str(fn))
        monkeypatch.undo()
        assert fn.read_bytes() == before
        history = [HistoryRow(1, "attr", (0.5,), (1.0,))]
        save_history_csv(history, ["p"], str(tmp_path / "h.csv"))
        assert (tmp_path / "h.csv").read_text() == "epoch,phase,loss:p,lambda:p\n1,attr,0.5,1.0\n"
        assert sorted(os.listdir(tmp_path)) == ["h.csv", "model.msl"]

    def test_bad_magic_rejected(self, tmp_path):
        fn = tmp_path / "junk.msl"
        fn.write_bytes(b"NOPE" + b"\x00" * 16)
        g, *_ = planted_instance(n=20)
        with pytest.raises(DataError):
            read_checkpoint(str(fn))

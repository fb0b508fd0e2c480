"""Acceptance suite: one test per release criterion, each printing a PASS
line with its measured numbers. Budgets and tolerances are asserted inline."""

import json
import os
import resource
import time
from pathlib import Path

import numpy as np

from hgrw.cli import main
from hgrw.dataio import load_graph
from hgrw.diagnostics import complexity_measure, mean_aggregation
from hgrw.learner import LearnerConfig, PairBatch, SimilarityModel, gradients, param_views
from hgrw.metapath import MetaPath, compose_metapath, enumerate_metapaths, max_homophily, measure_paths, path_homophily
from hgrw.multiobjective import min_norm_point
from hgrw.synth import SynthConfig, synth_generate
from hgrw.targets import TargetsConfig, similarity_targets

from conftest import random_hetero_graph, same_structure
from oracles import (
    ari,
    csr_pairs,
    dfs_compose_pairs,
    edge_scan_hr,
    dense_target_matrices,
    fd_gradients,
    grid_min_norm_value,
    two_objective_closed_form,
)


def test_c01_composition_matches_dfs_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    graphs = paths_checked = 0
    while graphs < 50:
        g = random_hetero_graph(rng, max_nodes=50)
        graphs += 1
        for path in enumerate_metapaths(g.schema, g.target_type, 4):
            sub = compose_metapath(g, path)
            assert csr_pairs(sub.adjacency) == dfs_compose_pairs(g, path, symmetrize=True)
            paths_checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"PASS criterion 1 (composition oracle): {graphs} graphs, "
          f"{paths_checked} paths exact in {elapsed:.1f}s")


def test_c02_homophily_matches_edge_scan_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    checked = 0
    for _ in range(100):
        g = random_hetero_graph(rng, max_nodes=30)
        values = {}
        paths = enumerate_metapaths(g.schema, g.target_type, 2)
        for path in paths:
            sub = compose_metapath(g, path)
            expected = edge_scan_hr(sub.adjacency, g.labels)
            if expected is None:
                continue
            assert path_homophily(sub, g.labels).ratio == expected
            values[path.relation_ids] = expected
            checked += 1
        if values:
            mh, best = max_homophily((h, path) for path, _, h in measure_paths(g, paths))
            assert mh == max(values.values())
            assert values[best.relation_ids] == mh
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"PASS criterion 2 (homophily oracle): {checked} subgraphs exact in {elapsed:.1f}s")


def test_c03_lazy_targets_match_dense_materialization():
    t0 = time.monotonic()
    worst = 0.0
    for num_hops in (1, 2):
        g = synth_generate(
            SynthConfig(target_nodes=100, num_classes=3, feature_dim=6,
                        self_homophily=(0.4,), mean_degree=6.0, train_ratio=0.4, seed=33)
        )
        sub = compose_metapath(g, MetaPath((0,)))
        tg = similarity_targets(sub, g, TargetsConfig(alpha=0.3), num_hops)
        y = np.zeros((100, 3))
        train = g.train_mask & (g.labels >= 0)
        y[np.flatnonzero(train), g.labels[train]] = 1.0
        sx, sy = dense_target_matrices(
            sub.adjacency.toarray().astype(np.float64), g.features[0].astype(np.float64), y, num_hops
        )
        idx = np.arange(100)
        worst = max(
            worst,
            float(np.abs(tg.attr_block(idx, idx) - sx).max()),
            float(np.abs(tg.label_block(idx, idx) - sy).max()),
        )
        for i, j in [(0, 0), (3, 97), (42, 17)]:
            assert abs(tg.attr_block(np.array([i]), np.array([j]))[0, 0] - sx[i, j]) < 1e-12
            assert abs(tg.label_block(np.array([i]), np.array([j]))[0, 0] - sy[i, j]) < 1e-12
    elapsed = time.monotonic() - t0
    assert worst < 1e-12
    assert elapsed < 10.0
    print(f"PASS criterion 3 (target fidelity): max |lazy - dense| = {worst:.2e} in {elapsed:.1f}s")


def test_c04_gradients_match_finite_differences():
    t0 = time.monotonic()
    worst = 0.0
    checked = 0
    for seed in range(5):
        g = synth_generate(
            SynthConfig(target_nodes=12, num_classes=2, feature_dim=3,
                        self_homophily=(0.5,), aux_sizes=(6,), aux_homophily=(0.7,),
                        mean_degree=3.0, train_ratio=0.6, seed=seed)
        )
        path = enumerate_metapaths(g.schema, g.target_type, 1)[0]
        rng = np.random.default_rng(seed + 100)
        batch = PairBatch(
            np.sort(rng.choice(12, size=8, replace=False)),
            np.sort(rng.choice(12, size=7, replace=False)),
        )
        for num_hops in (1, 2):
            for concat in (False, True):
                tg = similarity_targets(compose_metapath(g, path), g, TargetsConfig(alpha=0.3), num_hops)
                cfg = LearnerConfig(hidden_dim=4, num_hops=num_hops, seed=seed,
                                    concat_distribution_features=concat)
                model = SimilarityModel(g, [path], cfg)
                res = gradients(model, path, batch, tg)
                ref = fd_gradients(model, path, batch, tg, h=1e-4)
                numeric = param_views(ref, model.layout)
                for key, analytic in param_views(res.grad, model.layout).items():
                    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric[key])), 1e-6)
                    rel = float((np.abs(analytic - numeric[key]) / denom).max())
                    worst = max(worst, rel)
                    checked += analytic.size
                assert worst < 1e-4
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 4 (gradient check): {checked} parameters, "
          f"worst rel err {worst:.2e} in {elapsed:.1f}s")


def test_c05_min_norm_solver_matches_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(55)
    worst_lambda = worst_obj = 0.0
    for trial in range(50):
        m = 2 + trial % 3
        grads = [rng.uniform(-1.0, 1.0, size=5) for _ in range(m)]
        lam = min_norm_point(grads)
        if m == 2:
            ref = two_objective_closed_form(grads[0], grads[1])
            worst_lambda = max(worst_lambda, float(np.abs(lam - ref).max()))
            assert worst_lambda < 1e-8
        combo = sum(l * g for l, g in zip(lam, grads))
        ours = float(combo @ combo)
        grid = grid_min_norm_value(grads, step=1e-3)
        assert ours <= grid + 1e-9
        worst_obj = max(worst_obj, abs(ours - grid))
        assert worst_obj < 1e-3
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"PASS criterion 5 (min-norm weights): closed-form err {worst_lambda:.2e}, "
          f"grid objective gap {worst_obj:.2e} in {elapsed:.1f}s")


def test_c06_rewiring_raises_homophily(tmp_path):
    t0 = time.monotonic()
    gains = []
    for seed in range(10):
        ds = str(tmp_path / f"ds{seed}")
        model = str(tmp_path / f"model{seed}.msl")
        out = str(tmp_path / f"out{seed}")
        assert main(["synth", "--out", ds, "--target-nodes", "500", "--classes", "2",
                     "--p-self", "0.3", "--p-self", "0.3", "--mu", "2.0", "--sigma", "1.0",
                     "--seed", str(seed)]) == 0
        assert main(["train", ds, "--out", model, "--seed", str(seed)]) == 0
        assert main(["rewire", ds, "--model", model, "--out", out]) == 0
        report = json.loads(Path(out, "homophily_report.json").read_text())
        best = max(row["hr_after"] - row["hr_before"] for row in report["paths"])
        gains.append(best)
        assert best >= 0.2, f"seed {seed}: best per-path gain {best:.3f} < 0.2"
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"PASS criterion 6 (rewiring gain): per-seed best gains "
          f"{[round(x, 3) for x in gains]} in {elapsed:.0f}s")


def test_c07_average_relative_improvement_reproduction():
    t0 = time.monotonic()
    # eight published micro/macro accuracy pairs for one benchmark graph,
    # original model vs the same model after rewiring
    micro_before = np.array([72.73, 73.83, 77.58, 73.05, 63.88, 66.28, 64.60, 76.72])
    micro_after = np.array([74.70, 75.53, 78.30, 74.35, 65.69, 69.99, 67.43, 77.84])
    macro_before = np.array([69.60, 70.91, 75.97, 72.85, 51.50, 58.86, 55.65, 74.62])
    macro_after = np.array([72.04, 73.23, 76.44, 73.73, 55.50, 64.93, 62.49, 76.03])
    micro = ari(micro_before, micro_after)
    macro = ari(macro_before, macro_after)
    assert abs(micro - 2.75) <= 0.05
    assert abs(macro - 5.11) <= 0.05
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 7 (relative improvement): micro {micro:.3f}% ~ 2.75%, "
          f"macro {macro:.3f}% ~ 5.11%")


def test_c08_complexity_decreases_with_homophily():
    t0 = time.monotonic()
    levels = [0.6, 0.7, 0.8, 0.9, 1.0]
    means = []
    for p in levels:
        vals = []
        for seed in range(20):
            g = synth_generate(
                SynthConfig(target_nodes=300, num_classes=2, self_homophily=(p,),
                            mean_degree=8.0, seed=seed)
            )
            reps = mean_aggregation(compose_metapath(g, MetaPath((0,))), g)
            vals.append(complexity_measure(reps, g.labels))
        means.append(float(np.mean(vals)))
    violations = 0
    for prev, cur in zip(means, means[1:]):
        if cur > prev:
            violations += 1
            assert (cur - prev) / prev <= 0.05, f"adjacent increase {prev:.4f} -> {cur:.4f}"
    assert violations <= 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"PASS criterion 8 (complexity trend): means {[round(v, 4) for v in means]}, "
          f"{violations} small violations in {elapsed:.0f}s")


def test_c09_determinism_and_identity(tmp_path):
    t0 = time.monotonic()
    ds = str(tmp_path / "ds")
    assert main(["synth", "--out", ds, "--target-nodes", "150",
                 "--aux-size", "40", "--p-aux", "0.6", "--seed", "9"]) == 0

    # fixed-seed training twice: bit-identical history and checkpoint
    args = ["--max-path-len", "1", "--epochs-attr", "12", "--epochs-label", "4", "--seed", "9"]
    m1, m2 = str(tmp_path / "m1.msl"), str(tmp_path / "m2.msl")
    assert main(["train", ds, "--out", m1] + args) == 0
    assert main(["train", ds, "--out", m2] + args) == 0
    assert Path(m1 + ".loss.csv").read_bytes() == Path(m2 + ".loss.csv").read_bytes()
    assert Path(m1).read_bytes() == Path(m2).read_bytes()

    # zero-budget, no-prune rewiring is a structural no-op
    noop = str(tmp_path / "noop")
    assert main(["rewire", ds, "--model", m1, "--out", noop,
                 "--edge-budget", "0", "--gamma", "-1.0"]) == 0
    a, b = load_graph(ds), load_graph(noop)
    assert a.schema == b.schema
    assert all(same_structure(x, y) for x, y in zip(a.adjacency, b.adjacency))
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a.features, b.features))
    assert np.array_equal(a.labels, b.labels) and np.array_equal(a.splits, b.splits)

    # dataset round-trip is lossless on disk
    from hgrw.dataio import save_graph
    copy = str(tmp_path / "copy")
    save_graph(a, copy)
    for name in sorted(os.listdir(ds)):
        with open(os.path.join(ds, name), "rb") as f1, open(os.path.join(copy, name), "rb") as f2:
            assert f1.read() == f2.read(), name
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 9 (determinism and identity) in {elapsed:.0f}s")


def test_c10_scale_smoke(tmp_path):
    t0 = time.monotonic()
    ds = str(tmp_path / "ds")
    model = str(tmp_path / "model.msl")
    out = str(tmp_path / "out")
    report = str(tmp_path / "report.json")
    # two relations at mean degree 5 over 10k nodes store 100k directed edges
    assert main(["synth", "--out", ds, "--target-nodes", "10000",
                 "--mean-degree", "5", "--seed", "10"]) == 0
    g = load_graph(ds)
    assert g.target_count == 10_000
    assert sum(a.nnz for a in g.adjacency) == 100_000
    assert main(["train", ds, "--out", model, "--max-path-len", "1",
                 "--epochs-attr", "20", "--epochs-label", "5", "--seed", "10"]) == 0
    assert main(["rewire", ds, "--model", model, "--out", out]) == 0
    assert main(["diag", out, "--report", report, "--max-path-len", "1"]) == 0
    doc = json.loads(Path(report).read_text())
    assert doc["paths"]
    elapsed = time.monotonic() - t0
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2
    assert elapsed < 1800.0
    assert peak_gb < 8.0
    print(f"PASS criterion 10 (scale smoke): {elapsed:.0f}s wall, {peak_gb:.2f} GB peak")

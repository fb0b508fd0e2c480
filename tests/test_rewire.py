import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hgrw.errors import DataError
from hgrw.learner import LearnerConfig, SimilarityModel
from hgrw.metapath import MetaPath, compose_metapath, homophily_ratio
from hgrw.rewire import (
    RewireConfig,
    merge_into_graph,
    plan_tsv_lines,
    rewire_metapath,
    save_plan_tsv,
    score_candidates,
)
from hgrw.synth import SynthConfig, synth_generate
from hgrw.targets import TargetsConfig, similarity_targets

from conftest import make_graph, same_structure
from oracles import csr_pairs, model_similarity, rewire_with_sets, scan_candidates_per_row


def small_model(n=6, seed=0):
    g = synth_generate(
        SynthConfig(target_nodes=n, num_classes=2, feature_dim=3,
                    self_homophily=(0.5,), mean_degree=2.0, seed=seed)
    )
    path = MetaPath((0,))
    model = SimilarityModel(g, [path], LearnerConfig(hidden_dim=3, num_hops=1, seed=seed))
    return g, path, model


def dense_similarity(model, path, n):
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = model_similarity(model, path, i, j)
    return out


class TestScoreCandidates:
    def test_epsilon_above_cosine_bound_gives_nothing(self):
        _, path, model = small_model()
        cands = score_candidates(model, path, RewireConfig(edge_budget=4, epsilon=1.1))
        assert all(idx.size == 0 for idx in cands.indices)

    def test_zero_budget_gives_nothing(self):
        _, path, model = small_model()
        cands = score_candidates(model, path, RewireConfig(edge_budget=0, epsilon=-2.0))
        assert all(idx.size == 0 for idx in cands.indices)

    def test_matches_dense_argsort_oracle(self):
        g, path, model = small_model(n=6, seed=3)
        cfg = RewireConfig(edge_budget=2, epsilon=-0.5, block_size=2)
        cands = score_candidates(model, path, cfg)
        sims = dense_similarity(model, path, 6)
        for i in range(6):
            row = sims[i].copy()
            row[i] = -np.inf
            eligible = [j for j in range(6) if row[j] > cfg.epsilon]
            eligible.sort(key=lambda j: (-row[j], j))
            assert cands.indices[i].tolist() == eligible[:2]

    def test_budget_respected_and_blocks_consistent(self):
        g, path, model = small_model(n=23, seed=5)
        cfg_small = RewireConfig(edge_budget=3, epsilon=0.0, block_size=4)
        cfg_big = RewireConfig(edge_budget=3, epsilon=0.0, block_size=64)
        a = score_candidates(model, path, cfg_small)
        b = score_candidates(model, path, cfg_big)
        for i in range(23):
            assert a.indices[i].size <= 3
            assert np.array_equal(a.indices[i], b.indices[i])
            assert np.array_equal(a.scores[i], b.scores[i])

    def test_two_hop_restriction(self):
        g, path, model = small_model(n=12, seed=7)
        sub = compose_metapath(g, path)
        cfg = RewireConfig(edge_budget=12, epsilon=-2.0, restrict_two_hop=True)
        cands = score_candidates(model, path, cfg, sub=sub)
        # allowed partners: one- or two-hop neighbors in the subgraph
        dense = sub.adjacency.to_dense()
        reach = ((dense + dense @ dense) > 0)
        for i in range(12):
            for j in cands.indices[i]:
                assert reach[i, j]


class TestRewireMetapath:
    def test_noop_configuration_is_identity(self):
        g, path, model = small_model(n=10, seed=2)
        sub = compose_metapath(g, path)
        cfg = RewireConfig(edge_budget=0, epsilon=0.6, gamma=-1.0)
        rewired, plan = rewire_metapath(sub, score_candidates(model, path, cfg), model, cfg)
        assert plan.empty
        assert same_structure(rewired.adjacency, sub.adjacency)

    def test_gamma_above_bound_removes_everything(self):
        g, path, model = small_model(n=10, seed=2)
        sub = compose_metapath(g, path)
        cfg = RewireConfig(edge_budget=0, epsilon=0.6, gamma=1.01)
        rewired, plan = rewire_metapath(sub, score_candidates(model, path, cfg), model, cfg)
        assert rewired.adjacency.nnz == 0
        assert len(plan.removals) == sub.adjacency.nnz // 2

    def test_additions_are_new_symmetric_and_off_diagonal(self):
        g, path, model = small_model(n=15, seed=4)
        sub = compose_metapath(g, path)
        cfg = RewireConfig(edge_budget=3, epsilon=-2.0)
        rewired, plan = rewire_metapath(sub, score_candidates(model, path, cfg), model, cfg)
        before = csr_pairs(sub.adjacency)
        for i, j, score in plan.additions:
            assert i != j
            assert (i, j) not in before
            assert score > cfg.epsilon
        after = csr_pairs(rewired.adjacency)
        assert {(j, i) for i, j in after} == after
        assert all(i != j for i, j in after)

    def test_budget_bound_in_plan(self):
        g, path, model = small_model(n=15, seed=4)
        cfg = RewireConfig(edge_budget=2, epsilon=-2.0)
        sub = compose_metapath(g, path)
        _, plan = rewire_metapath(sub, score_candidates(model, path, cfg), model, cfg)
        sources = [i for i, _, _ in plan.additions]
        assert max(np.bincount(sources)) <= 2

    def test_planted_blocks_gain_homophily(self):
        # heterophilous planted instance: additions should concentrate inside
        # classes once the raw targets already separate them
        g = synth_generate(SynthConfig(target_nodes=60, num_classes=2, feature_dim=4,
                                       self_homophily=(0.2,), mean_degree=6.0,
                                       noise_scale=0.3, seed=11))
        path = MetaPath((0,))
        from hgrw.learner import train
        tcfg = TargetsConfig(num_hops=1, alpha=0.9)
        targets = [similarity_targets(compose_metapath(g, path), g, tcfg)[1]]
        cfg = LearnerConfig(hidden_dim=8, num_hops=1, epochs_attr=60, epochs_label=5, seed=11)
        model, _ = train(g, [path], targets, cfg)
        sub = compose_metapath(g, path)
        rcfg = RewireConfig(edge_budget=4, epsilon=0.5, gamma=0.0)
        rewired, plan = rewire_metapath(sub, score_candidates(model, path, rcfg), model, rcfg)
        hr_before = homophily_ratio(sub, g.labels)
        hr_after = homophily_ratio(rewired, g.labels)
        assert hr_after > hr_before
        add_same = [g.labels[i] == g.labels[j] for i, j, _ in plan.additions]
        assert np.mean(add_same) > 0.8
        del_cross = [g.labels[i] != g.labels[j] for i, j, _ in plan.removals]
        if plan.removals:
            assert np.mean(del_cross) > 0.5


class TestMerge:
    def test_empty_merge_is_identity(self):
        g, _, _ = small_model()
        merged = merge_into_graph(g, [])
        assert merged.schema == g.schema
        assert merged.adjacency == g.adjacency

    def test_merge_adds_named_relation(self):
        g, path, model = small_model(n=10, seed=2)
        sub = compose_metapath(g, path)
        merged = merge_into_graph(g, [sub])
        new_rel = merged.schema.relations[-1]
        assert new_rel.name == "rw:NN"
        assert new_rel.src_type == new_rel.dst_type == g.target_type
        assert same_structure(merged.adjacency[-1], sub.adjacency)
        # original untouched
        for a, b in zip(g.adjacency, merged.adjacency):
            assert same_structure(a, b)

    def test_name_collision_raises(self):
        g, path, _ = small_model(n=10, seed=2)
        sub = compose_metapath(g, path)
        with pytest.raises(DataError):
            merge_into_graph(g, [sub, sub])

    def test_merged_graph_round_trips(self, tmp_path):
        from hgrw.dataio import load_graph, save_graph
        g, path, _ = small_model(n=10, seed=2)
        merged = merge_into_graph(g, [compose_metapath(g, path)])
        save_graph(merged, str(tmp_path / "ds"))
        loaded = load_graph(str(tmp_path / "ds"))
        assert loaded.schema == merged.schema
        for a, b in zip(loaded.adjacency, merged.adjacency):
            assert same_structure(a, b)


def test_plan_tsv_format():
    g, path, model = small_model(n=8, seed=1)
    cfg = RewireConfig(edge_budget=2, epsilon=-2.0, gamma=0.9)
    sub = compose_metapath(g, path)
    _, plan = rewire_metapath(sub, score_candidates(model, path, cfg), model, cfg)
    lines = plan_tsv_lines([plan], g.schema)
    assert lines[0] == "metapath\top\ti\tj\tscore"
    for line in lines[1:]:
        label, op, i, j, score = line.split("\t")
        assert op in ("add", "del")
        int(i), int(j), float(score)


def test_failed_plan_write_keeps_existing_file(tmp_path):
    g, path, model = small_model(n=8, seed=1)
    cfg = RewireConfig(edge_budget=2, epsilon=-2.0)
    _, plan = rewire_metapath(compose_metapath(g, path), score_candidates(model, path, cfg), model, cfg)
    target = tmp_path / "rewire_plan.tsv"
    save_plan_tsv([plan], g.schema, str(target))
    before = target.read_bytes()
    # the second plan names a relation the schema lacks, so its lines raise
    # once the file is open
    stray = dataclasses.replace(plan, path=MetaPath((7,)))
    with pytest.raises(IndexError):
        save_plan_tsv([plan, stray], g.schema, str(target))
    assert target.read_bytes() == before
    assert os.listdir(tmp_path) == ["rewire_plan.tsv"]


def twin_graph(rng: np.random.Generator, n: int):
    """Targets with one directed self relation and links to an auxiliary
    type. The last quarter of the targets copy the features and edges of
    earlier ones, and sparse edges leave some targets isolated, so that
    scores tie exactly."""
    base = n - n // 4
    n_aux = int(rng.integers(1, 12))
    density = float(rng.uniform(0.01, 0.2))
    edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(rng.random((base, base)) < density)) if i != j]
    links = [(int(i), int(a)) for i, a in zip(*np.nonzero(rng.random((base, n_aux)) < density))]
    feats = rng.standard_normal((n, 3))
    for twin, orig in zip(range(base, n), rng.integers(0, base, size=n - base).tolist()):
        feats[twin] = feats[orig]
        edges += [(twin, j) for i, j in edges if i == orig] + [(i, twin) for i, j in edges if j == orig]
        links += [(twin, a) for i, a in links if i == orig]
    return make_graph(
        {"n": n, "a": n_aux},
        [("self", "n", "n", edges), ("na", "n", "a", links), ("an", "a", "n", [(a, i) for i, a in links])],
        "n",
        labels=rng.integers(0, 2, size=n).tolist(),
        num_classes=2,
        features={"n": feats, "a": rng.standard_normal((n_aux, 3))},
    )


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 150),
    budget_at_least_n=st.booleans(),
    block_size=st.sampled_from([1, 7, None]),
    epsilon=st.sampled_from([-3.0, -2.0, 0.0, 0.6]),
    two_hop=st.booleans(),
    gamma=st.sampled_from([-1.0, 0.0]),
    aux_path=st.booleans(),
    num_hops=st.sampled_from([1, 2]),
    symmetric=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_scan_and_apply_match_per_row_and_set_oracles(
    seed, n, budget_at_least_n, block_size, epsilon, two_hop, gamma, aux_path, num_hops, symmetric
):
    rng = np.random.default_rng(seed)
    g = twin_graph(rng, n)
    path = MetaPath((1, 2)) if aux_path else MetaPath((0,))
    model = SimilarityModel(g, [path], LearnerConfig(hidden_dim=4, num_hops=num_hops, seed=seed))
    sub = compose_metapath(g, path, symmetrize=symmetric)
    budget = n + int(rng.integers(0, 3)) if budget_at_least_n else int(rng.integers(0, n))
    cfg = RewireConfig(edge_budget=budget, epsilon=epsilon, gamma=gamma,
                       block_size=block_size or n, restrict_two_hop=two_hop)

    cands = score_candidates(model, path, cfg, sub=sub)
    want_idx, want_scores = scan_candidates_per_row(
        model, path, budget, epsilon, cfg.block_size, sub=sub if two_hop else None
    )
    assert cands.n == n
    for got, want in zip(cands.indices + cands.scores, want_idx + want_scores):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    rewired, plan = rewire_metapath(sub, cands, model, cfg)
    want_adj, want_add, want_del = rewire_with_sets(sub, want_idx, want_scores, model, gamma)
    assert plan.additions == want_add
    assert plan.removals == want_del
    assert rewired.symmetric
    assert same_structure(rewired.adjacency, want_adj)

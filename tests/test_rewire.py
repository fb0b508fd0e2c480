import contextlib
import dataclasses
import io
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hgrw
from hgrw.cli import main
from hgrw.errors import DataError
from hgrw.learner import LearnerConfig, SimilarityModel, _path_reps
from hgrw.metapath import MetaPath, MetaPathSubgraph, compose_metapath, path_homophily
from hgrw import rewire
from hgrw.rewire import (
    TILE,
    CandidateSet,
    Pairs,
    RewireConfig,
    RewirePlan,
    _in_sorted,
    _pair_scores,
    _sorted_unique,
    merge_into_graph,
    rewire_metapath,
    save_plan_tsv,
    score_candidates,
)
from hgrw.sparse import bool_csr
from hgrw.synth import SynthConfig, synth_generate
from hgrw.targets import TargetsConfig

from conftest import make_graph, same_structure, symmetric_edges
from oracles import (
    csr_pairs,
    dfs_compose_pairs,
    model_similarity,
    pairs_csr,
    plan_tsv_lines_per_pair,
    rewire_with_sets,
    scan_candidates_per_row,
)


def small_model(n=6, seed=0, num_hops=1):
    g = synth_generate(
        SynthConfig(target_nodes=n, num_classes=2, feature_dim=3,
                    self_homophily=(0.5,), mean_degree=2.0, seed=seed)
    )
    path = MetaPath((0,))
    model = SimilarityModel(g, [path], LearnerConfig(hidden_dim=3, num_hops=num_hops, seed=seed))
    return g, path, model


def node_candidates(cands, i):
    """Node i's partners and scores, in rank order."""
    at = cands.sources == i
    return cands.partners[at], cands.scores[at]


def assert_same_pairs(got, want):
    for a, b in ((got.sources, want.sources), (got.partners, want.partners), (got.scores, want.scores)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def pairs_of(triples) -> Pairs:
    """The Pairs of a list of (i, j, score) triples."""
    cols = np.array(triples, dtype=object).reshape(-1, 3).T
    return Pairs(cols[0].astype(np.int64), cols[1].astype(np.int64), cols[2].astype(np.float64))


def set_tile_rows(mp, rows: int, n: int, num_hops: int = 1) -> None:
    """Patch rewire.TILE so that a scan over n targets takes tiles of ``rows``
    rows: at two or more hops, two tiles share the 2 * TILE values."""
    mp.setattr(rewire, "TILE", -(-rows * n * min(num_hops, 2) // 2))


def dense_similarity(model, path, n):
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = model_similarity(model, path, i, j)
    return out


class TestScoreCandidates:
    def test_epsilon_above_cosine_bound_gives_nothing(self):
        g, path, model = small_model()
        cands = score_candidates(model, compose_metapath(g, path), RewireConfig(edge_budget=4, epsilon=1.1))
        assert cands.sources.size == cands.partners.size == cands.scores.size == 0

    def test_zero_budget_gives_nothing(self):
        g, path, model = small_model()
        cands = score_candidates(model, compose_metapath(g, path), RewireConfig(edge_budget=0, epsilon=-2.0))
        assert cands.sources.size == cands.partners.size == cands.scores.size == 0

    def test_matches_dense_argsort_oracle(self, monkeypatch):
        g, path, model = small_model(n=6, seed=3)
        cfg = RewireConfig(edge_budget=2, epsilon=-0.5)
        set_tile_rows(monkeypatch, 2, 6)
        cands = score_candidates(model, compose_metapath(g, path), cfg)
        sims = dense_similarity(model, path, 6)
        for i in range(6):
            row = sims[i].copy()
            row[i] = -np.inf
            eligible = [j for j in range(6) if row[j] > cfg.epsilon]
            eligible.sort(key=lambda j: (-row[j], j))
            assert node_candidates(cands, i)[0].tolist() == eligible[:2]

    def test_budget_respected_and_blocks_consistent(self, monkeypatch):
        g, path, model = small_model(n=23, seed=5)
        sub, cfg = compose_metapath(g, path), RewireConfig(edge_budget=3, epsilon=0.0)
        b = score_candidates(model, sub, cfg)  # one tile
        set_tile_rows(monkeypatch, 4, 23)
        a = score_candidates(model, sub, cfg)
        for i in range(23):
            (a_idx, a_scores), (b_idx, b_scores) = node_candidates(a, i), node_candidates(b, i)
            assert a_idx.size <= 3
            assert np.array_equal(a_idx, b_idx)
            assert np.array_equal(a_scores, b_scores)

    def test_two_hop_restriction(self):
        g, path, model = small_model(n=12, seed=7)
        sub = compose_metapath(g, path)
        cfg = RewireConfig(edge_budget=12, epsilon=-2.0, restrict_two_hop=True)
        cands = score_candidates(model, sub, cfg)
        # allowed partners: one- or two-hop neighbors in the subgraph
        dense = sub.adjacency.toarray().astype(int)
        reach = ((dense + dense @ dense) > 0)
        for i in range(12):
            for j in node_candidates(cands, i)[0]:
                assert reach[i, j]

    TILE_CASES = [(23, 1), (1024, 1), (1500, 1), (2048, 1), (2500, 1), (1024, 2), (1025, 2), (1500, 3)]

    @pytest.mark.parametrize("n,num_hops", TILE_CASES,
                             ids=[f"{n}" if h == 1 else f"{n}-{h}hops" for n, h in TILE_CASES])
    def test_default_tile_rows(self, n, num_hops, monkeypatch):
        # one hop: one tile while n * n <= 2 * TILE (up to 1448 targets), 2 * TILE // n
        # rows beyond; several hops take a second tile, so TILE // n rows (one up to 1024)
        g, path, model = small_model(n=n, seed=6, num_hops=num_hops)
        sub = compose_metapath(g, path)
        tiles, superset = [], rewire._block_superset

        def counted(sim, *args):
            tiles.append(sim.shape)
            return superset(sim, *args)

        monkeypatch.setattr(rewire, "_block_superset", counted)
        rows = min(2 * TILE // (n * min(num_hops, 2)), n)
        for two_hop in (False, True):
            tiles.clear()
            score_candidates(model, sub, RewireConfig(epsilon=0.0, restrict_two_hop=two_hop))
            assert tiles == [(min(rows, n - lo), n) for lo in range(0, n, rows)]

    @pytest.mark.parametrize("walks", [1, 7])
    @pytest.mark.parametrize("rows", [None, 7])
    def test_walk_chunks_do_not_change_the_candidates(self, walks, rows, monkeypatch):
        g = twin_graph(np.random.default_rng(3), 60)
        path = MetaPath((1, 2))
        model = SimilarityModel(g, [path], LearnerConfig(hidden_dim=4, seed=3))
        sub = compose_metapath(g, path)
        if rows:
            set_tile_rows(monkeypatch, rows, 60)
        cfg = RewireConfig(edge_budget=8, epsilon=-2.0, restrict_two_hop=True)
        want = score_candidates(model, sub, cfg)
        assert want.sources.size > 0
        monkeypatch.setattr(rewire, "WALKS", walks)
        assert_same_pairs(score_candidates(model, sub, cfg), want)


class TestSortedKeys:
    @pytest.mark.parametrize("high", [1, 50, 2**31 + 5, 2**62])
    @pytest.mark.parametrize("sizes", [(0, 0), (0, 40), (40, 0), (1, 1), (300, 200)])
    def test_match_the_hashed_set_ops(self, high, sizes):
        rng = np.random.default_rng(high + sizes[0])
        a, b = (rng.integers(0, high, size, dtype=np.int64) + (high > 2**31) * 2**31 for size in sizes)
        assert np.array_equal(_sorted_unique(a), np.unique(a))
        assert _sorted_unique(a).dtype == np.unique(a).dtype
        table = np.unique(b)
        assert np.array_equal(_in_sorted(a, table), np.isin(a, table))
        assert _in_sorted(a, table).dtype == bool
        union = _sorted_unique(np.concatenate([a, b]))
        assert np.array_equal(union, np.union1d(a, b)) and union.dtype == np.union1d(a, b).dtype


def random_instance(n: int, seed: int = 0):
    """An untrained one-path model over n targets joined at random, mean degree 4."""
    rng = np.random.default_rng(seed)
    pairs = list(zip(rng.integers(0, n, 2 * n).tolist(), rng.integers(0, n, 2 * n).tolist()))
    g = make_graph({"n": n}, [("r", "n", "n", symmetric_edges(pairs))], "n",
                   labels=rng.integers(0, 2, n).tolist(), num_classes=2)
    path = MetaPath((0,))
    return g, path, SimilarityModel(g, [path], LearnerConfig(seed=seed))


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def aux_instance(n: int, seed: int = 0):
    """An untrained model of the path NAN over n targets, each joined to four
    of n // 2 auxiliary nodes at random: NAN has degree about 32, and its
    two-hop reach about a tenth of the targets."""
    rng = np.random.default_rng(seed)
    links = list(zip(np.repeat(np.arange(n), 4).tolist(), rng.integers(0, n // 2, 4 * n).tolist()))
    g = make_graph({"n": n, "a": n // 2},
                   [("na", "n", "a", links), ("an", "a", "n", [(a, i) for i, a in links])], "n",
                   labels=rng.integers(0, 2, n).tolist(), num_classes=2)
    path = MetaPath((0, 1))
    return g, path, SimilarityModel(g, [path], LearnerConfig(seed=seed))


@pytest.mark.parametrize("instance,two_hop", [
    pytest.param(random_instance, False, id="False"),
    pytest.param(random_instance, True, id="True"),
    pytest.param(aux_instance, True, id="dense-reach"),
])
def test_default_scan_memory_is_set_by_the_tile(instance, two_hop):
    """The default scan over 8,000 targets holds one float32 tile of
    2 * TILE scores (8 MiB) and its two-hop mask of 2 MiB; a 512-row tile
    would take 16 MB. On the aux path a tile reaches about 200,000 partners:
    a mask that kept them with their scores and indices peaked at 18 MiB."""
    g, path, model = instance(8_000)
    sub = compose_metapath(g, path)
    peak = traced_peak(score_candidates, model, sub, RewireConfig(restrict_two_hop=two_hop))
    assert peak < 2 * TILE * 8


def test_pruning_memory_is_set_by_the_tile():
    """Scoring over 200,000 existing pairs gathers their unit rows a chunk at
    a time, both operands within TILE values: two pairs x d copies would take
    111 MB. Beyond the chunk, each existing pair may take 64 bytes: its key,
    its score, its endpoints and its share of the adjacency's entries."""
    n = 4_000
    g, path, model = random_instance(n)
    i, j = np.random.default_rng(1).integers(0, n, (2, 220_000))
    sub = MetaPathSubgraph(path, bool_csr(np.concatenate([i, j]), np.concatenate([j, i]), (n, n)))
    pairs = (sub.adjacency.nnz - sub.adjacency.diagonal().sum()) // 2
    assert pairs >= 200_000
    units = [rep.units for rep in _path_reps(model, path)]
    nothing = CandidateSet(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0), units)
    peak = traced_peak(rewire_metapath, sub, nothing, RewireConfig(gamma=0.0))
    assert peak < 2 * TILE * 8 + 64 * pairs


class TestRewireMetapath:
    def test_noop_configuration_is_identity(self):
        g, path, model = small_model(n=10, seed=2)
        sub = compose_metapath(g, path)
        cfg = RewireConfig(edge_budget=0, epsilon=0.6, gamma=-1.0)
        rewired, plan = rewire_metapath(sub, score_candidates(model, sub, cfg), cfg)
        assert plan.empty
        assert same_structure(rewired.adjacency, sub.adjacency)

    def test_gamma_above_bound_removes_everything(self):
        g, path, model = small_model(n=10, seed=2)
        sub = compose_metapath(g, path)
        cfg = RewireConfig(edge_budget=0, epsilon=0.6, gamma=1.01)
        rewired, plan = rewire_metapath(sub, score_candidates(model, sub, cfg), cfg)
        assert rewired.adjacency.nnz == 0
        assert len(plan.removals) == sub.adjacency.nnz // 2

    def test_additions_are_new_symmetric_and_off_diagonal(self):
        g, path, model = small_model(n=15, seed=4)
        sub = compose_metapath(g, path)
        cfg = RewireConfig(edge_budget=3, epsilon=-2.0)
        rewired, plan = rewire_metapath(sub, score_candidates(model, sub, cfg), cfg)
        before = csr_pairs(sub.adjacency)
        add = plan.additions
        for i, j, score in zip(add.sources.tolist(), add.partners.tolist(), add.scores.tolist()):
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
        _, plan = rewire_metapath(sub, score_candidates(model, sub, cfg), cfg)
        assert max(np.bincount(plan.additions.sources)) <= 2

    def test_planted_blocks_gain_homophily(self):
        # heterophilous planted instance: additions should concentrate inside
        # classes once the raw targets already separate them
        g = synth_generate(SynthConfig(target_nodes=60, num_classes=2, feature_dim=4,
                                       self_homophily=(0.2,), mean_degree=6.0,
                                       noise_scale=0.3, seed=11))
        path = MetaPath((0,))
        from hgrw.learner import train
        cfg = LearnerConfig(hidden_dim=8, num_hops=1, epochs_attr=60, epochs_label=5, seed=11)
        model, _ = train(g, [path], TargetsConfig(alpha=0.9), cfg)
        sub = compose_metapath(g, path)
        rcfg = RewireConfig(edge_budget=4, epsilon=0.5, gamma=0.0)
        rewired, plan = rewire_metapath(sub, score_candidates(model, sub, rcfg), rcfg)
        hr_before = path_homophily(sub, g.labels).ratio
        hr_after = path_homophily(rewired, g.labels).ratio
        assert hr_after > hr_before
        add, rem = plan.additions, plan.removals
        assert np.mean(g.labels[add.sources] == g.labels[add.partners]) > 0.8
        if rem:
            assert np.mean(g.labels[rem.sources] != g.labels[rem.partners]) > 0.5

    def test_pair_keys_past_int32_range(self):
        # i * n + j passes 2**31 here, while the adjacency stores int32 indices
        n = 50_000
        edges = [(0, 49_998), (46_340, 49_999)]
        g = make_graph({"n": n}, [("r", "n", "n", edges)], "n", labels=[0] * n, feature_dim=1)
        path = MetaPath((0,))
        model = SimilarityModel(g, [path], LearnerConfig(hidden_dim=2, seed=0))
        sub = compose_metapath(g, path)
        assert sub.adjacency.indices.dtype == np.int32
        cands = CandidateSet(
            sources=np.array([0, 46_341, 49_999, 49_999], dtype=np.int64),
            partners=np.array([49_998, 49_999, 46_340, 46_341], dtype=np.int64),
            scores=np.full(4, 0.8),
            units=[rep.units for rep in _path_reps(model, path)],
        )
        new = {(46_341, 49_999), (49_999, 46_341)}
        old = {(i, j) for e in edges for i, j in (e, e[::-1])}

        rewired, plan = rewire_metapath(sub, cands, RewireConfig())
        assert_same_pairs(plan.additions, pairs_of([(46_341, 49_999, 0.8), (49_999, 46_341, 0.8)]))
        assert_same_pairs(plan.removals, pairs_of([]))
        assert csr_pairs(rewired.adjacency) == old | new

        rewired, plan = rewire_metapath(sub, cands, RewireConfig(gamma=1.01))
        removed = plan.removals
        assert removed.sources.dtype == removed.partners.dtype == np.int64
        assert list(zip(removed.sources.tolist(), removed.partners.tolist())) == edges
        assert csr_pairs(rewired.adjacency) == new


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


def test_plan_tsv_format(tmp_path):
    g, path, model = small_model(n=8, seed=1)
    cfg = RewireConfig(edge_budget=2, epsilon=-2.0, gamma=0.9)
    sub = compose_metapath(g, path)
    _, plan = rewire_metapath(sub, score_candidates(model, sub, cfg), cfg)
    save_plan_tsv([plan], g.schema, str(tmp_path / "rewire_plan.tsv"))
    text = (tmp_path / "rewire_plan.tsv").read_text(encoding="utf-8")
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "metapath\top\ti\tj\tscore"
    for line in lines[1:]:
        label, op, i, j, score = line.split("\t")
        assert op in ("add", "del")
        int(i), int(j), float(score)


def odd_plans():
    """Plans on a graph whose names hold % signs, with scores whose repr is
    unusual: the second plan has 12 additions and 7 removals, the third only
    removals, and the first nothing."""
    relations = [("r", "n%d", "n%d", [(0, 1)]), ("r%s", "n%d", "n%d", [(1, 2)]),
                 ("x", "n%d", "a", [(0, 0)]), ("y", "a", "n%d", [(0, 0)])]
    g = make_graph({"n%d": 4, "a": 2}, relations, "n%d", labels=[0, 1, 0, 1])
    scores = [-0.0, 0.0, 1e-300, 5e-324, 1.0, -1.0, 3.0, 0.1 + 0.2, 1e16, 1e-5, -2.5e-7, 0.6]
    removals = [(1, 3, -0.0), (0, 2, 2.0), (0, 1, 5e-324), (2, 3, -1.0), (1, 2, 1e16), (0, 3, 0.1 + 0.2),
                (2, 3, -2.5e-7)]
    plans = [
        RewirePlan(MetaPath((0,)), pairs_of([]), pairs_of([])),
        RewirePlan(MetaPath((1,)), pairs_of([(k % 4, (k + 1) % 4, s) for k, s in enumerate(scores)]),
                   pairs_of(removals)),
        RewirePlan(MetaPath((2, 3)), pairs_of([]), pairs_of([(3, 0, 1e-300)])),
    ]
    return g, plans


def test_plan_tsv_matches_the_per_pair_lines(tmp_path):
    g, plans = odd_plans()
    save_plan_tsv(plans, g.schema, str(tmp_path / "rewire_plan.tsv"))
    text = (tmp_path / "rewire_plan.tsv").read_text(encoding="utf-8")
    assert "N(r%s)N" in text
    assert text == "\n".join(plan_tsv_lines_per_pair(plans, g.schema)) + "\n"


@pytest.mark.parametrize("lines", [1, 3, 5, 12])
def test_plan_written_in_chunks_matches_the_per_pair_lines(tmp_path, monkeypatch, lines):
    # chunks of 3 or 5 lines end inside both blocks of the second plan; 12
    # lines end at its additions' last line
    g, plans = odd_plans()
    monkeypatch.setattr(rewire, "_PLAN_LINES", lines)
    save_plan_tsv(plans, g.schema, str(tmp_path / "rewire_plan.tsv"))
    want = "\n".join(plan_tsv_lines_per_pair(plans, g.schema)) + "\n"
    assert (tmp_path / "rewire_plan.tsv").read_bytes() == want.encode("utf-8")


def test_failed_plan_write_keeps_existing_file(tmp_path):
    g, path, model = small_model(n=8, seed=1)
    cfg = RewireConfig(edge_budget=2, epsilon=-2.0)
    sub = compose_metapath(g, path)
    _, plan = rewire_metapath(sub, score_candidates(model, sub, cfg), cfg)
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
    rows=st.sampled_from([1, 7, None]),
    epsilon=st.sampled_from([-3.0, -2.0, 0.0, 0.6]),
    two_hop=st.booleans(),
    gamma=st.sampled_from([-1.0, 0.0]),
    aux_path=st.booleans(),
    num_hops=st.sampled_from([1, 2]),
    symmetric=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_scan_and_apply_match_per_row_and_set_oracles(
    seed, n, budget_at_least_n, rows, epsilon, two_hop, gamma, aux_path, num_hops, symmetric
):
    rng = np.random.default_rng(seed)
    g = twin_graph(rng, n)
    path = MetaPath((1, 2)) if aux_path else MetaPath((0,))
    model = SimilarityModel(g, [path], LearnerConfig(hidden_dim=4, num_hops=num_hops, seed=seed))
    if symmetric:
        sub = compose_metapath(g, path)
    else:  # a directed subgraph: its lone directed entries still count as pairs
        sub = MetaPathSubgraph(path, pairs_csr(dfs_compose_pairs(g, path, symmetrize=False), (n, n)))
    budget = n + int(rng.integers(0, 3)) if budget_at_least_n else int(rng.integers(0, n))
    cfg = RewireConfig(edge_budget=budget, epsilon=epsilon, gamma=gamma, restrict_two_hop=two_hop)

    with pytest.MonkeyPatch.context() as mp:  # 1-row, 7-row or whole tiles
        set_tile_rows(mp, rows or n, n, num_hops)
        cands = score_candidates(model, sub, cfg)
        rewired, plan = rewire_metapath(sub, cands, cfg)
    want_idx, want_scores = scan_candidates_per_row(model, path, budget, epsilon, sub=sub if two_hop else None)
    assert np.all((cands.sources >= 0) & (cands.sources < n))
    want_sources = np.repeat(np.arange(n), [idx.size for idx in want_idx])
    for got, want in zip(
        (cands.sources, cands.partners, cands.scores),
        (want_sources, np.concatenate(want_idx), np.concatenate(want_scores)),
    ):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    want_adj, want_add, want_del = rewire_with_sets(sub, want_idx, want_scores, model, gamma)
    assert_same_pairs(plan.additions, pairs_of(want_add))
    assert_same_pairs(plan.removals, pairs_of(want_del))
    assert same_structure(rewired.adjacency, rewired.adjacency.T.tocsr())
    assert same_structure(rewired.adjacency, want_adj)


def concat_or_plain_model(g, path: MetaPath, num_hops: int, concat: bool, seed: int = 0) -> SimilarityModel:
    cfg = LearnerConfig(hidden_dim=4, num_hops=num_hops, seed=seed, concat_distribution_features=concat)
    return SimilarityModel(g, [path], cfg)


@pytest.mark.parametrize("num_hops,concat", [(1, False), (2, False), (2, True)])
def test_pair_scores_match_the_per_pair_oracle(num_hops, concat):
    g = twin_graph(np.random.default_rng(8), 30)
    path = MetaPath((1, 2))
    model = concat_or_plain_model(g, path, num_hops, concat)
    a, b = (x.ravel() for x in np.meshgrid(np.arange(30), np.arange(30)))
    got = _pair_scores([rep.units for rep in _path_reps(model, path)], a, b)
    want = [model_similarity(model, path, i, j) for i, j in zip(a.tolist(), b.tolist())]
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def near_twin_model(num_hops: int, concat: bool, groups: int = 24, size: int = 6):
    """Targets in groups of ``size`` that share features and neighbors; each
    target also has a private auxiliary neighbor whose one feature is 1 plus
    0 to 7 float32 ulps. The private neighbor is one of about 40 averaged
    into the first hop, so two targets of a group score against a third node
    about 1e-9 apart: equal in float32, ordered in float64."""
    rng = np.random.default_rng(0)
    n = groups * size
    linked = [(a, b) for a in range(groups) for b in range(groups) if a != b and rng.random() < 0.3]
    edges = [(a * size + x, b * size + y) for a, b in linked for x in range(size) for y in range(size)]
    own = [(i, i) for i in range(n)]
    g = make_graph(
        {"n": n, "a": n},
        [("r", "n", "n", edges), ("own", "n", "a", own), ("back", "a", "n", own)],
        "n",
        labels=rng.integers(0, 2, n).tolist(),
        num_classes=2,
        features={"n": np.repeat(rng.standard_normal((groups, 3)), size, axis=0),
                  "a": 1.0 + rng.integers(0, 8, (n, 1)) * 2.0**-23},
    )
    path = MetaPath((0,))
    return g, path, concat_or_plain_model(g, path, num_hops, concat)


@pytest.mark.parametrize("num_hops,concat", [(1, False), (2, False), (1, True)])
@pytest.mark.parametrize("budget", [3, 8, 70])
def test_float32_near_ties_rank_as_in_float64(num_hops, concat, budget):
    g, path, model = near_twin_model(num_hops, concat)
    n = g.target_count
    cands = score_candidates(model, compose_metapath(g, path), RewireConfig(edge_budget=budget, epsilon=-2.0))
    want_idx, want_scores = scan_candidates_per_row(model, path, budget, -2.0)
    assert np.array_equal(cands.sources, np.repeat(np.arange(n), [idx.size for idx in want_idx]))
    assert np.array_equal(cands.partners, np.concatenate(want_idx))
    assert np.array_equal(cands.scores, np.concatenate(want_scores))
    # the fixture bites: float32 scores would pick other partners
    sim32 = np.ones((n, n), dtype=np.float32)
    for rep in _path_reps(model, path):
        u = rep.units.astype(np.float32)
        sim32 *= u @ u.T
    np.fill_diagonal(sim32, -np.inf)
    top32 = np.argsort(-sim32, axis=1, kind="stable")[:, :budget]
    assert any(set(row.tolist()) != set(idx.tolist()) for row, idx in zip(top32, want_idx))


@pytest.mark.parametrize("epsilon", [-np.inf, -1e39])
@pytest.mark.parametrize("two_hop", [False, True])
def test_unbounded_epsilon_keeps_self_and_masked_pairs_out(epsilon, two_hop):
    rng = np.random.default_rng(5)
    g = twin_graph(rng, 140)
    path = MetaPath((1, 2))
    model = SimilarityModel(g, [path], LearnerConfig(hidden_dim=4, num_hops=2, seed=5))
    sub = compose_metapath(g, path)
    cfg = RewireConfig(edge_budget=5, epsilon=epsilon, gamma=0.0, restrict_two_hop=two_hop)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cands = score_candidates(model, sub, cfg)
        rewire_metapath(sub, cands, cfg)
    assert np.all(cands.sources != cands.partners)
    if two_hop:
        adj = sub.adjacency.toarray().astype(np.int64)
        assert np.all(((adj + adj @ adj) > 0)[cands.sources, cands.partners])
    want_idx, want_scores = scan_candidates_per_row(model, path, 5, epsilon, sub=sub if two_hop else None)
    assert np.array_equal(cands.partners, np.concatenate(want_idx))
    assert np.array_equal(cands.scores, np.concatenate(want_scores))


def test_plan_bytes_do_not_depend_on_the_tile_rows(tmp_path, monkeypatch):
    cases = [  # synth flags, train flags, each rewire's flags, target count, hops
        (["--target-nodes", "90", "--aux-size", "20", "--p-aux", "0.2", "--seed", "2"],
         ["--num-hops", "2", "--concat-dist", "--epochs-attr", "3", "--seed", "2"],
         [[], ["--two-hop-only", "--gamma", "0.0"]], 90, 2),
        # a denser aux type, whose two-hop mask takes many walks per tile
        (["--target-nodes", "300", "--aux-size", "30", "--p-aux", "0.2", "--mean-degree", "8"],
         ["--epochs-attr", "2"], [["--two-hop-only", "--gamma", "0.0"]], 300, 1),
    ]
    for k, (synth_flags, train_flags, rewire_flags, n, hops) in enumerate(cases):
        ds, model, out = str(tmp_path / f"ds{k}"), str(tmp_path / f"m{k}.msl"), tmp_path / "rw"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "--out", ds, *synth_flags]) == 0
            assert main(["train", ds, "--out", model, "--max-path-len", "2", "--epochs-label", "1",
                         *train_flags]) == 0
            for flags in rewire_flags:
                plans = set()
                for rows in (None, 1, 7):
                    with monkeypatch.context() as mp:
                        if rows:
                            set_tile_rows(mp, rows, n, hops)
                        assert main(["rewire", ds, "--model", model, "--out", str(out), "--epsilon", "0.0",
                                     *flags]) == 0
                    plans.add((out / "rewire_plan.tsv").read_bytes())
                assert len(plans) == 1


def run_cli_with_blas_threads(threads: str, *argv: str) -> None:
    """One hgrw command in a fresh interpreter that OpenBLAS starts with ``threads`` threads."""
    src = os.path.dirname(os.path.dirname(hgrw.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "hgrw.cli", *argv], env=env, check=True, capture_output=True, timeout=300)


def dir_bytes(root: Path) -> dict[str, bytes]:
    """The bytes of every file under ``root``, by relative path."""
    return {str(f.relative_to(root)): f.read_bytes() for f in root.rglob("*") if f.is_file()}


def test_plan_does_not_depend_on_the_blas_thread_count(tmp_path):
    # every plan score is one pair's float64 einsum and the candidates are
    # exact under it, so OpenBLAS's split of the scan's products over 1 or 2
    # threads changes no byte that rewire writes
    ds, model = str(tmp_path / "ds"), str(tmp_path / "m.msl")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", ds, "--target-nodes", "500", "--seed", "4"]) == 0
        assert main(["train", ds, "--out", model, "--epochs-attr", "20", "--epochs-label", "5",
                     "--seed", "4"]) == 0
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"rw{threads}"
        run_cli_with_blas_threads(threads, "rewire", ds, "--model", model, "--out", str(out))
        outputs.append(dir_bytes(out))
    assert "rewire_plan.tsv" in outputs[0] and outputs[0]["rewire_plan.tsv"].count(b"\tadd\t") > 1000
    assert outputs[0] == outputs[1]


def test_diag_does_not_depend_on_the_blas_thread_count(tmp_path):
    ds, model, rw = str(tmp_path / "ds"), str(tmp_path / "m.msl"), str(tmp_path / "rw")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", ds, "--target-nodes", "200", "--seed", "3"]) == 0
        assert main(["train", ds, "--out", model, "--epochs-attr", "5", "--epochs-label", "2",
                     "--seed", "3"]) == 0
        assert main(["rewire", ds, "--model", model, "--out", rw]) == 0

    reports = []
    for threads in ("1", "2"):
        report = tmp_path / f"diag{threads}.json"
        run_cli_with_blas_threads(threads, "diag", rw, "--report", str(report))
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]

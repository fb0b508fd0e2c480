"""Metamorphic checks: renaming the target nodes permutes every result and
changes no value, whatever order the floating-point sums run in; renaming
the nodes of an aux type changes no result at all; relabelling the classes
changes no value; reordering the relation table changes no inspect row."""

import contextlib
import dataclasses
import io
import json
import os
import shutil

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hgrw.cli import main
from hgrw.dataio import save_graph
from hgrw.learner import LearnerConfig, _path_reps, train
from hgrw.metapath import compose_metapath, enumerate_metapaths, measurable_homophily
from hgrw.rewire import RewireConfig, rewire_metapath, score_candidates
from hgrw.sparse import bool_csr
from hgrw.synth import SynthConfig, synth_generate
from hgrw.targets import TargetsConfig, similarity_targets


def rename_nodes(g, node_type, perm):
    """``g`` with old node perm[i] of ``node_type`` renamed i in every edge and
    feature, and in the labels and splits when it is the target type."""
    new_id = np.empty_like(perm)
    new_id[perm] = np.arange(perm.size)
    adjacency = []
    for r, adj in zip(g.schema.relations, g.adjacency):
        coo = adj.tocoo()
        rows = new_id[coo.row] if r.src_type == node_type else coo.row
        cols = new_id[coo.col] if r.dst_type == node_type else coo.col
        adjacency.append(bool_csr(rows, cols, adj.shape))
    features = list(g.features)
    features[node_type] = features[node_type][perm]
    if node_type != g.target_type:
        return dataclasses.replace(g, adjacency=tuple(adjacency), features=tuple(features))
    return dataclasses.replace(
        g, adjacency=tuple(adjacency), features=tuple(features),
        labels=g.labels[perm], splits=g.splits[perm],
    )


def kth_scores(cands, n, k):
    """Each source's k-th best candidate score; -inf where a source has fewer
    than k candidates, so only epsilon bounds its set."""
    counts = np.bincount(cands.sources, minlength=n)
    lowest = np.full(n, np.inf)
    np.minimum.at(lowest, cands.sources, cands.scores)
    return np.where(counts == k, lowest, -np.inf)


def fit(g, paths, cfg):
    return train(g, paths, TargetsConfig(), cfg)


@given(n=st.integers(30, 300), seed=st.integers(0, 2**16))
@settings(max_examples=10, deadline=None, derandomize=True)
def test_renaming_target_nodes_permutes_every_result(n, seed):
    g = synth_generate(SynthConfig(target_nodes=n, aux_sizes=(20,), aux_homophily=(0.5,), seed=seed))
    perm = np.random.default_rng(seed).permutation(n)
    gp = rename_nodes(g, g.target_type, perm)
    paths = enumerate_metapaths(g.schema, g.target_type, 2)

    for path in paths:
        sub, sub_p = compose_metapath(g, path), compose_metapath(gp, path)
        expected = sub.adjacency[perm][:, perm]
        assert sub_p.adjacency.nnz == expected.nnz and (sub_p.adjacency != expected).nnz == 0
        assert measurable_homophily(sub_p, gp.labels) == measurable_homophily(sub, g.labels)

    # Full windows only: a sampled window (batch size below n) draws index
    # sets from the RNG, so the renamed graph would train on other pairs and
    # neither the parameters, the unit rows nor the rewire plans would match.
    cfg = LearnerConfig(hidden_dim=8, epochs_attr=3, epochs_label=2, batch_rows=n, batch_cols=n, seed=seed)
    model, history = fit(g, paths, cfg)
    model_p, history_p = fit(gp, paths, cfg)
    for row, row_p in zip(history, history_p, strict=True):
        np.testing.assert_allclose(row_p.losses, row.losses, rtol=1e-12, atol=0)
    np.testing.assert_allclose(model_p.params, model.params, rtol=0, atol=1e-12)

    rcfg = RewireConfig(epsilon=0.0)
    for path in paths:
        for rep, rep_p in zip(_path_reps(model, path), _path_reps(model_p, path), strict=True):
            np.testing.assert_allclose(rep_p.units, rep.units[perm], rtol=0, atol=1e-12)
        sub, sub_p = compose_metapath(g, path), compose_metapath(gp, path)
        cands = score_candidates(model, sub, rcfg)
        plan = rewire_metapath(sub, cands, rcfg)[1]
        plan_p = rewire_metapath(sub_p, score_candidates(model_p, sub_p, rcfg), rcfg)[1]
        add, add_p = plan.additions, plan_p.additions
        added = dict(zip(zip(add.sources.tolist(), add.partners.tolist()), add.scores.tolist()))
        renamed = zip(perm[add_p.sources].tolist(), perm[add_p.partners].tolist())
        added_p = dict(zip(renamed, add_p.scores.tolist()))
        # a pair may differ only where a tie at a source's k-th score, or a
        # score at epsilon, lets float order decide
        kth = kth_scores(cands, n, rcfg.edge_budget)
        for i, j in added.keys() ^ added_p.keys():
            score = added.get((i, j), added_p.get((i, j)))
            assert min(abs(score - kth[i]), abs(score - rcfg.epsilon)) <= 1e-12, (i, j, score)


@given(n=st.integers(30, 300), seed=st.integers(0, 2**16))
@settings(max_examples=10, deadline=None, derandomize=True)
def test_renaming_aux_nodes_changes_no_target_subgraph(n, seed):
    g = synth_generate(SynthConfig(target_nodes=n, aux_sizes=(8, 200), aux_homophily=(0.5, 0.2), seed=seed))
    paths = enumerate_metapaths(g.schema, g.target_type, 3)
    rng = np.random.default_rng(seed)
    for aux in (1, 2):
        gp = rename_nodes(g, aux, rng.permutation(g.schema.node_types[aux].node_count))
        for path in paths:
            sub, sub_p = compose_metapath(g, path), compose_metapath(gp, path)
            np.testing.assert_array_equal(sub_p.adjacency.indptr, sub.adjacency.indptr)
            np.testing.assert_array_equal(sub_p.adjacency.indices, sub.adjacency.indices)
            assert measurable_homophily(sub_p, gp.labels) == measurable_homophily(sub, g.labels)


@given(n=st.integers(30, 200), seed=st.integers(0, 2**16))
@settings(max_examples=8, deadline=None, derandomize=True)
def test_relabelling_the_classes_changes_no_value(n, seed):
    g = synth_generate(SynthConfig(target_nodes=n, num_classes=4, aux_sizes=(20,), aux_homophily=(0.5,), seed=seed))
    perm = np.random.default_rng(seed).permutation(g.num_classes)
    assume(np.any(perm != np.arange(g.num_classes)))
    gp = dataclasses.replace(g, labels=np.where(g.labels >= 0, perm[g.labels], g.labels))
    paths = enumerate_metapaths(g.schema, g.target_type, 2)
    subs = [compose_metapath(g, p) for p in paths]

    targets, targets_p = ([similarity_targets(sub, h, TargetsConfig(), 1) for sub in subs] for h in (g, gp))
    for t, t_p in zip(targets, targets_p):
        for block, block_p in zip(t.full_window(), t_p.full_window(), strict=True):
            np.testing.assert_allclose(block_p, block, rtol=0, atol=1e-12)

    # Full windows: every pair's target then enters every loss, so the check
    # covers the whole target matrix. A sampled window (batch size below n)
    # would draw the same pairs in both runs, since the sampler reads only
    # the seed, but would leave most pairs out of the losses.
    cfg = LearnerConfig(hidden_dim=8, epochs_attr=3, epochs_label=2, batch_rows=n, batch_cols=n, seed=seed)
    model, history = train(g, paths, TargetsConfig(), cfg)
    model_p, history_p = train(gp, paths, TargetsConfig(), cfg)
    for row, row_p in zip(history, history_p, strict=True):
        np.testing.assert_allclose(row_p.losses, row.losses, rtol=1e-12, atol=0)
        np.testing.assert_allclose(row_p.lambdas, row.lambdas, rtol=0, atol=1e-12)

    rcfg = RewireConfig(epsilon=0.0, gamma=0.0)
    for sub in subs:
        plan, plan_p = (rewire_metapath(sub, score_candidates(m, sub, rcfg), rcfg)[1] for m in (model, model_p))
        for pairs, pairs_p in ((plan.additions, plan_p.additions), (plan.removals, plan_p.removals)):
            np.testing.assert_array_equal(pairs_p.sources, pairs.sources, strict=True)
            np.testing.assert_array_equal(pairs_p.partners, pairs.partners, strict=True)
            np.testing.assert_allclose(pairs_p.scores, pairs.scores, rtol=0, atol=1e-12)


@pytest.fixture(scope="module")
def two_aux_dataset(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("relations") / "ds")
    save_graph(synth_generate(SynthConfig(target_nodes=200, self_homophily=(0.3, 0.7), aux_sizes=(20, 30),
                                          aux_homophily=(0.5, 0.8), seed=0)), d)
    return d


def inspect_rows(d, max_len):
    """The rows of ``hgrw inspect``'s table, as a set, and its mh value."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["inspect", d, "--max-path-len", str(max_len)]) == 0
    _, *rows, mh_line = out.getvalue().splitlines()
    return set(rows), mh_line.split()[1]


@pytest.mark.parametrize("max_len", [1, 2, 3])
def test_permuting_the_relation_table_changes_no_inspect_row(two_aux_dataset, max_len, tmp_path):
    # Of the mh line only the value is compared: max_homophily names the first
    # path that attains the maximum, so on a tie the relation order can move it.
    expected = inspect_rows(two_aux_dataset, max_len)
    with open(os.path.join(two_aux_dataset, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    relations = manifest["relations"]
    rng = np.random.default_rng(max_len)
    for k in range(4):
        d = str(tmp_path / f"perm{k}")
        shutil.copytree(two_aux_dataset, d)
        manifest["relations"] = [relations[i] for i in rng.permutation(len(relations))]
        with open(os.path.join(d, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        assert inspect_rows(d, max_len) == expected

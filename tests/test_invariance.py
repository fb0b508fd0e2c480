"""Metamorphic checks: renaming the target nodes permutes every result and
changes no value, whatever order the floating-point sums run in."""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from hgrw.learner import LearnerConfig, train
from hgrw.metapath import compose_metapath, enumerate_metapaths, measurable_homophily
from hgrw.sparse import bool_csr
from hgrw.synth import SynthConfig, synth_generate
from hgrw.targets import TargetsConfig, similarity_targets


def rename_targets(g, perm):
    """``g`` with old target node perm[i] renamed i in every edge, feature,
    label and split."""
    new_id = np.empty_like(perm)
    new_id[perm] = np.arange(perm.size)
    adjacency = []
    for r, adj in zip(g.schema.relations, g.adjacency):
        coo = adj.tocoo()
        rows = new_id[coo.row] if r.src_type == g.target_type else coo.row
        cols = new_id[coo.col] if r.dst_type == g.target_type else coo.col
        adjacency.append(bool_csr(rows, cols, adj.shape))
    features = list(g.features)
    features[g.target_type] = features[g.target_type][perm]
    return dataclasses.replace(
        g, adjacency=tuple(adjacency), features=tuple(features),
        labels=g.labels[perm], splits=g.splits[perm],
    )


def fit(g, paths, cfg):
    targets = [similarity_targets(compose_metapath(g, p), g, TargetsConfig())[1] for p in paths]
    return train(g, paths, targets, cfg)


@given(n=st.integers(30, 300), seed=st.integers(0, 2**16))
@settings(max_examples=10, deadline=None, derandomize=True)
def test_renaming_target_nodes_permutes_every_result(n, seed):
    g = synth_generate(SynthConfig(target_nodes=n, aux_sizes=(20,), aux_homophily=(0.5,), seed=seed))
    perm = np.random.default_rng(seed).permutation(n)
    gp = rename_targets(g, perm)
    paths = enumerate_metapaths(g.schema, g.target_type, 2)

    for path in paths:
        sub, sub_p = compose_metapath(g, path), compose_metapath(gp, path)
        expected = sub.adjacency[perm][:, perm]
        assert sub_p.adjacency.nnz == expected.nnz and (sub_p.adjacency != expected).nnz == 0
        assert measurable_homophily(sub_p, gp.labels) == measurable_homophily(sub, g.labels)

    # Full windows only: a sampled window (batch size below n) draws index
    # sets from the RNG, so the renamed graph would train on other pairs.
    cfg = LearnerConfig(hidden_dim=8, epochs_attr=3, epochs_label=2, batch_rows=n, batch_cols=n, seed=seed)
    model, history = fit(g, paths, cfg)
    model_p, history_p = fit(gp, paths, cfg)
    for row, row_p in zip(history, history_p, strict=True):
        np.testing.assert_allclose(row_p.losses, row.losses, rtol=1e-12, atol=0)
    np.testing.assert_allclose(model_p.params, model.params, rtol=0, atol=1e-12)

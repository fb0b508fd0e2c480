"""Pairwise similarity learner over meta-paths.

The encoder maps every node type into one hidden space, propagates the
stacked features through the row-normalized union adjacency of the whole
graph (its type-blind homogeneous counterpart), and applies one projection
per meta-path per hop. Pair similarity is the product over hops of centered
cosines, trained against the targets module with exact hand-derived
gradients; a min-norm solver balances the per-path objectives.

A one-hop model computes a window's losses and its backward pass to the unit
rows from n x w Gram products of the unit rows and the target factors, never
forming a rows x cols array; models with two or more hops use the dense
window, whose Hadamard product over hops has no small factored form.

Parameters, gradients and the Adam state are each one flat float64 vector
in the order ``param_layout`` gives: input projections by node type id, then
each meta-path's per-hop projections. The model's projection matrices are
reshaped views into its vector, and a checkpoint stores the vector as is.
"""

from __future__ import annotations

import json
import math
import operator
import struct
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .dataio import atomic_write
from .errors import DataError, NumericError
from .graph import HeteroGraph
from .metapath import MetaPath, compose_metapath
from .multiobjective import min_norm_point
from .sparse import bool_csr, row_normalize
from .targets import (ZERO_NORM_CUTOFF, DistributionFeatures, SimilarityTargets, TargetsConfig,
                      centered_unit_rows, neighborhood_distributions)

CHECKPOINT_MAGIC = b"MSL1"


@dataclass(frozen=True)
class LearnerConfig:
    hidden_dim: int = 32
    num_hops: int = 1
    epochs_attr: int = 200
    epochs_label: int = 30
    learning_rate: float = 5e-4
    weight_decay: float = 1e-4
    batch_rows: int = 1000
    batch_cols: int = 1000
    concat_distribution_features: bool = False
    keep_attr_in_finetune: bool = True
    seed: int = 0

    def __post_init__(self):
        for name in ("hidden_dim", "num_hops", "epochs_attr", "epochs_label", "batch_rows", "batch_cols"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class PairBatch:
    """A rows x cols window of node pairs."""

    rows: np.ndarray
    cols: np.ndarray


def union_adjacency(g: HeteroGraph) -> tuple[sp.csr_matrix, np.ndarray]:
    """Type-blind union of all relation edges under a global node indexing.

    Returns the boolean adjacency and the per-type global offsets. No self
    loops are added; whatever the relations contain is kept as stored.
    """
    counts = [t.node_count for t in g.schema.node_types]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    n_all = int(offsets[-1])
    rows, cols = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for r, adj in zip(g.schema.relations, g.adjacency):
        coo = adj.tocoo()
        rows.append(coo.row + offsets[r.src_type])
        cols.append(coo.col + offsets[r.dst_type])
    return bool_csr(np.concatenate(rows), np.concatenate(cols), (n_all, n_all)), offsets


Layout = list[tuple[tuple, tuple[int, int]]]


def param_layout(g: HeteroGraph, cfg: LearnerConfig, n_paths: int) -> Layout:
    """Each parameter's key and shape, in the one canonical order: the input
    projection ("in", type id) of every node type by type id, then for each
    meta-path in model order its per-hop projections ("path", path, hop)."""
    d = cfg.hidden_dim
    layout: Layout = [(("in", t.type_id), (t.feature_dim, d)) for t in g.schema.node_types]
    return layout + [(("path", p, k), (d, d)) for p in range(n_paths) for k in range(cfg.num_hops)]


def param_views(flat: np.ndarray, layout: Layout) -> dict[tuple, np.ndarray]:
    """Each parameter's block of a flat vector in ``layout`` order, reshaped
    to the parameter's shape; the blocks are views, so writes reach ``flat``."""
    views, offset = {}, 0
    for key, (rows, cols) in layout:
        views[key] = flat[offset : offset + rows * cols].reshape(rows, cols)
        offset += rows * cols
    return views


class SimilarityModel:
    """Trainable state: the flat parameter vector with its projection views,
    and the cached hop encodings, kept coherent via a version counter."""

    def __init__(
        self,
        g: HeteroGraph,
        paths: Sequence[MetaPath],
        cfg: LearnerConfig,
        dist_features: Sequence[DistributionFeatures] | None = None,
    ):
        if not paths:
            raise ValueError("need at least one meta-path")
        if cfg.concat_distribution_features:
            if dist_features is None or len(dist_features) != len(paths):
                raise ValueError("concat mode needs one DistributionFeatures per path")
            for df in dist_features:
                if df.num_hops < cfg.num_hops:
                    raise ValueError(
                        f"distribution features carry {df.num_hops} hops, "
                        f"model needs {cfg.num_hops}"
                    )
        self.graph = g
        self.cfg = cfg
        self.paths = tuple(paths)
        self.path_index = {p: i for i, p in enumerate(self.paths)}
        union, offsets = union_adjacency(g)
        self._walk_sp = row_normalize(union)
        self._walk_sp_t = self._walk_sp.T.tocsr()
        self.type_offsets = offsets
        self.target_slice = slice(
            int(offsets[g.target_type]), int(offsets[g.target_type] + g.target_count)
        )
        self.dist_features = tuple(dist_features) if dist_features is not None else None

        self.layout = param_layout(g, cfg, len(self.paths))
        self.params = np.empty(sum(rows * cols for _, (rows, cols) in self.layout))
        views = param_views(self.params, self.layout)
        rng = np.random.default_rng(cfg.seed)
        for key, (fan_in, fan_out) in self.layout:  # Xavier uniform
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            views[key][...] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        self.w_in = {t.type_id: views["in", t.type_id] for t in g.schema.node_types}
        self.w_path = [[views["path", p, k] for k in range(cfg.num_hops)] for p in range(len(self.paths))]

        self._version = 0
        self._enc_version = -1
        self._encodings: tuple[np.ndarray, ...] | None = None

    # -- parameters ---------------------------------------------------------

    def set_params(self, values: np.ndarray) -> None:
        """Overwrite every parameter from a flat vector in layout order."""
        self.params[...] = values
        self._version += 1

    # -- encodings ----------------------------------------------------------

    def encodings(self) -> tuple[np.ndarray, ...]:
        if self._enc_version != self._version:
            self._encodings = self._compute_encodings()
            self._enc_version = self._version
        return self._encodings

    def _compute_encodings(self) -> tuple[np.ndarray, ...]:
        g = self.graph
        n_all = int(self.type_offsets[-1])
        h0 = np.empty((n_all, self.cfg.hidden_dim))
        for t in g.schema.node_types:
            lo, hi = int(self.type_offsets[t.type_id]), int(self.type_offsets[t.type_id + 1])
            h0[lo:hi] = np.asarray(g.features[t.type_id], dtype=np.float64) @ self.w_in[t.type_id]
        out = []
        z = h0
        for _ in range(self.cfg.num_hops):
            z = np.asarray(self._walk_sp @ z)
            out.append(z)
        return tuple(out)


@dataclass
class _HopRep:
    units: np.ndarray  # (n_target, width) centered unit rows; zero rows for degenerate nodes
    norms: np.ndarray  # centered norms before unit scaling
    z_target: np.ndarray  # (n_target, hidden) encoder rows feeding this hop


def _path_reps(m: SimilarityModel, path: MetaPath) -> list[_HopRep]:
    pidx = m.path_index[path]
    enc = m.encodings()
    reps = []
    for k in range(m.cfg.num_hops):
        z_t = enc[k][m.target_slice]
        h = z_t @ m.w_path[pidx][k]
        if m.cfg.concat_distribution_features:
            h = np.concatenate([h, m.dist_features[pidx].attr[k]], axis=1)
        units, norms = centered_unit_rows(h)
        reps.append(_HopRep(units=units, norms=norms, z_target=z_t))
    return reps


@dataclass
class GradientResult:
    l1: float
    l2: float
    grad: np.ndarray  # flat, in layout order; other paths' projections get zeros


def _scatter_add(out: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    # strictly increasing index sets (the sampler's output) take the fast path
    if idx.size > 1 and np.all(np.diff(idx) > 0):
        out[idx] += rows
    else:
        np.add.at(out, idx, rows)


def _pick(x: np.ndarray, idx: np.ndarray, full: bool) -> np.ndarray:
    return x if full else x[idx]


# Per hop, the backward terms of a window with hop cosines S_k = A_k B_k^T
# and loss gradient L_k with respect to S_k (the other hops' factors folded
# in): L_k B_k, L_k^T A_k and the row and column sums of L_k * S_k.
_HopTerms = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _dense_window(
    row_units: list[np.ndarray],
    col_units: list[np.ndarray],
    targets: SimilarityTargets,
    rows: np.ndarray,
    cols: np.ndarray,
    full: bool,
    include_attr: bool,
    include_label: bool,
) -> tuple[float, float, list[_HopTerms]]:
    """Losses and per-hop backward terms from the explicit rows x cols window;
    any number of hops (leave-one-out products over the hop cosines). A
    ``full`` window reads the targets' kept full-window blocks."""
    hop_sims = [a @ b.T for a, b in zip(row_units, col_units)]
    s = hop_sims[0]
    for hs in hop_sims[1:]:
        s = s * hs

    attr_block, label_block, mb = targets.full_window() if full else (
        targets.attr_block(rows, cols), targets.label_block(rows, cols), targets.mask_block(rows, cols)
    )
    r1 = s - attr_block
    r2 = s - label_block
    l1 = float((r1 * r1).sum())
    l2 = float((mb * r2 * r2).sum())

    if include_attr and include_label:
        g_s = 2.0 * r1 + 2.0 * mb * r2
    elif include_attr:
        g_s = 2.0 * r1
    elif include_label:
        g_s = 2.0 * mb * r2
    else:
        g_s = np.zeros_like(s)

    terms = []
    for k, sk in enumerate(hop_sims):
        loo = g_s
        for l in range(len(hop_sims)):
            if l != k:
                loo = loo * hop_sims[l]
        loo_s = loo * sk
        terms.append((loo @ col_units[k], loo.T @ row_units[k], loo_s.sum(axis=1), loo_s.sum(axis=0)))
    return l1, l2, terms


def _factored_window(
    a: np.ndarray,
    b: np.ndarray,
    targets: SimilarityTargets,
    rows: np.ndarray,
    cols: np.ndarray,
    full_rows: bool,
    full_cols: bool,
    include_attr: bool,
    include_label: bool,
) -> tuple[float, float, list[_HopTerms]]:
    """One-hop losses and backward terms from Gram products, never a rows x
    cols array.

    With S = A B^T, attribute targets P Q^T and label targets Vr Vc^T under
    the pair mask mr mc^T, and X~ the rows of X times the mask:
    l1 = <A^T A, B^T B> - 2 <P^T A, Q^T B> + <P^T P, Q^T Q>, l2 the same sum
    with one side of each Gram masked, and for the loss gradient G
    G B = 2 (A B^T B - P Q^T B) + 2 mr * (A B~^T B - Vr Vc~^T B), G^T A its
    mirror image. Row sums of G * S are the rowwise dots of G B with A,
    column sums those of G^T A with B. A full window pairs every row with
    every row, so its column side repeats the row side.
    """
    attr, label, mask = targets.one_hop_factors()
    same = full_rows and full_cols
    p, q = _pick(attr, rows, full_rows), _pick(attr, cols, full_cols)
    vr, vc = _pick(label, rows, full_rows), _pick(label, cols, full_cols)
    mr = _pick(mask, rows, full_rows)[:, None]
    mc = _pick(mask, cols, full_cols)[:, None]
    mvr = mr * vr
    aa, pa, maa, va = a.T @ a, p.T @ a, (mr * a).T @ a, mvr.T @ a
    pp, vv = p.T @ p, mvr.T @ vr
    if same:
        bb, qb, mbb, vb, qq, ww = aa, pa, maa, va, pp, vv
    else:
        mvc = mc * vc
        bb, qb, mbb, vb = b.T @ b, q.T @ b, (mc * b).T @ b, mvc.T @ b
        qq, ww = q.T @ q, mvc.T @ vc
    # the Gram form can round just below zero at an exact fit; np.maximum
    # keeps a NaN loss NaN, so train's non-finite check still sees it
    l1 = float(np.maximum(0.0, np.vdot(aa, bb) - 2.0 * np.vdot(pa, qb) + np.vdot(pp, qq)))
    l2 = float(np.maximum(0.0, np.vdot(maa, mbb) - 2.0 * np.vdot(va, vb) + np.vdot(vv, ww)))

    gb = np.zeros_like(a)
    if include_attr:
        gb += 2.0 * (a @ bb - p @ qb)
    if include_label:
        gb += 2.0 * mr * (a @ mbb - vr @ vb)
    gs_rows = np.einsum("ij,ij->i", gb, a)
    if same:
        return l1, l2, [(gb, gb, gs_rows, gs_rows)]
    ga = np.zeros_like(b)
    if include_attr:
        ga += 2.0 * (b @ aa - q @ pa)
    if include_label:
        ga += 2.0 * mc * (b @ maa - vc @ va)
    return l1, l2, [(gb, ga, gs_rows, np.einsum("ij,ij->i", ga, b))]


def gradients(
    m: SimilarityModel,
    path: MetaPath,
    batch: PairBatch,
    targets: SimilarityTargets,
    include_attr: bool = True,
    include_label: bool = True,
) -> GradientResult:
    """Exact gradients of the selected loss terms for one meta-path.

    The backward pass mirrors the forward chain: residual -> hop cosines
    (leave-one-out products) -> unit rows -> centering -> per-hop projection
    -> encoder propagation -> input projections. A one-hop model takes the
    window part from Gram products (_factored_window), a deeper one from the
    dense window (_dense_window).
    """
    pidx = m.path_index[path]
    reps = _path_reps(m, path)
    rows, cols = batch.rows, batch.cols
    k_hops = m.cfg.num_hops
    d = m.cfg.hidden_dim
    n_target = m.graph.target_count
    arange = np.arange(n_target)
    full_rows = rows.size == n_target and np.array_equal(rows, arange)
    full_cols = cols.size == n_target and np.array_equal(cols, arange)

    row_units = [_pick(rep.units, rows, full_rows) for rep in reps]
    col_units = [_pick(rep.units, cols, full_cols) for rep in reps]
    full = full_rows and full_cols
    if k_hops == 1:
        l1, l2, terms = _factored_window(
            row_units[0], col_units[0], targets, rows, cols,
            full_rows, full_cols, include_attr, include_label,
        )
    else:
        l1, l2, terms = _dense_window(
            row_units, col_units, targets, rows, cols, full, include_attr, include_label
        )

    n_all = int(m.type_offsets[-1])
    grad = np.zeros_like(m.params)
    grads = param_views(grad, m.layout)
    dz_global = [np.zeros((n_all, d)) for _ in range(k_hops)]

    for k in range(k_hops):
        rep = reps[k]
        gb, ga, gs_rows, gs_cols = terms[k]
        a = row_units[k]
        b = col_units[k]
        na = _pick(rep.norms, rows, full_rows)
        nb = _pick(rep.norms, cols, full_cols)
        na_safe = np.where(na < ZERO_NORM_CUTOFF, 1.0, na)
        nb_safe = np.where(nb < ZERO_NORM_CUTOFF, 1.0, nb)
        da = (gb - gs_rows[:, None] * a) / na_safe[:, None]
        db = (ga - gs_cols[:, None] * b) / nb_safe[:, None]
        da[na < ZERO_NORM_CUTOFF] = 0.0
        db[nb < ZERO_NORM_CUTOFF] = 0.0

        if full:
            d_centered = da + db
        else:
            d_centered = np.zeros((n_target, rep.units.shape[1]))
            _scatter_add(d_centered, rows, da)
            _scatter_add(d_centered, cols, db)
        # centering used the mean over all rows, so its backward spreads the
        # negative column mean to every row
        d_h = d_centered - d_centered.mean(axis=0)
        d_h = d_h[:, :d]  # concatenated distribution columns are constants

        grads["path", pidx, k][...] = rep.z_target.T @ d_h
        dz_global[k][m.target_slice] = d_h @ m.w_path[pidx][k].T

    acc = np.zeros((n_all, d))
    for k in range(k_hops - 1, -1, -1):
        acc += dz_global[k]
        acc = np.asarray(m._walk_sp_t @ acc)
    for t in m.graph.schema.node_types:
        lo, hi = int(m.type_offsets[t.type_id]), int(m.type_offsets[t.type_id + 1])
        x = np.asarray(m.graph.features[t.type_id], dtype=np.float64)
        grads["in", t.type_id][...] = x.T @ acc[lo:hi]
    return GradientResult(l1, l2, grad)


class _Adam:
    def __init__(self, size: int, lr: float, weight_decay: float):
        self.lr = lr
        self.wd = weight_decay
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, model: SimilarityModel, grad: np.ndarray) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        g = grad + self.wd * model.params
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * g
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * g * g
        update = (self.m / bc1) / (np.sqrt(self.v / bc2) + self.eps)
        model.set_params(model.params - self.lr * update)


@dataclass(frozen=True)
class HistoryRow:
    epoch: int
    phase: str
    losses: tuple[float, ...]
    lambdas: tuple[float, ...]


def _sample_axis(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    if k >= n:
        return np.arange(n)
    return np.sort(rng.choice(n, size=k, replace=False))


def train(
    g: HeteroGraph,
    paths: Sequence[MetaPath],
    targets: Sequence[SimilarityTargets],
    cfg: LearnerConfig,
) -> tuple[SimilarityModel, list[HistoryRow]]:
    """Two-phase training: attribute targets first, label targets folded in
    for the fine-tune epochs. One window of batch_rows x batch_cols pairs is
    sampled per epoch and shared by every meta-path; the min-norm solver
    weights the per-path gradients before each Adam step. Deterministic for
    a fixed seed. A blown-up model stops with NumericError at the first
    non-finite loss, without numpy's overflow warnings."""
    if len(paths) != len(targets):
        raise ValueError("one SimilarityTargets per path required")
    for t in targets:
        if t.num_hops != cfg.num_hops:
            raise ValueError(
                f"targets were built with {t.num_hops} hops, config says {cfg.num_hops}"
            )
    dist = [t.df for t in targets] if cfg.concat_distribution_features else None
    model = SimilarityModel(g, paths, cfg, dist_features=dist)

    rng = np.random.default_rng(cfg.seed)
    adam = _Adam(model.params.size, cfg.learning_rate, cfg.weight_decay)
    n = g.target_count
    m_paths = len(paths)
    history: list[HistoryRow] = []
    epoch = 0

    phases = (
        ("attr", cfg.epochs_attr, True, False),
        ("label", cfg.epochs_label, cfg.keep_attr_in_finetune, True),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        for phase_name, n_epochs, inc_attr, inc_label in phases:
            for _ in range(n_epochs):
                epoch += 1
                batch = PairBatch(
                    _sample_axis(rng, n, cfg.batch_rows), _sample_axis(rng, n, cfg.batch_cols)
                )
                results = [
                    gradients(model, p, batch, t, include_attr=inc_attr, include_label=inc_label)
                    for p, t in zip(model.paths, targets)
                ]
                losses = [
                    (r.l1 if inc_attr else 0.0) + (r.l2 if inc_label else 0.0) for r in results
                ]
                if not all(np.isfinite(losses)):
                    raise NumericError(
                        f"non-finite loss at epoch {epoch} ({phase_name} phase): {losses}"
                    )
                lam = min_norm_point([r.grad for r in results])
                combined = np.zeros_like(model.params)
                for lam_i, r in zip(lam, results):
                    combined += lam_i / m_paths * r.grad
                adam.step(model, combined)
                history.append(
                    HistoryRow(epoch, phase_name, tuple(losses), tuple(float(x) for x in lam))
                )
    return model, history


def history_csv_lines(history: Sequence[HistoryRow], path_labels: Sequence[str]) -> list[str]:
    header = ["epoch", "phase"]
    header += [f"loss:{lbl}" for lbl in path_labels]
    header += [f"lambda:{lbl}" for lbl in path_labels]
    lines = [",".join(header)]
    for row in history:
        cells = [str(row.epoch), row.phase]
        cells += [repr(x) for x in row.losses]
        cells += [repr(x) for x in row.lambdas]
        lines.append(",".join(cells))
    return lines


def save_history_csv(history: Sequence[HistoryRow], path_labels: Sequence[str], filename: str) -> None:
    with atomic_write(filename, "w", encoding="utf-8") as fh:
        fh.write("\n".join(history_csv_lines(history, path_labels)) + "\n")


# -- checkpoint container ---------------------------------------------------


def save_model(m: SimilarityModel, filename: str, extra_meta: dict | None = None) -> None:
    """Versioned binary checkpoint: magic, JSON header (schema hash, config,
    paths, parameter index, extra metadata), then raw little-endian float64
    parameter vector in layout order. The file is replaced only once it
    is written in full."""
    header = {
        "format_version": 1,
        "schema_hash": m.graph.schema.content_hash(),
        "target_type": m.graph.target_type,
        "config": asdict(m.cfg),
        "paths": [list(p.relation_ids) for p in m.paths],
        "params": [{"key": list(key), "shape": list(shape)} for key, shape in m.layout],
        "meta": extra_meta or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(filename, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(m.params, dtype="<f8").tobytes())


@dataclass(frozen=True)
class Checkpoint:
    """A parsed checkpoint: the JSON header and the values it describes."""

    filename: str
    header: dict
    schema_hash: str
    cfg: LearnerConfig
    paths: tuple[MetaPath, ...]
    index: tuple[tuple[tuple, tuple], ...]  # each stored parameter's key and shape
    params: np.ndarray  # flat, in index order

    def check_graph(self, g: HeteroGraph) -> None:
        """Raise DataError unless the checkpoint fits ``g``'s schema: its
        paths and its parameter index, whose shapes the schema and config
        fix, so a model is only allocated at the size of the stored data."""
        if self.schema_hash != g.schema.content_hash():
            raise DataError(f"{self.filename}: checkpoint was trained on a different schema")
        n_rel = len(g.schema.relations)
        if any(not 0 <= rid < n_rel for p in self.paths for rid in p.relation_ids):
            raise DataError(f"{self.filename}: a meta-path names a relation the schema lacks")
        bad = DataError(f"{self.filename}: parameter index does not match the model")
        # count first: the layout of a huge num_hops would not fit in memory
        if len(self.index) != len(g.schema.node_types) + len(self.paths) * self.cfg.num_hops:
            raise bad
        if list(self.index) != param_layout(g, self.cfg, len(self.paths)):
            raise bad

    def model(self, g: HeteroGraph) -> SimilarityModel:
        """Rebuild the model bound to ``g``. A concat-mode model reads only
        the propagated attributes of its distribution features, which depend
        on the hop count alone, so they are rebuilt here from ``g``."""
        self.check_graph(g)
        dist = None
        if self.cfg.concat_distribution_features:
            tcfg = TargetsConfig(num_hops=self.cfg.num_hops)
            dist = [neighborhood_distributions(compose_metapath(g, p), g, tcfg) for p in self.paths]
        model = SimilarityModel(g, self.paths, self.cfg, dist_features=dist)
        model.set_params(self.params)
        return model


def read_checkpoint(filename: str) -> Checkpoint:
    """Parse a checkpoint from one read of the file (no graph needed). Every
    departure from the layout save_model writes, trailing bytes included, is
    a DataError."""
    try:
        with open(filename, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot open checkpoint {filename}: {exc}") from None
    if data[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{filename}: not a model checkpoint (bad magic {data[:4]!r})")
    try:
        (hlen,) = struct.unpack_from("<I", data, 4)
        header = json.loads(data[8 : 8 + hlen])
        if header["format_version"] != 1:
            raise DataError(f"{filename}: unsupported checkpoint version")
        config = header["config"]
        for f in fields(LearnerConfig):  # each present, typed like its default
            allowed = (int, float) if type(f.default) is float else (type(f.default),)
            if type(config[f.name]) not in allowed:
                raise TypeError(f"config field {f.name!r} holds {config[f.name]!r}")
        cfg = LearnerConfig(**config)  # an unknown field is a TypeError
        paths = tuple(MetaPath(tuple(map(operator.index, ids))) for ids in header["paths"])
        index = tuple((tuple(entry["key"]), tuple(entry["shape"])) for entry in header["params"])
        # a bad shape fails here or in Checkpoint.check_graph
        end = 8 + hlen + 8 * sum(math.prod(shape) for _, shape in index)
        if end > len(data):
            raise DataError(f"{filename}: truncated parameter data")
        params = np.frombuffer(data[8 + hlen : end], dtype="<f8")
        schema_hash = header["schema_hash"]
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{filename}: malformed checkpoint header ({type(exc).__name__}: {exc})") from None
    if end != len(data):
        raise DataError(f"{filename}: {len(data) - end} trailing bytes after the parameters")
    if not np.isfinite(params).all():
        raise DataError(f"{filename}: non-finite parameter values")
    return Checkpoint(filename, header, schema_hash, cfg, paths, index, params)


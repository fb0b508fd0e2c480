"""Independent reference implementations the tests check the package against.

Everything here is deliberately written the slow, obvious way (dense arrays,
python loops, exhaustive enumeration) and shares no code with the package
kernels it verifies.
"""

from __future__ import annotations

import numpy as np

from hgrw.graph import HeteroGraph
from hgrw.learner import GradientResult, PairBatch, SimilarityModel, _path_reps, param_views
from hgrw.metapath import MetaPath, MetaPathSubgraph
from hgrw.sparse import CsrMatrix
from hgrw.targets import ZERO_NORM_CUTOFF


def row_cols(adj: CsrMatrix, i: int) -> np.ndarray:
    """Column indices stored in row ``i``."""
    return adj.col_indices[adj.row_offsets[i] : adj.row_offsets[i + 1]]


def dense_matmul(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    n, m = a.shape
    m2, d = x.shape
    assert m == m2
    out = np.zeros((n, d))
    for i in range(n):
        for k in range(m):
            if a[i, k] != 0.0:
                for j in range(d):
                    out[i, j] += a[i, k] * x[k, j]
    return out


def dense_bool_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, m = a.shape
    m2, p = b.shape
    assert m == m2
    out = np.zeros((n, p), dtype=bool)
    for i in range(n):
        for j in range(p):
            out[i, j] = any(a[i, k] and b[k, j] for k in range(m))
    return out


def dfs_compose_pairs(g: HeteroGraph, path: MetaPath, symmetrize: bool = True) -> set[tuple[int, int]]:
    """Meta-path composition by explicit frontier expansion from every start
    node, diagonal dropped, optionally symmetrized."""
    hops = []
    for rid in path.relation_ids:
        adj = g.adjacency[rid]
        hops.append([set(row_cols(adj, i).tolist()) for i in range(adj.n_rows)])
    n_start = len(hops[0])
    pairs: set[tuple[int, int]] = set()
    for start in range(n_start):
        frontier = {start}
        for hop in hops:
            nxt: set[int] = set()
            for u in frontier:
                nxt |= hop[u]
            frontier = nxt
            if not frontier:
                break
        for end in frontier:
            if end != start:
                pairs.add((start, end))
    if symmetrize:
        pairs |= {(j, i) for i, j in pairs}
    return pairs


def csr_pairs(adj: CsrMatrix) -> set[tuple[int, int]]:
    out = set()
    for i in range(adj.n_rows):
        for j in row_cols(adj, i):
            out.add((i, int(j)))
    return out


def csr_first_unsorted_row(offsets: np.ndarray, cols: np.ndarray) -> int | None:
    """First row whose slice ``cols[offsets[i]:offsets[i + 1]]`` is not
    strictly increasing, or None."""
    for i in range(len(offsets) - 1):
        row = cols[offsets[i] : offsets[i + 1]]
        if row.shape[0] > 1 and np.any(np.diff(row) <= 0):
            return i
    return None


def edge_scan_hr(adj: CsrMatrix, labels: np.ndarray) -> float | None:
    """Eq-by-hand homophily ratio: loop the stored entries, skip pairs with an
    unlabeled endpoint; None when nothing is countable."""
    same = counted = total = 0
    for i in range(adj.n_rows):
        for j in row_cols(adj, i):
            total += 1
            li, lj = int(labels[i]), int(labels[int(j)])
            if li >= 0 and lj >= 0:
                counted += 1
                if li == lj:
                    same += 1
    if total == 0 or counted == 0:
        return None
    return same / counted


def centered_cosine(x: np.ndarray, y: np.ndarray, mean: np.ndarray) -> float:
    """Cosine of (x - mean) and (y - mean); 0 when either side is (nearly)
    the zero vector, so degenerate pairs carry no signal."""
    cx = np.asarray(x, dtype=np.float64) - mean
    cy = np.asarray(y, dtype=np.float64) - mean
    nx = float(np.linalg.norm(cx))
    ny = float(np.linalg.norm(cy))
    if nx < ZERO_NORM_CUTOFF or ny < ZERO_NORM_CUTOFF:
        return 0.0
    return float(cx @ cy) / (nx * ny)


def dense_target_matrices(
    adj: np.ndarray, x: np.ndarray, y_train: np.ndarray, num_hops: int
) -> tuple[np.ndarray, np.ndarray]:
    """Full attribute/label similarity matrices: k-fold mean-neighbor
    propagation, per-hop column centering, pairwise cosine, product over hops."""
    n = adj.shape[0]
    deg = adj.sum(axis=1)
    walk = np.divide(adj, deg[:, None], out=np.zeros((n, n)), where=deg[:, None] > 0)
    sx = np.ones((n, n))
    sy = np.ones((n, n))
    cur_x = x.astype(np.float64)
    cur_y = y_train.astype(np.float64)
    for _ in range(num_hops):
        cur_x = walk @ cur_x
        cur_y = walk @ cur_y
        for mat, acc in ((cur_x, sx), (cur_y, sy)):
            mean = mat.mean(axis=0)
            acc *= [[centered_cosine(mat[i], mat[j], mean) for j in range(n)] for i in range(n)]
    return sx, sy


def similarity_block(m: SimilarityModel, path: MetaPath, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The model's rows x cols similarity window: the product over hops of
    unit-row Gram blocks."""
    out = np.ones((len(rows), len(cols)))
    for rep in _path_reps(m, path):
        out *= rep.units[rows] @ rep.units[cols].T
    return out


def pair_loss(m: SimilarityModel, path: MetaPath, batch: PairBatch, targets) -> tuple[float, float]:
    """Squared-error sums of the batch window against the attribute targets
    (first value) and the masked label targets (second value)."""
    s = similarity_block(m, path, batch.rows, batch.cols)
    r1 = s - targets.attr_block(batch.rows, batch.cols)
    r2 = s - targets.label_block(batch.rows, batch.cols)
    mb = targets.mask_block(batch.rows, batch.cols)
    return float((r1 * r1).sum()), float((mb * r2 * r2).sum())


def fd_gradients(
    model: SimilarityModel,
    path: MetaPath,
    batch: PairBatch,
    targets,
    include_attr: bool = True,
    include_label: bool = True,
    h: float = 1e-4,
) -> np.ndarray:
    """Central finite differences of the selected loss terms over every
    entry of the model's flat parameter vector."""

    def loss(params: np.ndarray) -> float:
        model.set_params(params)
        l1, l2 = pair_loss(model, path, batch, targets)
        return (l1 if include_attr else 0.0) + (l2 if include_label else 0.0)

    base = model.params.copy()
    grad = np.zeros_like(base)
    for idx in range(base.size):
        plus, minus = base.copy(), base.copy()
        plus[idx] += h
        minus[idx] -= h
        grad[idx] = (loss(plus) - loss(minus)) / (2.0 * h)
    model.set_params(base)
    return grad


def dense_gradients(
    m: SimilarityModel,
    path: MetaPath,
    batch: PairBatch,
    targets,
    include_attr: bool = True,
    include_label: bool = True,
) -> GradientResult:
    """The learner's gradients through the explicit rows x cols window, for
    any number of hops: residuals against the target blocks, leave-one-out
    products over the hop cosines, then the unit-row, centering, projection
    and propagation backward steps, scattering with ``np.add.at``."""
    pidx = m.path_index[path]
    reps = _path_reps(m, path)
    rows, cols = batch.rows, batch.cols
    k_hops, d = m.cfg.num_hops, m.cfg.hidden_dim
    n_target = m.graph.target_count
    hop_sims = [rep.units[rows] @ rep.units[cols].T for rep in reps]
    s = np.prod(hop_sims, axis=0)
    r1 = s - targets.attr_block(rows, cols)
    r2 = s - targets.label_block(rows, cols)
    mb = targets.mask_block(rows, cols)
    g_s = np.zeros_like(s)
    if include_attr:
        g_s += 2.0 * r1
    if include_label:
        g_s += 2.0 * mb * r2

    n_all = int(m.type_offsets[-1])
    grad = np.zeros_like(m.params)
    grads = param_views(grad, m.layout)
    dz_global = [np.zeros((n_all, d)) for _ in range(k_hops)]
    for k, rep in enumerate(reps):
        loo = g_s * np.prod([hop_sims[l] for l in range(k_hops) if l != k], axis=0)
        a, b, sk = rep.units[rows], rep.units[cols], hop_sims[k]
        na, nb = rep.norms[rows], rep.norms[cols]
        da = (loo @ b - (loo * sk).sum(axis=1)[:, None] * a) / np.where(na < ZERO_NORM_CUTOFF, 1.0, na)[:, None]
        db = (loo.T @ a - (loo * sk).sum(axis=0)[:, None] * b) / np.where(nb < ZERO_NORM_CUTOFF, 1.0, nb)[:, None]
        da[na < ZERO_NORM_CUTOFF] = 0.0
        db[nb < ZERO_NORM_CUTOFF] = 0.0
        d_centered = np.zeros((n_target, rep.units.shape[1]))
        np.add.at(d_centered, rows, da)
        np.add.at(d_centered, cols, db)
        d_h = (d_centered - d_centered.mean(axis=0))[:, :d]
        grads["path", pidx, k][...] = rep.z_target.T @ d_h
        dz_global[k][m.target_slice] = d_h @ m.w_path[pidx][k].T

    acc = np.zeros((n_all, d))
    for k in range(k_hops - 1, -1, -1):
        acc = np.asarray(m._walk_sp_t @ (acc + dz_global[k]))
    for t in m.graph.schema.node_types:
        lo, hi = int(m.type_offsets[t.type_id]), int(m.type_offsets[t.type_id + 1])
        grads["in", t.type_id][...] = np.asarray(m.graph.features[t.type_id], dtype=np.float64).T @ acc[lo:hi]
    return GradientResult(float((r1 * r1).sum()), float((mb * r2 * r2).sum()), grad)


def _simplex_grid(m: int, step: float) -> np.ndarray:
    ticks = int(round(1.0 / step))
    if m == 1:
        return np.ones((1, 1))
    if m == 2:
        a = np.arange(ticks + 1) / ticks
        return np.stack([a, 1.0 - a], axis=1)
    if m == 3:
        rows = []
        for i in range(ticks + 1):
            j = np.arange(ticks - i + 1)
            block = np.empty((j.size, 3))
            block[:, 0] = i / ticks
            block[:, 1] = j / ticks
            block[:, 2] = 1.0 - block[:, 0] - block[:, 1]
            rows.append(block)
        return np.concatenate(rows)
    raise ValueError("direct grids only up to 3 objectives")


def _grid_objective(gram: np.ndarray, lams: np.ndarray) -> np.ndarray:
    return np.einsum("ni,ij,nj->n", lams, gram, lams)


def grid_min_norm_value(grads: list[np.ndarray], step: float = 1e-3) -> float:
    """Smallest ||sum lambda_i g_i||^2 over a simplex grid of the given step.

    Four objectives use a coarse full sweep followed by a fine sweep of the
    surrounding box, reaching the same resolution without the infeasible
    1e8-point full grid.
    """
    stacked = np.stack([g.ravel() for g in grads])
    gram = stacked @ stacked.T
    m = len(grads)
    if m <= 3:
        lams = _simplex_grid(m, step)
        return float(_grid_objective(gram, lams).min())
    if m != 4:
        raise ValueError("oracle handles up to 4 objectives")
    coarse = 1e-2
    lams = []
    ticks = int(round(1.0 / coarse))
    for i in range(ticks + 1):
        for j in range(ticks - i + 1):
            k = np.arange(ticks - i - j + 1)
            block = np.empty((k.size, 4))
            block[:, 0] = i / ticks
            block[:, 1] = j / ticks
            block[:, 2] = k / ticks
            block[:, 3] = 1.0 - block[:, 0] - block[:, 1] - block[:, 2]
            lams.append(block)
    lams = np.concatenate(lams)
    vals = _grid_objective(gram, lams)
    center = lams[int(np.argmin(vals))]
    best = float(vals.min())

    span = 2.0 * coarse
    axes = [
        np.arange(max(0.0, c - span), min(1.0, c + span) + step / 2, step) for c in center[:3]
    ]
    aa, bb, cc = np.meshgrid(*axes, indexing="ij")
    fine = np.stack([aa.ravel(), bb.ravel(), cc.ravel()], axis=1)
    last = 1.0 - fine.sum(axis=1)
    keep = last >= -1e-12
    fine = np.concatenate([fine[keep], np.maximum(last[keep], 0.0)[:, None]], axis=1)
    if fine.shape[0]:
        best = min(best, float(_grid_objective(gram, fine).min()))
    return best


def two_objective_closed_form(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Exact minimizer weight on g1 for two objectives."""
    diff = g1 - g2
    denom = float(diff @ diff)
    if denom == 0.0:
        return np.array([0.5, 0.5])
    gamma = float((g2 - g1) @ g2) / denom
    gamma = min(1.0, max(0.0, gamma))
    return np.array([gamma, 1.0 - gamma])


def model_similarity(m: SimilarityModel, path: MetaPath, i: int, j: int) -> float:
    """Product over hops of centered cosine between nodes i and j."""
    out = 1.0
    for rep in _path_reps(m, path):
        out *= float(rep.units[i] @ rep.units[j])
    return out


def scan_candidates_per_row(
    m: SimilarityModel,
    path: MetaPath,
    edge_budget: int,
    epsilon: float,
    block_size: int,
    sub: MetaPathSubgraph | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Candidate scan one row at a time: score blocks as ``units[rows] @
    units.T`` products, mask self pairs (and, given ``sub``, everything
    beyond two hops) to -inf, then sort every entry above epsilon by
    (-score, index) and keep edge_budget of them. Returns per-row index and
    score arrays."""
    n = m.graph.target_count
    if edge_budget == 0:
        return [np.zeros(0, dtype=np.int64)] * n, [np.zeros(0)] * n
    reps = _path_reps(m, path)
    if sub is not None:
        adj = sub.adjacency.to_dense() > 0
        reach = adj | ((adj.astype(np.int64) @ adj.astype(np.int64)) > 0)
    indices, scores = [], []
    for start in range(0, n, block_size):
        rows = np.arange(start, min(start + block_size, n))
        sim = np.ones((len(rows), n))
        for rep in reps:
            sim *= rep.units[rows] @ rep.units.T
        sim[np.arange(len(rows)), rows] = -np.inf
        if sub is not None:
            sim[~reach[rows]] = -np.inf
        for local in range(len(rows)):
            row = sim[local]
            eligible = np.flatnonzero(row > epsilon)
            eligible = eligible[np.lexsort((eligible, -row[eligible]))][:edge_budget]
            indices.append(eligible.astype(np.int64))
            scores.append(row[eligible])
    return indices, scores


def rewire_with_sets(
    sub: MetaPathSubgraph,
    indices: list[np.ndarray],
    scores: list[np.ndarray],
    m: SimilarityModel,
    gamma: float,
) -> tuple[CsrMatrix, list[tuple[int, int, float]], list[tuple[int, int, float]]]:
    """Rewiring on Python sets of undirected (low, high) pairs. Every
    candidate that is no existing pair is an addition, in source then rank
    order; existing pairs scoring below gamma are removals, in pair order.
    Returns the symmetric rewired adjacency, additions and removals."""
    adj = sub.adjacency
    n = adj.n_rows
    existing = {(min(i, j), max(i, j)) for i, j in csr_pairs(adj) if i != j}
    additions, added = [], set()
    for i in range(len(indices)):
        for j, score in zip(indices[i].tolist(), scores[i].tolist()):
            key = (min(i, j), max(i, j))
            if i != j and key not in existing:
                additions.append((i, j, score))
                added.add(key)
    removals, removed = [], set()
    if existing and gamma > -1.0:
        pairs = np.array(sorted(existing), dtype=np.int64)
        pair_scores = np.ones(len(pairs))
        for rep in _path_reps(m, sub.path):
            pair_scores *= np.einsum("ij,ij->i", rep.units[pairs[:, 0]], rep.units[pairs[:, 1]])
        for (i, j), score in zip(pairs.tolist(), pair_scores.tolist()):
            if score < gamma:
                removals.append((i, j, score))
                removed.add((i, j))
    final = sorted((existing - removed) | added)
    rows = [i for i, j in final] + [j for i, j in final]
    cols = [j for i, j in final] + [i for i, j in final]
    return CsrMatrix.from_coo(rows, cols, (n, n)), additions, removals

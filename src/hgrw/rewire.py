"""Rewiring of meta-path subgraphs with the learned similarity.

Per target node, up to ``edge_budget`` new neighbors with similarity above
``epsilon`` are proposed; existing edges scoring below ``gamma`` are pruned.
Additions and removals apply symmetrically. Candidate scoring scans node
blocks through reused buffers: memory stays at one block_size x n_target
score buffer (two when the model has several hops) plus, under
restrict_two_hop, one boolean block mask and one block's rows of the
two-hop reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataio import atomic_write
from .errors import DataError
from .graph import HeteroGraph, HeteroSchema, Relation
from .learner import SimilarityModel, _path_reps
from .metapath import MetaPath, MetaPathSubgraph, path_label
from .sparse import CsrMatrix

GROUPS = 64  # column groups per score row for the top-k lower bound


@dataclass(frozen=True)
class RewireConfig:
    edge_budget: int = 6
    epsilon: float = 0.6
    gamma: float = -1.0
    block_size: int = 512
    restrict_two_hop: bool = False

    def __post_init__(self):
        if self.edge_budget < 0:
            raise ValueError("edge_budget must be >= 0")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if math.isnan(self.epsilon) or math.isnan(self.gamma):
            raise ValueError("epsilon and gamma must not be NaN")


@dataclass(frozen=True)
class CandidateSet:
    """Per-node top candidates: parallel index/score arrays per source node."""

    indices: list[np.ndarray]
    scores: list[np.ndarray]

    @property
    def n(self) -> int:
        return len(self.indices)


@dataclass
class RewirePlan:
    path: MetaPath
    additions: list[tuple[int, int, float]] = field(default_factory=list)
    removals: list[tuple[int, int, float]] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.additions and not self.removals


def _block_top_k(sim: np.ndarray, k: int, floor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and score of each row's k best entries at or above
    ``floor``, ordered by (row, -score, column).

    At least k entries reach the k-th largest maximum of GROUPS equal column
    groups, so only groups reaching it are searched, plus the columns past
    the last whole group.
    """
    b, n = sim.shape
    span = n - n % GROUPS if k <= GROUPS else 0
    bound = np.full(b, floor)
    found = []
    if span:
        grouped = sim[:, :span].reshape(b, GROUPS, -1)
        group_max = grouped.max(axis=2)
        np.maximum(bound, np.partition(group_max, GROUPS - k, axis=1)[:, GROUPS - k], out=bound)
        g_rows, g_ids = np.nonzero(group_max >= bound[:, None])
        picked = grouped[g_rows, g_ids]
        hit, offset = np.nonzero(picked >= bound[g_rows, None])
        found.append((g_rows[hit], g_ids[hit] * grouped.shape[2] + offset))
    t_rows, t_cols = np.nonzero(sim[:, span:] >= bound[:, None])
    found.append((t_rows, t_cols + span))
    rows, cols = (np.concatenate(f) for f in zip(*found))
    vals = sim[rows, cols]
    order = np.lexsort((cols, -vals, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    counts = np.bincount(rows, minlength=b)
    keep = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts) < k
    return rows[keep], cols[keep], vals[keep]


def score_candidates(
    m: SimilarityModel,
    path: MetaPath,
    cfg: RewireConfig,
    sub: MetaPathSubgraph | None = None,
) -> CandidateSet:
    """For every target node the edge_budget highest-scoring partners with
    similarity strictly above epsilon, ties broken by ascending node index.

    ``sub`` is only needed when restrict_two_hop limits the candidate pool to
    the subgraph's one- and two-hop neighborhoods.
    """
    n = m.graph.target_count
    k = cfg.edge_budget
    if k == 0 or n == 0:
        empty_i = np.zeros(0, dtype=np.int64)
        empty_s = np.zeros(0)
        return CandidateSet(indices=[empty_i] * n, scores=[empty_s] * n)
    if cfg.restrict_two_hop and sub is None:
        raise ValueError("restrict_two_hop needs the meta-path subgraph")

    units = [rep.units for rep in _path_reps(m, path)]
    # transposes of copies: a block spanning every row would otherwise share
    # its buffer with the transpose, and numpy rounds u @ u.T differently
    units_t = [u.copy().T for u in units]
    block = min(cfg.block_size, n)
    sim_buf = np.empty((block, n))
    hop_buf = np.empty_like(sim_buf) if len(units) > 1 else None
    if cfg.restrict_two_hop:
        adj = sub.adjacency.to_scipy()
        blocked_buf = np.empty((block, n), dtype=bool)
    floor = float(np.nextafter(cfg.epsilon, np.inf))

    parts = []
    for start in range(0, n, block):
        stop = min(start + block, n)
        local = np.arange(stop - start)
        sim = sim_buf[: stop - start]
        np.matmul(units[0][start:stop], units_t[0], out=sim)
        for u, u_t in zip(units[1:], units_t[1:]):
            hop = hop_buf[: stop - start]
            np.matmul(u[start:stop], u_t, out=hop)
            sim *= hop
        sim[local, local + start] = -np.inf  # self pairs never qualify, whatever epsilon
        if cfg.restrict_two_hop:
            blk = adj[start:stop]
            reach = (blk + blk @ adj).tocsr()
            blocked = blocked_buf[: stop - start]
            blocked.fill(True)
            blocked[np.repeat(local, np.diff(reach.indptr)), reach.indices] = False
            np.copyto(sim, -np.inf, where=blocked)
        rows, cols, vals = _block_top_k(sim, k, floor)
        parts.append((rows + start, cols, vals))

    rows, cols, vals = (np.concatenate(p) for p in zip(*parts))
    ends = np.cumsum(np.bincount(rows, minlength=n)).tolist()
    bounds = list(zip([0, *ends[:-1]], ends))
    return CandidateSet(indices=[cols[a:b] for a, b in bounds], scores=[vals[a:b] for a, b in bounds])


def _pair_scores(m: SimilarityModel, path: MetaPath, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    reps = _path_reps(m, path)
    out = np.ones(len(a))
    for rep in reps:
        out *= np.einsum("ij,ij->i", rep.units[a], rep.units[b])
    return out


def rewire_metapath(
    sub: MetaPathSubgraph,
    candidates: CandidateSet,
    m: SimilarityModel,
    cfg: RewireConfig,
) -> tuple[MetaPathSubgraph, RewirePlan]:
    """Apply additions and prunes to one subgraph; returns the rewired
    subgraph (canonical, symmetric, diagonal-free) and the audit plan.

    An undirected pair {i, j} with i < j is keyed as i * n + j.
    """
    adj = sub.adjacency
    n = adj.n_rows
    rows, cols = adj.coo_rows(), adj.col_indices
    # a lone directed entry still counts as an existing undirected pair
    existing = np.unique((np.minimum(rows, cols) * n + np.maximum(rows, cols))[rows != cols])

    src = np.repeat(np.arange(candidates.n, dtype=np.int64), [idx.size for idx in candidates.indices])
    dst = np.concatenate([np.zeros(0, dtype=np.int64), *candidates.indices])
    scores = np.concatenate([np.zeros(0), *candidates.scores])
    keys = np.minimum(src, dst) * n + np.maximum(src, dst)
    new = (src != dst) & ~np.isin(keys, existing)
    plan = RewirePlan(
        path=sub.path,
        additions=list(zip(src[new].tolist(), dst[new].tolist(), scores[new].tolist())),
    )

    low = np.zeros(existing.size, dtype=bool)
    if existing.size and cfg.gamma > -1.0:
        lo, hi = np.divmod(existing, n)
        pair_scores = _pair_scores(m, sub.path, lo, hi)
        low = pair_scores < cfg.gamma
        plan.removals = list(zip(lo[low].tolist(), hi[low].tolist(), pair_scores[low].tolist()))

    # both directions of every kept pair: the result is symmetric as built
    lo, hi = np.divmod(np.union1d(existing[~low], keys[new]), n)
    new_adj = CsrMatrix.from_coo(np.concatenate([lo, hi]), np.concatenate([hi, lo]), (n, n))
    return MetaPathSubgraph(path=sub.path, adjacency=new_adj, symmetric=True), plan


def merge_into_graph(g: HeteroGraph, rewired: list[MetaPathSubgraph]) -> HeteroGraph:
    """Attach each rewired subgraph as a new target-to-target relation named
    rw:<path label>; the original relations are untouched."""
    new_rels = list(g.schema.relations)
    new_adj = list(g.adjacency)
    taken = {r.name for r in g.schema.relations}
    for sub in rewired:
        n = g.target_count
        if sub.adjacency.n_rows != n or sub.adjacency.n_cols != n:
            raise DataError("rewired subgraph is not over the target type")
        name = f"rw:{path_label(g.schema, sub.path)}"
        if name in taken:
            raise DataError(f"relation name {name!r} already exists")
        taken.add(name)
        new_rels.append(
            Relation(rel_id=len(new_rels), name=name, src_type=g.target_type, dst_type=g.target_type)
        )
        new_adj.append(sub.adjacency)
    schema = HeteroSchema(node_types=g.schema.node_types, relations=tuple(new_rels))
    return HeteroGraph(
        schema=schema,
        adjacency=tuple(new_adj),
        features=g.features,
        labels=g.labels,
        splits=g.splits,
        target_type=g.target_type,
        num_classes=g.num_classes,
    )


def plan_tsv_lines(plans: list[RewirePlan], schema: HeteroSchema) -> list[str]:
    lines = ["metapath\top\ti\tj\tscore"]
    for plan in plans:
        label = path_label(schema, plan.path)
        for i, j, s in plan.additions:
            lines.append(f"{label}\tadd\t{i}\t{j}\t{s!r}")
        for i, j, s in plan.removals:
            lines.append(f"{label}\tdel\t{i}\t{j}\t{s!r}")
    return lines


def save_plan_tsv(plans: list[RewirePlan], schema: HeteroSchema, filename: str) -> None:
    with atomic_write(filename, "w", encoding="utf-8") as fh:
        fh.write("\n".join(plan_tsv_lines(plans, schema)) + "\n")

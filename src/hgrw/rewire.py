"""Rewiring of meta-path subgraphs with the learned similarity.

Per target node, up to ``edge_budget`` new neighbors with similarity above
``epsilon`` are proposed; existing edges scoring below ``gamma`` are pruned.
Additions and removals apply symmetrically. Every plan score is one pair's
float64 product of unit-row dots (``_pair_scores``), whatever tile found it.
The candidate scan keeps, from float32 score tiles that hold 2 * TILE values
in all (two tiles of half the rows at several hops), every entry that can be
among its row's best within a slack of about hops * (width + 4) * 2^-23, and
ranks only those in float64. Under restrict_two_hop a tile is masked to its
rows' two-hop reach: a boolean tile is cleared at each edge i - j and along
each walk i - j - c of the subgraph, WALKS walks at a time, and the entries
left set become -inf. Existing pairs are scored in chunks whose two gathered
operands share TILE values, so no temporary that grows with the node or
edge count outgrows 8 MiB but the unit rows, which ``_path_reps`` builds for
all targets at once. Plans hold pairs in arrays, 24 bytes each, formatted
_PLAN_LINES at a time on write. Pair keys are sorted int64 arrays: numpy's
hashed np.unique, np.isin and np.union1d are several times slower than a
sort and searchsorted on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .dataio import atomic_write
from .errors import DataError
from .graph import HeteroGraph, HeteroSchema, Relation
from .learner import SimilarityModel, _path_reps
from .metapath import REWIRED_PREFIX, MetaPath, MetaPathSubgraph, path_label
from .sparse import bool_csr

GROUPS = 64  # column groups per score row for the top-k lower bound
TILE = 1 << 20  # float64 values (8 MiB) in both operands of a pair gather; scan tiles hold 2 * TILE float32
WALKS = TILE // 32  # two-hop walks (40 bytes each), then mask entries, handled at a time
_PLAN_LINES = 1 << 12  # plan lines formatted per write: their Python objects take under 1 MB


@dataclass(frozen=True)
class RewireConfig:
    edge_budget: int = 6
    epsilon: float = 0.6
    gamma: float = -1.0
    restrict_two_hop: bool = False

    def __post_init__(self):
        if self.edge_budget < 0:
            raise ValueError("edge_budget must be >= 0")
        if math.isnan(self.epsilon) or math.isnan(self.gamma):
            raise ValueError("epsilon and gamma must not be NaN")


@dataclass(frozen=True)
class Pairs:
    """Scored pairs (sources[k], partners[k]) with score scores[k], as
    parallel int64, int64 and float64 arrays: 24 bytes a pair."""

    sources: np.ndarray
    partners: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.scores)


@dataclass(frozen=True)
class CandidateSet(Pairs):
    """Every node's top candidates, ordered by (source, -score, partner), and
    the path's unit rows that scored them, with which pruning scores pairs."""

    units: list[np.ndarray]  # per hop, every target's unit row (float64)


@dataclass(frozen=True)
class RewirePlan:
    path: MetaPath
    additions: Pairs
    removals: Pairs  # (i, j) with i < j, in key order

    @property
    def empty(self) -> bool:
        return not self.additions and not self.removals


def _block_superset(sim: np.ndarray, k: int, floor: float, slack: float) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each entry of a float32 score tile whose float64
    score, within ``slack`` of it, can be among its row's k best at or above
    ``floor``. At least k entries reach the k-th largest maximum of GROUPS
    equal column groups, so only groups reaching it less 2 * slack are
    searched, plus the columns past the last whole group. The bound is
    finite, so the -inf entries of self and masked pairs never pass it."""
    b, n = sim.shape
    span = n - n % GROUPS if k <= GROUPS else 0
    bound = np.full(b, floor - slack)  # finite: floor is above -inf
    found = []
    if span:
        width = span // GROUPS
        grouped = sim[:, :span].reshape(b, GROUPS, width)
        # one pass over each row; grouped.max(axis=2) takes twice as long
        group_max = np.maximum.reduceat(sim[:, :span], np.arange(0, span, width), axis=1)
        kth = np.partition(group_max, GROUPS - k, axis=1)[:, GROUPS - k].astype(np.float64)
        np.maximum(bound, kth - 2 * slack, out=bound)
        g_rows, g_ids = np.nonzero(group_max >= bound[:, None])
        # flat indices: np.nonzero is several times slower on a large 2-d mask
        hit, offset = np.divmod(np.flatnonzero(grouped[g_rows, g_ids] >= bound[g_rows, None]), width)
        found.append((g_rows[hit], g_ids[hit] * width + offset))
    t_rows, t_cols = np.divmod(np.flatnonzero(sim[:, span:] >= bound[:, None]), max(n - span, 1))
    found.append((t_rows, t_cols + span))
    return tuple(np.concatenate(f) for f in zip(*found))


def _first_k(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, k: int, floor: float) -> tuple:
    """Each row's first k entries at or above ``floor`` in (row, -score, column) order."""
    order = np.lexsort((cols, -vals, rows))
    order = order[vals[order] >= floor]
    rows, cols, vals = rows[order], cols[order], vals[order]
    counts = np.bincount(rows)
    keep = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts) < k
    return rows[keep], cols[keep], vals[keep]


def score_candidates(m: SimilarityModel, sub: MetaPathSubgraph, cfg: RewireConfig) -> CandidateSet:
    """For every target node the edge_budget highest-scoring partners on
    ``sub.path`` with similarity strictly above epsilon, ties broken by
    ascending node index. Under restrict_two_hop the pool is each node's one-
    and two-hop neighborhood in ``sub``."""
    n = m.graph.target_count
    k = cfg.edge_budget
    units = [rep.units for rep in _path_reps(m, sub.path)]
    if k == 0 or n == 0:
        return CandidateSet(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0), units)

    units32 = [u.astype(np.float32) for u in units]
    # For unit rows of width w, |fl(a.b) - a.b| <= gamma_w sum|a_i b_i| <= w 2^-24 in
    # float32 (Higham 2002, 3.1); the two casts and each hop's product add 3 * 2^-24, so
    # a tile entry is within sum_h (w_h + 3) 2^-24 of its float64 score: slack doubles it
    slack = sum(u.shape[1] + 4 for u in units) * 2.0**-23
    # a second hop takes a second buffer: together they hold 2 * TILE values
    block = min(max(1, 2 * TILE // (n * min(len(units), 2))), n)
    sim_buf = np.empty((block, n), dtype=np.float32)
    hop_buf = np.empty_like(sim_buf) if len(units) > 1 else None
    if cfg.restrict_two_hop:
        far_buf = np.empty((block, n), dtype=bool)
    floor = float(np.nextafter(cfg.epsilon, np.inf))

    parts = []
    for start in range(0, n, block):
        stop = min(start + block, n)
        local = np.arange(stop - start)
        sim = sim_buf[: stop - start]
        np.matmul(units32[0][start:stop], units32[0].T, out=sim)
        for u in units32[1:]:
            hop = hop_buf[: stop - start]
            np.matmul(u[start:stop], u.T, out=hop)
            sim *= hop
        sim[local, local + start] = -np.inf  # self pairs never qualify, whatever epsilon
        if cfg.restrict_two_hop:
            _mask_beyond_two_hops(sim, far_buf[: stop - start], start, sub.adjacency)
        rows, cols = _block_superset(sim, k, floor, slack)
        rows += start
        parts.append(_first_k(rows, cols, _pair_scores(units, rows, cols), k, floor))

    # blocks run in row order, so the concatenation keeps the set's order
    return CandidateSet(*(np.concatenate(p) for p in zip(*parts)), units)


def _mask_beyond_two_hops(sim: np.ndarray, far: np.ndarray, start: int, adj) -> None:
    """Set -inf in the score tile ``sim`` of the rows from ``start`` at every
    partner more than two hops away in adj. The mask ``far`` is set, then
    cleared at j for each entry (i, j) and at c for each walk i -> j -> c,
    WALKS walks at a time; a partner reached twice is cleared twice."""
    b, n = far.shape
    flat = far.reshape(-1)  # a leading-rows slice of a C-ordered buffer: a view
    flat.fill(True)
    lo, hi = adj.indptr[start], adj.indptr[start + b]
    mids = adj.indices[lo:hi]
    offsets = np.repeat(np.arange(b) * n, np.diff(adj.indptr[start : start + b + 1]))
    flat[offsets + mids] = False
    # walks ptr[e]:ptr[e + 1] run through the tile's entry e: walk w ends at
    # column w - ptr[e] of row mids[e]
    ptr = np.concatenate([[0], np.cumsum(np.diff(adj.indptr)[mids])])
    walks = int(ptr[-1])
    for w0 in range(0, walks, WALKS):
        w1 = min(w0 + WALKS, walks)
        e0 = int(np.searchsorted(ptr, w0, side="right")) - 1
        e1 = int(np.searchsorted(ptr, w1 - 1, side="right"))
        take = np.minimum(ptr[e0 + 1 : e1 + 1], w1) - np.maximum(ptr[e0:e1], w0)
        pos = np.repeat(adj.indptr[mids[e0:e1]] - ptr[e0:e1], take) + np.arange(w0, w1)
        flat[np.repeat(offsets[e0:e1], take) + adj.indices[pos]] = False
    # a blend of the bits: np.copyto(sim, -np.inf, where=far) branches on each
    # entry, and a mixed mask made it up to six times slower
    bits, flags = sim.reshape(-1).view(np.int32), flat.view(np.int8)
    neg_inf = np.float32(-np.inf).view(np.int32)
    for at in range(0, bits.size, WALKS):
        part = bits[at : at + WALKS]
        part ^= (part ^ neg_inf) & np.negative(flags[at : at + WALKS], dtype=np.int32)


def _pair_scores(units: list[np.ndarray], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The score of each pair (a[i], b[i]): the product over hops of the dots
    of its unit rows, gathering at most TILE values for both operands at a
    time. A pair's score depends on its two rows only."""
    out = np.ones(len(a))
    chunk = max(1, TILE // (2 * max(u.shape[1] for u in units)))
    for lo in range(0, len(a), chunk):
        part, ia, ib = out[lo : lo + chunk], a[lo : lo + chunk], b[lo : lo + chunk]
        for u in units:
            part *= np.einsum("ij,ij->i", u[ia], u[ib])
    return out


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """np.unique(keys), by one sort and a neighbour compare."""
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _in_sorted(keys: np.ndarray, table: np.ndarray) -> np.ndarray:
    """np.isin(keys, table) for ``table`` sorted and without repeats."""
    if not table.size:
        return np.zeros(keys.shape, dtype=bool)
    return table[np.minimum(np.searchsorted(table, keys), table.size - 1)] == keys


def rewire_metapath(
    sub: MetaPathSubgraph,
    candidates: CandidateSet,
    cfg: RewireConfig,
) -> tuple[MetaPathSubgraph, RewirePlan]:
    """Apply additions and prunes to one subgraph; returns the rewired
    subgraph (canonical, symmetric, diagonal-free) and the audit plan.
    Existing pairs are scored with the candidates' unit rows.

    An undirected pair {i, j} with i < j is keyed as i * n + j, in int64
    whatever the index type of the adjacency.
    """
    coo = sub.adjacency.tocoo()
    n = coo.shape[0]
    rows, cols = coo.row.astype(np.int64), coo.col.astype(np.int64)
    # a lone directed entry still counts as an existing undirected pair
    existing = _sorted_unique((np.minimum(rows, cols) * n + np.maximum(rows, cols))[rows != cols])

    src, dst, scores = candidates.sources, candidates.partners, candidates.scores
    keys = np.minimum(src, dst) * n + np.maximum(src, dst)
    new = (src != dst) & ~_in_sorted(keys, existing)
    pair_scores = (_pair_scores(candidates.units, *np.divmod(existing, n)) if cfg.gamma > -1.0
                   else np.zeros(existing.size))  # above any gamma <= -1: nothing is pruned
    low = pair_scores < cfg.gamma
    plan = RewirePlan(sub.path, Pairs(src[new], dst[new], scores[new]),
                      Pairs(*np.divmod(existing[low], n), pair_scores[low]))

    # both directions of every kept pair: the result is symmetric as built
    lo, hi = np.divmod(_sorted_unique(np.concatenate([existing[~low], keys[new]])), n)
    new_adj = bool_csr(np.concatenate([lo, hi]), np.concatenate([hi, lo]), (n, n))
    return MetaPathSubgraph(path=sub.path, adjacency=new_adj), plan


def merge_into_graph(g: HeteroGraph, rewired: list[MetaPathSubgraph]) -> HeteroGraph:
    """Attach each rewired subgraph as a new target-to-target relation named
    rw:<path label>; the original relations are untouched."""
    new_rels = list(g.schema.relations)
    new_adj = list(g.adjacency)
    taken = {r.name for r in g.schema.relations}
    for sub in rewired:
        n = g.target_count
        if sub.adjacency.shape != (n, n):
            raise DataError("rewired subgraph is not over the target type")
        name = REWIRED_PREFIX + path_label(g.schema, sub.path)
        if name in taken:
            raise DataError(f"relation name {name!r} already exists")
        taken.add(name)
        new_rels.append(Relation(len(new_rels), name, g.target_type, g.target_type))
        new_adj.append(sub.adjacency)
    return replace(g, schema=replace(g.schema, relations=tuple(new_rels)), adjacency=tuple(new_adj))


def save_plan_tsv(plans: list[RewirePlan], schema: HeteroSchema, filename: str) -> None:
    """The plan file: a header, then ``label<TAB>op<TAB>i<TAB>j<TAB>repr(score)``
    lines, written _PLAN_LINES at a time as one %-format of a repeated line template."""
    with atomic_write(filename, "w", encoding="utf-8") as fh:
        fh.write("metapath\top\ti\tj\tscore\n")
        for plan in plans:
            label = path_label(schema, plan.path).replace("%", "%%")
            for op, p in (("add", plan.additions), ("del", plan.removals)):
                line = f"{label}\t{op}\t%d\t%d\t%r\n"
                for at in range(0, len(p), _PLAN_LINES):
                    cols = [c[at : at + _PLAN_LINES].tolist() for c in (p.sources, p.partners, p.scores)]
                    fh.write((line * len(cols[0])) % tuple(chain.from_iterable(zip(*cols))))

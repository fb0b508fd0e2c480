"""Independent checks of one round's outputs.

Everything here reads the documented on-disk formats (dataset directory,
``MSL1`` checkpoint, loss CSV, ``rewire_plan.tsv``, the JSON reports and the
commands' stdout) with numpy and scipy alone, and recomputes what the
program claims: homophily ratios, the rewired relations, the candidate
ranking of a seeded sample of source nodes under its own forward pass, the
pruned set and the loss history. Nothing is imported from ``hgrw``.

``run_checks`` returns the problems found per check; ``CHECKS`` names the
command each check belongs to, so a failed check fails that command.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from workloads import Workload

SCORE_TOL = 1e-9  # recomputed scores against the plan's scores
TIE_TOL = 1e-12  # scores this close may be ranked either way
ZERO_NORM_CUTOFF = 1e-12  # centered rows shorter than this are zero rows
SAMPLE_NODES = 200  # source nodes per path whose full ranking is recomputed


class CheckError(Exception):
    pass


def _structure(m) -> sp.csr_matrix:
    """0/1 csr matrix with sorted, unique entries."""
    m = sp.csr_matrix(m, dtype=np.float64)
    m.sum_duplicates()
    m.eliminate_zeros()
    m.data[:] = 1.0
    m.sort_indices()
    return m


def _from_pairs(rows, cols, shape) -> sp.csr_matrix:
    return _structure(sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=shape))


def _same_structure(a, b) -> bool:
    return a.shape == b.shape and (_structure(a) != _structure(b)).nnz == 0


@dataclass
class Dataset:
    type_names: list[str]
    type_counts: list[int]
    rel_names: list[str]
    rel_ends: list[tuple[int, int]]
    adj: list[sp.csr_matrix]  # as stored in the edge files, not symmetrized
    features: list[np.ndarray]
    labels: np.ndarray
    target: int

    def target_relations(self) -> list[int]:
        return [r for r, ends in enumerate(self.rel_ends) if ends == (self.target, self.target)]


def _read_edges(path: Path, shape) -> sp.csr_matrix:
    pairs = np.array(path.read_text(encoding="utf-8").split(), dtype=np.int64).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or (pairs.max(axis=0) >= shape).any()):
        raise CheckError(f"{path.name}: endpoint out of range")
    if len(np.unique(pairs[:, 0] * shape[1] + pairs[:, 1])) != len(pairs):
        raise CheckError(f"{path.name}: duplicate edge lines")
    return _from_pairs(pairs[:, 0], pairs[:, 1], shape)


def _read_features(path: Path) -> np.ndarray:
    if path.suffix == ".tsv":
        return np.loadtxt(path, delimiter="\t", ndmin=2, dtype=np.float32)
    raw = path.read_bytes()
    if raw[:4] != b"HGF1":
        raise CheckError(f"{path.name}: bad feature magic")
    rows, cols = struct.unpack_from("<II", raw, 4)
    if len(raw) != 12 + 4 * rows * cols:
        raise CheckError(f"{path.name}: size does not match its {rows}x{cols} header")
    return np.frombuffer(raw, dtype="<f4", offset=12).reshape(rows, cols)


def read_dataset(directory: Path) -> Dataset:
    man = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    names = [t["name"] for t in man["node_types"]]
    counts = [int(t["count"]) for t in man["node_types"]]
    ends = [(names.index(r["src"]), names.index(r["dst"])) for r in man["relations"]]
    adj = [
        _read_edges(directory / r["edge_file"], (counts[s], counts[d]))
        for r, (s, d) in zip(man["relations"], ends)
    ]
    features = [_read_features(directory / t["feature_file"]) for t in man["node_types"]]
    target = names.index(man["target_type"])
    labels = np.full(counts[target], -1, dtype=np.int64)
    for line in (directory / man["label_file"]).read_text(encoding="utf-8").splitlines():
        node, lab = line.split("\t")
        labels[int(node)] = int(lab)
    return Dataset(names, counts, [r["name"] for r in man["relations"]], ends, adj, features,
                   labels, target)


def path_label(ds: Dataset, path) -> str:
    """Node-type initials along the path, with a relation's name in brackets
    when another relation joins the same pair of types."""
    pieces = [ds.type_names[ds.rel_ends[path[0]][0]][:1].upper()]
    for rid in path:
        if ds.rel_ends.count(ds.rel_ends[rid]) > 1:
            pieces.append(f"({ds.rel_names[rid]})")
        pieces.append(ds.type_names[ds.rel_ends[rid][1]][:1].upper())
    return "".join(pieces)


def compose(ds: Dataset, path) -> sp.csr_matrix:
    """Boolean product of the path's relations, diagonal dropped, symmetrized."""
    acc = ds.adj[path[0]]
    for rid in path[1:]:
        acc = acc @ ds.adj[rid]
    coo = acc.tocoo()
    keep = coo.row != coo.col
    r, c = coo.row[keep], coo.col[keep]
    return _from_pairs(np.r_[r, c], np.r_[c, r], acc.shape)


def homophily(m: sp.csr_matrix, labels: np.ndarray) -> tuple[float | None, int, int]:
    """(same-label share of the labelled entries or None, labelled entries, entries)."""
    coo = m.tocoo()
    a, b = labels[coo.row], labels[coo.col]
    known = (a >= 0) & (b >= 0)
    counted = int(known.sum())
    same = int(((a == b) & known).sum())
    return (same / counted if counted else None), counted, int(coo.nnz)


def read_checkpoint(path: Path) -> tuple[dict, dict]:
    """The ``MSL1`` layout: magic, u32 header length, JSON header, then the
    header's parameters as little-endian float64 in header order."""
    raw = path.read_bytes()
    if raw[:4] != b"MSL1":
        raise CheckError("checkpoint: bad magic")
    (hlen,) = struct.unpack_from("<I", raw, 4)
    header = json.loads(raw[8:8 + hlen].decode("utf-8"))
    pos = 8 + hlen
    params = {}
    for entry in header["params"]:
        shape = tuple(entry["shape"])
        count = math.prod(shape)
        if pos + 8 * count > len(raw):
            raise CheckError("checkpoint: truncated parameters")
        params[tuple(entry["key"])] = np.frombuffer(raw, "<f8", count, pos).reshape(shape)
        pos += 8 * count
    if pos != len(raw):
        raise CheckError(f"checkpoint: {len(raw) - pos} bytes after the last parameter")
    return header, params


def unit_rows(h: np.ndarray) -> np.ndarray:
    centered = h - h.mean(axis=0)
    norms = np.linalg.norm(centered, axis=1)
    units = centered / np.where(norms < ZERO_NORM_CUTOFF, 1.0, norms)[:, None]
    units[norms < ZERO_NORM_CUTOFF] = 0.0
    return units


def forward(ds: Dataset, header: dict, params: dict) -> list[list[np.ndarray]]:
    """Per path, per hop: the centered unit rows of the target nodes.

    Inputs are projected per node type, propagated over the row-normalized
    type-blind union of all relations, then projected per path and hop."""
    cfg = header["config"]
    if cfg["concat_distribution_features"]:
        raise CheckError("checkpoint: concat mode is not covered by these checks")
    offsets = np.concatenate([[0], np.cumsum(ds.type_counts)])
    rows, cols = [], []
    for (src, dst), a in zip(ds.rel_ends, ds.adj):
        coo = a.tocoo()
        rows.append(coo.row + offsets[src])
        cols.append(coo.col + offsets[dst])
    walk = _from_pairs(np.concatenate(rows), np.concatenate(cols), (offsets[-1], offsets[-1]))
    deg = np.diff(walk.indptr)
    walk.data = np.repeat(1.0 / np.maximum(deg, 1), deg)
    z = np.empty((offsets[-1], cfg["hidden_dim"]))
    for t, x in enumerate(ds.features):
        z[offsets[t]:offsets[t + 1]] = np.asarray(x, dtype=np.float64) @ params[("in", t)]
    hops = []
    for _ in range(cfg["num_hops"]):
        z = np.asarray(walk @ z)
        hops.append(z[offsets[ds.target]:offsets[ds.target + 1]])
    return [
        [unit_rows(hops[k] @ params[("path", p, k)]) for k in range(cfg["num_hops"])]
        for p in range(len(header["paths"]))
    ]


def pair_scores(units: list[np.ndarray], i: np.ndarray, j: np.ndarray) -> np.ndarray:
    out = np.ones(len(i))
    for u in units:
        out *= np.einsum("ij,ij->i", u[i], u[j])
    return out


def _within_two_hops(sub: sp.csr_matrix, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Whether j is a neighbour of i or of one of i's neighbours (sub is symmetric)."""
    common = np.asarray(sub[i].multiply(sub[j]).sum(axis=1)).ravel()
    return (common > 0) | (np.asarray(sub[i, j]).ravel() > 0)


def _keys(i, j, n) -> np.ndarray:
    """Undirected pair key of (i, j)."""
    i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
    return np.minimum(i, j) * n + np.maximum(i, j)


def _flag(args, name: str, default: str) -> str:
    values = [args[k + 1] for k, a in enumerate(args) if a == name]
    return values[-1] if values else default


@dataclass
class PathOutputs:
    path: tuple[int, ...]
    label: str
    sub: sp.csr_matrix  # the symmetrized subgraph on the input dataset
    units: list[np.ndarray]
    add: np.ndarray  # (k, 2) source, partner, in plan order
    add_scores: np.ndarray
    rem: np.ndarray
    rem_scores: np.ndarray


class RoundOutputs:
    """One round's files, parsed once and shared by the checks."""

    def __init__(self, work: Path, wl: Workload, seed: int, stdout: dict[str, str]):
        self.work, self.wl, self.seed, self.stdout = work, wl, seed, stdout

    @functools.cached_property
    def ds(self) -> Dataset:
        return read_dataset(self.work / "ds")

    @functools.cached_property
    def rw(self) -> Dataset:
        return read_dataset(self.work / "rw")

    @functools.cached_property
    def checkpoint(self) -> tuple[dict, dict]:
        return read_checkpoint(self.work / "model.msl")

    @functools.cached_property
    def report(self) -> dict:
        return json.loads((self.work / "rw" / "homophily_report.json").read_text(encoding="utf-8"))

    @functools.cached_property
    def paths(self) -> list[PathOutputs]:
        header, params = self.checkpoint
        units = forward(self.ds, header, params)
        plan: dict[str, dict[str, list]] = {}
        lines = (self.work / "rw" / "rewire_plan.tsv").read_text(encoding="utf-8").splitlines()
        if lines[0].split("\t") != ["metapath", "op", "i", "j", "score"]:
            raise CheckError("rewire_plan.tsv: bad header")
        for line in lines[1:]:
            label, op, i, j, score = line.split("\t")
            plan.setdefault(label, {"add": [], "del": []})[op].append((int(i), int(j), float(score)))
        out = []
        for p, ids in enumerate(header["paths"]):
            label = path_label(self.ds, ids)
            ops = plan.pop(label, {"add": [], "del": []})
            add = np.array(ops["add"], dtype=np.float64).reshape(-1, 3)
            rem = np.array(ops["del"], dtype=np.float64).reshape(-1, 3)
            out.append(PathOutputs(tuple(ids), label, compose(self.ds, ids), units[p],
                                   add[:, :2].astype(np.int64), add[:, 2],
                                   rem[:, :2].astype(np.int64), rem[:, 2]))
        if plan:
            raise CheckError(f"rewire_plan.tsv: rows for untrained paths {sorted(plan)}")
        return out


# -- synth ---------------------------------------------------------------------


def check_dataset(o: RoundOutputs) -> list[str]:
    """The generated dataset has the requested shape and well-formed relations."""
    ds, args, bad = o.ds, o.wl.synth, []
    n = int(_flag(args, "--target-nodes", "500"))
    degree = float(_flag(args, "--mean-degree", "8.0"))
    if ds.type_counts[ds.target] != n:
        bad.append(f"{ds.type_counts[ds.target]} target nodes, asked for {n}")
    if (ds.labels < 0).any() or abs(int((ds.labels == 0).sum()) - int((ds.labels == 1).sum())) > 1:
        bad.append("labels are not two balanced classes over every target node")
    for t, x in enumerate(ds.features):
        if x.shape != (ds.type_counts[t], 8) or not np.isfinite(x).all():
            bad.append(f"features of {ds.type_names[t]}: shape {x.shape} or non-finite values")
    for name, (src, dst), a in zip(ds.rel_names, ds.rel_ends, ds.adj):
        if src == dst:
            if a.nnz != 2 * round(n * degree / 2) or not _same_structure(a, a.T) or a.diagonal().any():
                bad.append(f"{name}: {a.nnz} entries, not a symmetric loop-free n*degree")
        elif a.nnz != round(n * degree):
            bad.append(f"{name}: {a.nnz} edges, expected {round(n * degree)}")
    return bad


# -- inspect -------------------------------------------------------------------


def _table(stdout: str) -> tuple[dict[str, list[str]], str]:
    lines = stdout.strip().splitlines()
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:-1]}
    return rows, lines[-1]


def check_inspect(o: RoundOutputs) -> list[str]:
    """Single-relation rows match the recomputed ratio and edge count, and
    the mh line names the table's maximum."""
    rows, last = _table(o.stdout["inspect"])
    bad = []
    for r in o.ds.target_relations():
        label = path_label(o.ds, [r])
        m = compose(o.ds, [r])
        hr = homophily(m, o.ds.labels)[0]
        if rows.get(label, [None, None])[:2] != [f"{hr:.4f}", str(m.nnz)]:
            bad.append(f"inspect row {label}: {rows.get(label)} vs hr {hr:.4f}, {m.nnz} edges")
    # rows print 4 decimals, so any row showing the maximum may be the one named
    best = max((v[0] for v in rows.values() if v[0] != "n/a"), key=float, default=None)
    named = [f"mh {best} ({k})" for k, v in rows.items() if v[0] == best]
    if last not in named:
        bad.append(f"inspect mh line {last!r} is not the table maximum {best}")
    return bad


# -- train ---------------------------------------------------------------------


def check_checkpoint(o: RoundOutputs) -> list[str]:
    """The checkpoint parses exactly and holds the configured run."""
    header, params = o.checkpoint
    cfg, bad = header["config"], []
    if cfg["epochs_attr"] + cfg["epochs_label"] != o.wl.epochs or cfg["seed"] != o.seed:
        bad.append(f"checkpoint config {cfg} is not the requested run")
    if len(header["paths"]) != o.wl.paths:
        bad.append(f"{len(header['paths'])} trained paths, expected {o.wl.paths}")
    if not all(np.isfinite(v).all() for v in params.values()):
        bad.append("non-finite parameters")
    return bad


def check_loss_csv(o: RoundOutputs) -> list[str]:
    """One row per epoch, finite losses, every lambda row on the simplex."""
    lines = (o.work / "model.msl.loss.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    n_paths = sum(h.startswith("loss:") for h in header)
    if header[:2] != ["epoch", "phase"] or len(header) != 2 + 2 * n_paths or n_paths != o.wl.paths:
        return [f"loss CSV header {header}"]
    rows = [line.split(",") for line in lines[1:]]
    bad = []
    if len(rows) != o.wl.epochs or [r[0] for r in rows] != [str(e + 1) for e in range(len(rows))]:
        bad.append(f"loss CSV has {len(rows)} rows, expected epochs 1..{o.wl.epochs}")
    for r in rows:
        losses = np.array(r[2:2 + n_paths], dtype=np.float64)
        lam = np.array(r[2 + n_paths:], dtype=np.float64)
        if not np.isfinite(losses).all():
            bad.append(f"epoch {r[0]}: non-finite loss")
        if (lam < -1e-9).any() or abs(lam.sum() - 1.0) > 1e-9:
            bad.append(f"epoch {r[0]}: lambdas {lam} off the simplex")
    return bad


# -- rewire --------------------------------------------------------------------


def check_report(o: RoundOutputs) -> list[str]:
    """homophily_report.json equals the ratios recomputed from the edge files."""
    rows, bad = o.report["paths"], []
    if len(rows) != len(o.paths):
        return [f"report has {len(rows)} rows for {len(o.paths)} paths"]
    for row, po in zip(rows, o.paths):
        name = f"rw:{po.label}"
        after = compose(o.rw, [o.rw.rel_names.index(name)] if name in o.rw.rel_names else po.path)
        hr_b = homophily(po.sub, o.ds.labels)[0]
        hr_a, counted, total = homophily(after, o.rw.labels)
        want = {"metapath": po.label, "hr_before": hr_b, "hr_after": hr_a,
                "edges_before": po.sub.nnz, "edges_after": after.nnz,
                "coverage": counted / total if total else 0.0}
        if row != want:
            bad.append(f"report row {row} != recomputed {want}")
    for key in ("hr_before", "hr_after"):
        mh = o.report[key.replace("hr", "mh")]
        if rows and mh != max(r[key] for r in rows):
            bad.append(f"{key.replace('hr', 'mh')} {mh} is not the maximum {key}")
    return bad


def check_mh_gain(o: RoundOutputs) -> list[str]:
    """Rewiring raised the maximum per-path homophily."""
    if not o.report["mh_after"] > o.report["mh_before"]:
        return [f"mh_after {o.report['mh_after']} <= mh_before {o.report['mh_before']}"]
    return []


def check_rw_relations(o: RoundOutputs) -> list[str]:
    """Each rw: relation is the symmetrized subgraph plus the additions minus
    the removals, symmetric and loop-free; the original relations are kept."""
    ds, rw, bad = o.ds, o.rw, []
    if rw.rel_names[:len(ds.rel_names)] != ds.rel_names or not all(
        _same_structure(a, b) for a, b in zip(ds.adj, rw.adj)
    ):
        bad.append("rewired dataset changed an original relation")
    expected_names = [f"rw:{po.label}" for po in o.paths if len(po.add) or len(po.rem)]
    if rw.rel_names[len(ds.rel_names):] != expected_names:
        bad.append(f"rw relations {rw.rel_names[len(ds.rel_names):]}, expected {expected_names}")
    for po in o.paths:
        name = f"rw:{po.label}"
        if name not in rw.rel_names:
            continue
        got = rw.adj[rw.rel_names.index(name)]
        n = got.shape[0]
        upper = sp.triu(po.sub, k=1).tocoo()
        keys = np.setdiff1d(_keys(upper.row, upper.col, n), _keys(po.rem[:, 0], po.rem[:, 1], n))
        keys = np.union1d(keys, _keys(po.add[:, 0], po.add[:, 1], n))
        i, j = keys // n, keys % n
        if not _same_structure(got, _from_pairs(np.r_[i, j], np.r_[j, i], (n, n))):
            bad.append(f"{name} differs from subgraph + additions - removals")
        if not _same_structure(got, got.T) or got.diagonal().any():
            bad.append(f"{name} is not symmetric and loop-free")
    return bad


def check_additions(o: RoundOutputs) -> list[str]:
    """Every addition is new, within budget, above epsilon (recomputed), within
    two hops when so restricted, and carries the recomputed score."""
    wl, bad = o.wl, []
    for po in o.paths:
        if not len(po.add):
            continue
        i, j = po.add[:, 0], po.add[:, 1]
        if (np.bincount(i).max()) > wl.edge_budget:
            bad.append(f"{po.label}: a source node has more than {wl.edge_budget} additions")
        if (i == j).any() or np.asarray(po.sub[i, j]).any():
            bad.append(f"{po.label}: an addition is a self pair or an existing edge")
        if wl.two_hop_only and not _within_two_hops(po.sub, i, j).all():
            bad.append(f"{po.label}: an addition lies beyond two hops")
        mine = pair_scores(po.units, i, j)
        if (mine <= wl.epsilon - TIE_TOL).any() or (po.add_scores <= wl.epsilon).any():
            bad.append(f"{po.label}: an addition scores at or below epsilon {wl.epsilon}")
        worst = np.abs(mine - po.add_scores).max()
        if worst > SCORE_TOL:
            bad.append(f"{po.label}: addition scores off the recomputed ones by {worst:.3g}")
    return bad


def check_topk(o: RoundOutputs) -> list[str]:
    """For a seeded sample of sources, the additions are the top edge_budget
    partners above epsilon ordered by (-score, index), minus existing edges."""
    wl, bad = o.wl, []
    rng = np.random.default_rng(o.seed)
    for po in o.paths:
        n = po.sub.shape[0]
        sample = np.sort(rng.choice(n, size=min(n, SAMPLE_NODES), replace=False))
        scores = np.ones((len(sample), n))
        for u in po.units:
            scores *= u[sample] @ u.T
        scores[np.arange(len(sample)), sample] = -2.0
        if wl.two_hop_only:
            reach = (po.sub + po.sub @ po.sub)[sample].toarray() > 0
            scores[~reach] = -2.0
        by_source = {}
        for s, t in po.add:
            by_source.setdefault(int(s), []).append(int(t))
        for row, i in zip(scores, sample):
            problem = _ranking_problem(row, by_source.get(int(i), []), set(po.sub[i].indices),
                                       wl.edge_budget, wl.epsilon)
            if problem:
                bad.append(f"{po.label}: source {i}: {problem}")
    return bad


def _ranking_problem(row, got: list[int], existing: set[int], k: int, eps: float) -> str | None:
    eligible = np.flatnonzero(row > eps)
    top = eligible[np.lexsort((eligible, -row[eligible]))][:k]
    expected = [int(j) for j in top if j not in existing]
    if got == expected:
        return None
    # Scores tied within TIE_TOL may be ranked, and cut at the budget, either way.
    cut = row[top[-1]] if len(top) == k else eps
    got_s = row[got] if got else np.zeros(0)
    if len(got) > k or len(set(got)) != len(got) or existing & set(got):
        return f"additions {got} repeat a partner, exceed the budget or hit an existing edge"
    if (got_s < cut - TIE_TOL).any() or (np.diff(got_s) > TIE_TOL).any():
        return f"additions {got} (scores {got_s}) fall below the cut {cut} or are out of order"
    sure = {int(j) for j in eligible if row[j] > cut + TIE_TOL and j not in existing}
    if not sure <= set(got):
        return f"additions {got} miss partners {sorted(sure - set(got))}"
    return None


def check_pruning(o: RoundOutputs) -> list[str]:
    """Every existing edge scoring below gamma is removed and no other is."""
    wl, bad = o.wl, []
    for po in o.paths:
        n = po.sub.shape[0]
        upper = sp.triu(po.sub, k=1).tocoo()
        got = _keys(po.rem[:, 0], po.rem[:, 1], n)
        if wl.gamma <= -1.0:
            if len(got):
                bad.append(f"{po.label}: {len(got)} removals with pruning off")
            continue
        scores = pair_scores(po.units, upper.row, upper.col)
        keys = _keys(upper.row, upper.col, n)
        sure = keys[scores < wl.gamma - SCORE_TOL]
        maybe = keys[scores < wl.gamma + SCORE_TOL]
        if not np.isin(sure, got).all() or not np.isin(got, maybe).all():
            bad.append(f"{po.label}: removals are not exactly the edges scoring below {wl.gamma}")
        if len(got) != len(np.unique(got)) or (po.rem[:, 0] >= po.rem[:, 1]).any():
            bad.append(f"{po.label}: removals repeat a pair or are not written as i < j")
        if len(got):
            mine = pair_scores(po.units, po.rem[:, 0], po.rem[:, 1])
            worst = np.abs(mine - po.rem_scores).max()
            if worst > SCORE_TOL:
                bad.append(f"{po.label}: removal scores off the recomputed ones by {worst:.3g}")
    return bad


# -- diag ----------------------------------------------------------------------


def check_diag(o: RoundOutputs) -> list[str]:
    """Single-relation rows of the diag report match the rewired dataset and
    mh is the maximum ratio."""
    doc = json.loads((o.work / "diag.json").read_text(encoding="utf-8"))
    rows = {r["metapath"]: r for r in doc["paths"]}
    bad = []
    for r in o.rw.target_relations():
        label = path_label(o.rw, [r])
        m = compose(o.rw, [r])
        hr, counted, total = homophily(m, o.rw.labels)
        got = rows.get(label, {})
        if [got.get("hr"), got.get("edges"), got.get("coverage")] != [hr, m.nnz, counted / total]:
            bad.append(f"diag row {label}: {got} vs hr {hr}, {m.nnz} edges")
    for row in doc["paths"]:
        c = row["complexity"]
        if c is not None and not (math.isfinite(c) and c > 0):
            bad.append(f"diag row {row['metapath']}: complexity {c}")
    if not doc["paths"] or doc["mh"] != max(r["hr"] for r in doc["paths"]):
        bad.append(f"diag mh {doc['mh']} is not the maximum ratio")
    return bad


CHECKS = {
    check_dataset: "synth",
    check_inspect: "inspect",
    check_checkpoint: "train",
    check_loss_csv: "train",
    check_report: "rewire",
    check_mh_gain: "rewire",
    check_rw_relations: "rewire",
    check_additions: "rewire",
    check_topk: "rewire",
    check_pruning: "rewire",
    check_diag: "diag",
}


def run_checks(work: Path, wl: Workload, seed: int, stdout: dict[str, str]) -> dict[str, list[str]]:
    """Problems found by each check, keyed by the check's name."""
    o = RoundOutputs(work, wl, seed, stdout)
    found = {}
    for check in CHECKS:
        try:
            found[check.__name__] = check(o)
        except Exception as exc:  # unreadable or missing output: the check fails
            found[check.__name__] = [f"{type(exc).__name__}: {exc}"]
    return found

"""Meta-path enumeration, subgraph composition and homophily metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import DataError, UndefinedRatioError
from .graph import HeteroGraph, HeteroSchema

# Name prefix of the relations that rewiring adds: each is already a rewired
# meta-path subgraph, so it forms a one-hop path and nothing longer.
REWIRED_PREFIX = "rw:"


@dataclass(frozen=True)
class MetaPath:
    """A type-compatible sequence of relation ids, target to target."""

    relation_ids: tuple[int, ...]

    def __post_init__(self):
        if len(self.relation_ids) < 1:
            raise ValueError("a meta-path needs at least one relation")

    def __len__(self) -> int:
        return len(self.relation_ids)


@dataclass(frozen=True)
class MetaPathSubgraph:
    path: MetaPath
    adjacency: sp.csr_matrix


def path_type_sequence(schema: HeteroSchema, path: MetaPath) -> tuple[int, ...]:
    """Node type sequence visited by the path; raises on incompatible hops."""
    rels = schema.relations
    seq = [rels[path.relation_ids[0]].src_type]
    for rid in path.relation_ids:
        r = rels[rid]
        if r.src_type != seq[-1]:
            raise DataError(
                f"meta-path {path.relation_ids}: relation {r.name!r} starts at type "
                f"{r.src_type}, previous hop ends at type {seq[-1]}"
            )
        seq.append(r.dst_type)
    return tuple(seq)


def path_label(schema: HeteroSchema, path: MetaPath) -> str:
    """Display label: initials of the visited node types, with the relation
    name spelled out whenever several relations share the same endpoints."""
    seq = path_type_sequence(schema, path)
    pieces = [schema.node_types[seq[0]].name[:1].upper()]
    for rid, dst in zip(path.relation_ids, seq[1:]):
        r = schema.relations[rid]
        siblings = [
            q for q in schema.relations if q.src_type == r.src_type and q.dst_type == r.dst_type
        ]
        if len(siblings) > 1:
            pieces.append(f"({r.name})")
        pieces.append(schema.node_types[dst].name[:1].upper())
    return "".join(pieces)


def compose_metapath(g: HeteroGraph, path: MetaPath) -> MetaPathSubgraph:
    """Compose the path's relation matrices into a boolean subgraph over the
    target type: the union of the product with its transpose, diagonal
    removed, canonicalised once at the end."""
    seq = path_type_sequence(g.schema, path)
    if seq[0] != g.target_type or seq[-1] != g.target_type:
        raise DataError(
            f"meta-path {path.relation_ids} runs {seq[0]}->{seq[-1]}, "
            f"must start and end at target type {g.target_type}"
        )
    acc = g.adjacency[path.relation_ids[0]]
    for rid in path.relation_ids[1:]:
        acc = acc @ g.adjacency[rid]
    adj = (acc + acc.T).tocsr()
    adj.setdiag(False)
    adj.eliminate_zeros()
    adj.sort_indices()
    return MetaPathSubgraph(path=path, adjacency=adj)


def _mirror_map(schema: HeteroSchema) -> dict[int, int]:
    """rel_id -> rel_id of its unique structural inverse, when unambiguous.

    A pair (r, q) mirrors when q is the only relation with r's endpoints
    swapped and vice versa; only such mutual pairs enter the map. Rewired
    relations neither enter it nor make another relation's mirror ambiguous.
    """
    original = [r for r in schema.relations if not r.name.startswith(REWIRED_PREFIX)]
    by_ends: dict[tuple[int, int], list[int]] = {}
    for r in original:
        by_ends.setdefault((r.src_type, r.dst_type), []).append(r.rel_id)
    mirror: dict[int, int] = {}
    for r in original:
        swapped = by_ends.get((r.dst_type, r.src_type), [])
        back = by_ends.get((r.src_type, r.dst_type), [])
        if len(swapped) == 1 and len(back) == 1:
            mirror[r.rel_id] = swapped[0]
    return mirror


def enumerate_metapaths(schema: HeteroSchema, target: int, max_len: int) -> list[MetaPath]:
    """All type-compatible paths of length <= max_len anchored at ``target``,
    in lexicographic relation-id order. A path whose structural reverse is a
    distinct, lexicographically smaller path is dropped (both induce the same
    symmetric subgraph). A rewired relation forms only its one-hop path."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    out_rels: dict[int, list[int]] = {}
    for r in schema.relations:
        out_rels.setdefault(r.src_type, []).append(r.rel_id)

    # level by level, not by recursion, so a long bound cannot overflow the
    # stack; the sort then gives the lexicographic order
    found: list[tuple[int, ...]] = []
    level: list[tuple[tuple[int, ...], int]] = [((), target)]
    while level and len(level[0][0]) < max_len:
        grown = []
        for prefix, cur_type in level:
            for rid in out_rels.get(cur_type, []):
                r = schema.relations[rid]
                if r.name.startswith(REWIRED_PREFIX):
                    if not prefix and r.dst_type == target:
                        found.append((rid,))
                    continue
                ids = prefix + (rid,)
                if r.dst_type == target:
                    found.append(ids)
                grown.append((ids, r.dst_type))
        level = grown
    found.sort()

    mirror = _mirror_map(schema)
    kept: list[MetaPath] = []
    for ids in found:
        if all(rid in mirror for rid in ids):
            rev = tuple(mirror[rid] for rid in reversed(ids))
            if rev < ids:
                continue
        kept.append(MetaPath(ids))
    return kept


class Homophily(NamedTuple):
    """Edge homophily of one subgraph."""

    ratio: float  # same-label share of the edges whose endpoints are both labeled
    edges: int  # stored entries
    coverage: float  # share of the entries whose endpoints are both labeled


def path_homophily(sub: MetaPathSubgraph, labels: np.ndarray) -> Homophily:
    """Homophily ratio, edge count and label coverage of a subgraph, from one
    pass over its entries. Edges with an unlabeled endpoint are excluded from
    the ratio's numerator and denominator; a subgraph with no countable edge
    raises UndefinedRatioError."""
    labels = np.asarray(labels)
    a = sub.adjacency
    total = a.nnz
    if total == 0:
        raise UndefinedRatioError("homophily ratio of an empty subgraph is undefined")
    row_labels = np.repeat(labels, np.diff(a.indptr))
    col_labels = labels[a.indices]
    known = (row_labels >= 0) & (col_labels >= 0)
    counted = int(known.sum())
    if counted == 0:
        raise UndefinedRatioError("homophily ratio undefined: no edge has both endpoints labeled")
    same = int(((row_labels == col_labels) & known).sum())
    return Homophily(same / counted, total, counted / total)


def measurable_homophily(sub: MetaPathSubgraph, labels: np.ndarray) -> Homophily | None:
    """path_homophily, or None for a subgraph without a countable edge."""
    try:
        return path_homophily(sub, labels)
    except UndefinedRatioError:
        return None


def measure_paths(
    g: HeteroGraph, paths: Iterable[MetaPath]
) -> Iterator[tuple[MetaPath, MetaPathSubgraph, Homophily | None]]:
    """Compose each path and measure its homophily; None marks
    a subgraph without a countable edge. Lazy, so that only one composed
    subgraph is held at a time."""
    for path in paths:
        sub = compose_metapath(g, path)
        yield path, sub, measurable_homophily(sub, g.labels)


def max_homophily(measured: Iterable[tuple[Homophily | None, Any]]) -> tuple[float, Any]:
    """The meta-path homophily mh: the largest ratio over the measurable
    entries, with the key of the first entry attaining it. Raises
    UndefinedRatioError when no entry is measurable."""
    best = None
    for h, key in measured:
        if h is not None and (best is None or h.ratio > best[0]):
            best = (h.ratio, key)
    if best is None:
        raise UndefinedRatioError("no meta-path has a measurable homophily ratio")
    return best


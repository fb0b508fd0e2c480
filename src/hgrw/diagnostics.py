"""Reporting utilities: homophily before/after tables, the intra/inter-class
complexity measure of representation sets, and relative-improvement summaries."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UndefinedMeasureError
from .graph import HeteroGraph, HeteroSchema
from .metapath import MetaPathSubgraph, max_homophily, measurable_homophily, path_label
from .sparse import row_normalize


def complexity_measure(representations: np.ndarray, classes: np.ndarray) -> float:
    """Davies-Bouldin style ratio of intra-class spread to centroid
    separation, averaged over classes; lower means cleaner class geometry."""
    reps = np.asarray(representations, dtype=np.float64)
    classes = np.asarray(classes)
    ids = np.unique(classes)
    if ids.shape[0] < 2:
        raise UndefinedMeasureError("complexity measure needs at least two classes")

    centroids = []
    spreads = []
    for c in ids:
        members = reps[classes == c]
        mu = members.mean(axis=0)
        centroids.append(mu)
        dists = np.linalg.norm(members - mu, axis=1)
        spreads.append(float(np.mean(dists**2) ** 0.5))
    centroids = np.stack(centroids)

    k = ids.shape[0]
    total = 0.0
    for i in range(k):
        worst = -np.inf
        for j in range(k):
            if i == j:
                continue
            sep = float(np.linalg.norm(centroids[i] - centroids[j]))
            if sep == 0.0:
                raise UndefinedMeasureError(
                    f"classes {ids[i]} and {ids[j]} have coincident centroids"
                )
            worst = max(worst, (spreads[i] + spreads[j]) / sep)
        total += worst
    return total / k


def mean_aggregation(sub: MetaPathSubgraph, g: HeteroGraph) -> np.ndarray:
    """One layer of neighbor mean aggregation of the target features over a
    meta-path subgraph (zero rows for isolated nodes)."""
    return row_normalize(sub.adjacency) @ np.asarray(g.features[g.target_type], dtype=np.float64)


@dataclass(frozen=True)
class PathHomophily:
    """One path's row; a ratio or coverage is None where no edge is countable."""

    label: str
    hr_before: float | None
    hr_after: float | None
    edges_before: int
    edges_after: int
    coverage: float | None


@dataclass(frozen=True)
class HomophilyReport:
    paths: tuple[PathHomophily, ...]
    mh_before: float
    mh_after: float

    def to_json_dict(self) -> dict:
        return {
            "paths": [
                {
                    "metapath": row.label,
                    "hr_before": row.hr_before,
                    "hr_after": row.hr_after,
                    "edges_before": row.edges_before,
                    "edges_after": row.edges_after,
                    "coverage": row.coverage,
                }
                for row in self.paths
            ],
            "mh_before": self.mh_before,
            "mh_after": self.mh_after,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def tsv_lines(self) -> list[str]:
        def cell(x: float | None) -> str:
            return "n/a" if x is None else f"{x:.6f}"

        lines = ["metapath\thr_before\thr_after\tedges_before\tedges_after\tcoverage"]
        for row in self.paths:
            lines.append(
                f"{row.label}\t{cell(row.hr_before)}\t{cell(row.hr_after)}"
                f"\t{row.edges_before}\t{row.edges_after}\t{cell(row.coverage)}"
            )
        lines.append(f"#mh\t{self.mh_before:.6f}\t{self.mh_after:.6f}")
        return lines


def homophily_report(
    schema: HeteroSchema,
    pairs: Sequence[tuple[MetaPathSubgraph, MetaPathSubgraph]],
    labels: np.ndarray,
) -> HomophilyReport:
    """Per-path homophily of each (before, after) subgraph pair, labelled by
    the before path under ``schema``. Coverage is the labeled fraction of the
    after subgraph's edges, the graph consumers train on. A subgraph with no
    countable edge reports None and is left out of mh, as in measure_paths;
    UndefinedRatioError only when no path is measurable."""
    rows, before, after = [], [], []
    for sub_before, sub_after in pairs:
        label = path_label(schema, sub_before.path)
        hb = measurable_homophily(sub_before, labels)
        ha = measurable_homophily(sub_after, labels)
        rows.append(PathHomophily(
            label, hb.ratio if hb else None, ha.ratio if ha else None,
            sub_before.adjacency.nnz, sub_after.adjacency.nnz, ha.coverage if ha else None,
        ))
        before.append((hb, label))
        after.append((ha, label))
    return HomophilyReport(
        paths=tuple(rows), mh_before=max_homophily(before)[0], mh_after=max_homophily(after)[0]
    )

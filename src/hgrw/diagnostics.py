"""Reporting utilities: homophily before/after tables, the intra/inter-class
complexity measure of representation sets, and relative-improvement summaries."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UndefinedMeasureError
from .graph import HeteroGraph, HeteroSchema
from .metapath import MetaPathSubgraph, max_homophily, path_homophily, path_label
from .sparse import row_normalize


@dataclass(frozen=True)
class ComplexityInputs:
    representations: np.ndarray
    classes: np.ndarray
    p: int = 2


def complexity_measure(inputs: ComplexityInputs, squared: bool = False) -> float:
    """Davies-Bouldin style ratio of intra-class spread to centroid
    separation, averaged over classes; lower means cleaner class geometry.

    With ``squared`` the per-class terms enter as squares (variance ratio
    form); the plain form sums the spreads linearly.
    """
    reps = np.asarray(inputs.representations, dtype=np.float64)
    classes = np.asarray(inputs.classes)
    ids = np.unique(classes)
    if ids.shape[0] < 2:
        raise UndefinedMeasureError("complexity measure needs at least two classes")
    p = inputs.p

    centroids = []
    spreads = []
    for c in ids:
        members = reps[classes == c]
        mu = members.mean(axis=0)
        centroids.append(mu)
        dists = np.linalg.norm(members - mu, ord=p, axis=1)
        spreads.append(float(np.mean(dists**p) ** (1.0 / p)))
    centroids = np.stack(centroids)

    k = ids.shape[0]
    total = 0.0
    for i in range(k):
        worst = -np.inf
        for j in range(k):
            if i == j:
                continue
            sep = float(np.linalg.norm(centroids[i] - centroids[j], ord=p))
            if sep == 0.0:
                raise UndefinedMeasureError(
                    f"classes {ids[i]} and {ids[j]} have coincident centroids"
                )
            if squared:
                ratio = (spreads[i] ** 2 + spreads[j] ** 2) / sep**2
            else:
                ratio = (spreads[i] + spreads[j]) / sep
            worst = max(worst, ratio)
        total += worst
    return total / k


def mean_aggregation(sub: MetaPathSubgraph, g: HeteroGraph) -> np.ndarray:
    """One layer of neighbor mean aggregation of the target features over a
    meta-path subgraph (zero rows for isolated nodes)."""
    return row_normalize(sub.adjacency) @ np.asarray(g.features[g.target_type], dtype=np.float64)


@dataclass(frozen=True)
class PathHomophily:
    label: str
    hr_before: float
    hr_after: float
    edges_before: int
    edges_after: int
    coverage: float


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
        lines = ["metapath\thr_before\thr_after\tedges_before\tedges_after\tcoverage"]
        for row in self.paths:
            lines.append(
                f"{row.label}\t{row.hr_before:.6f}\t{row.hr_after:.6f}"
                f"\t{row.edges_before}\t{row.edges_after}\t{row.coverage:.6f}"
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
    after subgraph's edges, the graph consumers train on."""
    rows, before, after = [], [], []
    for sub_before, sub_after in pairs:
        label = path_label(schema, sub_before.path)
        hb = path_homophily(sub_before, labels)
        ha = path_homophily(sub_after, labels)
        rows.append(PathHomophily(label, hb.ratio, ha.ratio, hb.edges, ha.edges, ha.coverage))
        before.append((hb, label))
        after.append((ha, label))
    return HomophilyReport(
        paths=tuple(rows), mh_before=max_homophily(before)[0], mh_after=max_homophily(after)[0]
    )

"""Supervision targets for the similarity learner.

For one meta-path subgraph this module propagates node attributes and one-hot
train labels through the row-normalized adjacency (k hops), centers every hop
by its column mean, and exposes pairwise products of hop cosines. Pairs are
evaluated lazily, one rows x cols window at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .graph import HeteroGraph
from .metapath import MetaPathSubgraph
from .sparse import row_normalize

ZERO_NORM_CUTOFF = 1e-12


@dataclass(frozen=True)
class TargetsConfig:
    num_hops: int = 1
    alpha: float = 0.6

    def __post_init__(self):
        if self.num_hops < 1:
            raise ValueError("num_hops must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")


@dataclass(frozen=True)
class DistributionFeatures:
    """Per-hop neighborhood attribute and label distributions plus the
    labeled-neighbor coverage used for masking."""

    attr: tuple[np.ndarray, ...]
    label: tuple[np.ndarray, ...]
    train_neighbor_frac: np.ndarray
    mask: np.ndarray

    @property
    def num_hops(self) -> int:
        return len(self.attr)


def neighborhood_distributions(
    sub: MetaPathSubgraph, g: HeteroGraph, cfg: TargetsConfig
) -> DistributionFeatures:
    n = g.target_count
    if sub.adjacency.n_rows != n or sub.adjacency.n_cols != n:
        raise DataError("subgraph is not over the graph's target type")
    walk = row_normalize(sub.adjacency)

    x = np.asarray(g.features[g.target_type], dtype=np.float64)
    y = np.zeros((n, g.num_classes))
    train_labeled = g.train_mask & (g.labels >= 0)
    y[np.flatnonzero(train_labeled), g.labels[train_labeled]] = 1.0

    attr, label = [], []
    cur_x, cur_y = x, y
    for _ in range(cfg.num_hops):
        cur_x = walk @ cur_x
        cur_y = walk @ cur_y
        attr.append(cur_x)
        label.append(cur_y)

    degree = np.diff(sub.adjacency.row_offsets).astype(np.float64)
    train_neighbors = sub.adjacency.to_scipy() @ train_labeled.astype(np.float64)
    frac = np.where(degree > 0, train_neighbors / np.where(degree > 0, degree, 1.0), 0.0)
    return DistributionFeatures(
        attr=tuple(attr),
        label=tuple(label),
        train_neighbor_frac=frac,
        mask=frac > cfg.alpha,
    )


def centered_unit_rows(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Center columns by their mean, then scale rows to unit norm; returns
    the unit rows and the centered norms.

    Rows whose centered norm falls under the zero cutoff become zero rows, so
    any dot product against them is exactly 0 (the degenerate-pair value).
    """
    centered = mat - mat.mean(axis=0)
    norms = np.linalg.norm(centered, axis=1)
    safe = np.where(norms < ZERO_NORM_CUTOFF, 1.0, norms)
    units = centered / safe[:, None]
    units[norms < ZERO_NORM_CUTOFF] = 0.0
    return units, norms


class SimilarityTargets:
    """Read-only handle over target similarities for one meta-path.

    A pair's target is the product over hops of centered cosine similarities
    between the two nodes' hop distributions. Block accessors evaluate
    rows x cols windows without materializing the full matrix.
    """

    def __init__(self, df: DistributionFeatures):
        self.df = df
        self._attr_units = tuple(centered_unit_rows(m)[0] for m in df.attr)
        self._label_units = tuple(centered_unit_rows(m)[0] for m in df.label)
        self.mask = df.mask.astype(np.float64)
        self.n = df.attr[0].shape[0]
        self.num_hops = df.num_hops
        self._full_cache: dict[str, np.ndarray] = {}
        self._arange = np.arange(self.n)

    def _is_full(self, rows: np.ndarray, cols: np.ndarray) -> bool:
        return (
            rows.size == self.n
            and cols.size == self.n
            and np.array_equal(rows, self._arange)
            and np.array_equal(cols, self._arange)
        )

    def _block(self, kind: str, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        units = self._attr_units if kind == "attr" else self._label_units
        # the full window recurs every epoch of a small-graph training run;
        # the cached result is no bigger than the block being returned
        if self._is_full(rows, cols):
            if kind not in self._full_cache:
                out = units[0] @ units[0].T
                for u in units[1:]:
                    out *= u @ u.T
                self._full_cache[kind] = out
            return self._full_cache[kind]
        out = units[0][rows] @ units[0][cols].T
        for u in units[1:]:
            out *= u[rows] @ u[cols].T
        return out

    def one_hop_factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The attribute units P, label units V and 0/1 mask m of a one-hop
        target, so that a window's targets are P[rows] @ P[cols].T and
        V[rows] @ V[cols].T, weighted by m[rows] m[cols]^T."""
        if self.num_hops != 1:
            raise ValueError(f"{self.num_hops}-hop targets have no one-hop factors")
        return self._attr_units[0], self._label_units[0], self.mask

    def attr_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self._block("attr", rows, cols)

    def label_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self._block("label", rows, cols)

    def mask_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        if self._is_full(rows, cols):
            if "mask" not in self._full_cache:
                self._full_cache["mask"] = np.outer(self.mask, self.mask)
            return self._full_cache["mask"]
        return np.outer(self.mask[rows], self.mask[cols])


def similarity_targets(
    sub: MetaPathSubgraph, g: HeteroGraph, cfg: TargetsConfig
) -> tuple[DistributionFeatures, SimilarityTargets]:
    df = neighborhood_distributions(sub, g, cfg)
    return df, SimilarityTargets(df)

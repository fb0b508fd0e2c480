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
    alpha: float = 0.6

    def __post_init__(self):
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


def neighborhood_distributions(
    sub: MetaPathSubgraph, g: HeteroGraph, cfg: TargetsConfig, num_hops: int
) -> DistributionFeatures:
    n = g.target_count
    if sub.adjacency.shape != (n, n):
        raise DataError("subgraph is not over the graph's target type")
    walk = row_normalize(sub.adjacency)

    x = np.asarray(g.features[g.target_type], dtype=np.float64)
    y = np.zeros((n, g.num_classes))
    train_labeled = g.train_mask & (g.labels >= 0)
    y[np.flatnonzero(train_labeled), g.labels[train_labeled]] = 1.0

    attr, label = [], []
    cur_x, cur_y = x, y
    for _ in range(num_hops):
        cur_x = walk @ cur_x
        cur_y = walk @ cur_y
        attr.append(cur_x)
        label.append(cur_y)

    degree = np.diff(sub.adjacency.indptr).astype(np.float64)
    train_neighbors = sub.adjacency @ train_labeled.astype(np.float64)
    frac = np.where(degree > 0, train_neighbors / np.where(degree > 0, degree, 1.0), 0.0)
    return DistributionFeatures(
        attr=tuple(attr),
        label=tuple(label),
        train_neighbor_frac=frac,
        mask=frac > cfg.alpha,
    )


def centered_unit_rows(mat: np.ndarray, mean: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the column mean ``mean`` from every row, then scale rows to
    unit norm; returns the unit rows and the centered norms.

    Rows whose centered norm falls under the zero cutoff become zero rows, so
    any dot product against them is exactly 0 (the degenerate-pair value).
    """
    centered = mat - mean
    norms = np.linalg.norm(centered, axis=1)
    safe = np.where(norms < ZERO_NORM_CUTOFF, 1.0, norms)
    units = centered / safe[:, None]
    units[norms < ZERO_NORM_CUTOFF] = 0.0
    return units, norms


def _fold(hops: list[np.ndarray]) -> np.ndarray:
    """The elementwise product of per-hop blocks, formed in the first one."""
    first, *rest = hops
    for h in rest:
        first *= h
    return first


class SimilarityTargets:
    """Read-only handle over target similarities for one meta-path.

    A pair's target is the product over hops of centered cosine similarities
    between the two nodes' hop distributions. Block accessors evaluate
    rows x cols windows without materializing the full matrix.
    """

    def __init__(self, df: DistributionFeatures):
        self._attr_units = tuple(centered_unit_rows(m, m.mean(axis=0))[0] for m in df.attr)
        self._label_units = tuple(centered_unit_rows(m, m.mean(axis=0))[0] for m in df.label)
        self.mask = df.mask.astype(np.float64)
        self.n = df.attr[0].shape[0]
        self.num_hops = len(df.attr)
        self._full: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def full_window(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The attribute, label and mask blocks of the window that pairs every
        node with every node, built on the first call and then kept: a
        full-window training run asks for them every epoch. Each hop's
        ``u @ u.T`` is a symmetric product, which numpy rounds apart from
        an indexed block's."""
        if self._full is None:
            # Both kinds' hop products exist before either is folded, so the
            # freed ones leave gaps between the kept blocks that the window's
            # temporaries reuse every epoch. Built back to back, the blocks
            # sent those temporaries to the top of the heap: a 2-hop demo500
            # train took ~890k minor page faults instead of ~590k.
            attr, label = [[u @ u.T for u in units] for units in (self._attr_units, self._label_units)]
            self._full = (_fold(attr), _fold(label), np.outer(self.mask, self.mask))
        return self._full

    def one_hop_factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The attribute units P, label units V and 0/1 mask m of a one-hop
        target, so that a window's targets are P[rows] @ P[cols].T and
        V[rows] @ V[cols].T, weighted by m[rows] m[cols]^T."""
        if self.num_hops != 1:
            raise ValueError(f"{self.num_hops}-hop targets have no one-hop factors")
        return self._attr_units[0], self._label_units[0], self.mask

    def attr_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return _fold([u[rows] @ u[cols].T for u in self._attr_units])

    def label_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return _fold([u[rows] @ u[cols].T for u in self._label_units])

    def mask_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return np.outer(self.mask[rows], self.mask[cols])


def similarity_targets(
    sub: MetaPathSubgraph, g: HeteroGraph, cfg: TargetsConfig, num_hops: int
) -> SimilarityTargets:
    return SimilarityTargets(neighborhood_distributions(sub, g, cfg, num_hops))

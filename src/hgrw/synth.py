"""Synthetic heterogeneous graphs with planted edge homophily.

Target nodes get balanced class labels and class-conditional Gaussian
features. Every relation is sampled edge by edge: with probability equal to
its homophily level the two endpoints share a class, otherwise they differ.
Self relations connect target nodes directly; each auxiliary type hangs off
the target type through a bipartite relation pair, with latent classes on the
auxiliary side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DataError
from .graph import TEST, TRAIN, VAL, HeteroGraph, HeteroSchema, NodeType, Relation
from .sparse import bool_csr

_MAX_ATTEMPT_FACTOR = 200


@dataclass(frozen=True)
class SynthConfig:
    target_nodes: int = 500
    num_classes: int = 2
    feature_dim: int = 8
    self_homophily: tuple[float, ...] = (0.3, 0.3)
    aux_sizes: tuple[int, ...] = ()
    aux_homophily: tuple[float, ...] = ()
    mean_degree: float = 8.0
    mean_separation: float = 2.0
    noise_scale: float = 1.0
    train_ratio: float = 0.5
    val_ratio: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.target_nodes < self.num_classes:
            raise ValueError("need at least one target node per class")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        for p in self.self_homophily + self.aux_homophily:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"homophily level {p} outside [0, 1]")
        if len(self.aux_sizes) != len(self.aux_homophily):
            raise ValueError("aux_sizes and aux_homophily must pair up")
        # written so that a NaN ratio fails the test
        if not (0 < self.train_ratio <= 1 and self.val_ratio >= 0 and self.train_ratio + self.val_ratio <= 1):
            raise ValueError("train/val ratios must fit in (0, 1]")
        if self.feature_dim < self.num_classes:
            raise ValueError("feature_dim must be >= num_classes (orthogonal class means)")
        if not math.isfinite(self.mean_separation):
            raise ValueError("mean_separation must be finite")
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise ValueError("noise_scale must be finite and >= 0")
        if any(size < 1 for size in self.aux_sizes):
            raise ValueError("every aux size must be >= 1")
        # a relation holds at most every distinct pair; sampling more never ends
        if not (math.isfinite(self.mean_degree) and self.mean_degree > 0):
            raise ValueError("mean_degree must be finite and positive")
        if self.self_homophily and self.mean_degree > self.target_nodes - 1:
            raise ValueError(f"mean_degree must be <= target_nodes - 1 = {self.target_nodes - 1}")
        if self.aux_sizes and self.mean_degree > min(self.aux_sizes):
            raise ValueError(f"mean_degree must be <= the smallest aux size {min(self.aux_sizes)}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.num_classes == 1 and any(p < 1.0 for p in self.self_homophily + self.aux_homophily):
            raise ValueError("a homophily level below 1 needs cross-class edges, so at least 2 classes")
        if self.self_homophily and self.self_edges == 0:
            raise ValueError("target_nodes * mean_degree / 2 rounds to 0 edges per self relation")
        if self.aux_sizes and self.aux_edges == 0:
            raise ValueError("target_nodes * mean_degree rounds to 0 edges per aux relation")
        # at level 1 (0) every edge joins a same-class (cross-class) pair; once
        # those run out the sampler only burns its attempt budget, which grows
        # with the edge count
        n, sizes = self.target_nodes, _class_sizes(self.target_nodes, self.num_classes)
        same = sum(k * (k - 1) // 2 for k in sizes)
        for p in self.self_homophily:
            _check_capacity("self", p, self.self_edges, same, n * (n - 1) // 2 - same)
        for size, p in zip(self.aux_sizes, self.aux_homophily):
            same = sum(k * m for k, m in zip(sizes, _class_sizes(size, self.num_classes)))
            _check_capacity("aux", p, self.aux_edges, same, n * size - same)

    @property
    def self_edges(self) -> int:
        """The edges of each self relation: mean_degree per target node, each
        edge counted at both of its ends."""
        return int(round(self.target_nodes * self.mean_degree / 2.0))

    @property
    def aux_edges(self) -> int:
        """The edges of each target-to-aux relation: mean_degree per target node."""
        return int(round(self.target_nodes * self.mean_degree))


def _class_sizes(n: int, c: int) -> list[int]:
    """The class sizes that _balanced_classes gives n nodes."""
    return [n // c + (k < n % c) for k in range(c)]


def _check_capacity(kind: str, level: float, edges: int, same: int, cross: int) -> None:
    """Reject a level of 1 (0) whose edge count exceeds the same-class
    (cross-class) pairs a relation can hold; other levels mix both."""
    capacity = {1.0: same, 0.0: cross}.get(level)
    if capacity is not None and edges > capacity:
        pairs = "same-class" if level == 1.0 else "cross-class"
        raise ValueError(
            f"homophily level {level} needs {edges} {pairs} pairs per {kind} relation, "
            f"but the classes hold only {capacity}"
        )


def _balanced_classes(rng: np.random.Generator, n: int, c: int) -> np.ndarray:
    return rng.permuted(np.arange(n, dtype=np.int64) % c)


def _class_features(
    rng: np.random.Generator, classes: np.ndarray, cfg: SynthConfig
) -> np.ndarray:
    """Class mean k sits at mean_separation * e_k; noise is isotropic with
    expected vector norm noise_scale, independent of the dimension."""
    d = cfg.feature_dim
    means = cfg.mean_separation * np.eye(d)[classes % d]
    noise = cfg.noise_scale * rng.standard_normal((classes.shape[0], d)) / np.sqrt(d)
    return (means + noise).astype(np.float32)


def _sample_pairs(
    rng: np.random.Generator,
    classes_a: np.ndarray,
    classes_b: np.ndarray,
    homophily: float,
    n_edges: int,
    bipartite: bool,
    relation_name: str,
) -> set[tuple[int, int]]:
    c = int(max(classes_a.max(), classes_b.max())) + 1
    by_class_b = [np.flatnonzero(classes_b == k) for k in range(c)]
    pairs: set[tuple[int, int]] = set()
    attempts = 0
    budget = _MAX_ATTEMPT_FACTOR * n_edges
    n_a = classes_a.shape[0]
    while len(pairs) < n_edges:
        attempts += 1
        if attempts > budget:
            raise DataError(
                f"relation {relation_name!r}: could not place {n_edges} edges "
                f"(homophily {homophily}, degree too high for the class sizes?)"
            )
        i = int(rng.integers(n_a))
        same = rng.random() < homophily
        if same:
            pool = by_class_b[int(classes_a[i])]
        else:
            k = int(classes_a[i])
            others = [by_class_b[q] for q in range(c) if q != k and by_class_b[q].size]
            if not others:
                raise DataError(f"relation {relation_name!r}: no cross-class partner available")
            pool = others[int(rng.integers(len(others)))]
        if pool.size == 0:
            continue
        j = int(pool[rng.integers(pool.size)])
        if not bipartite:
            if i == j:
                continue
            key = (min(i, j), max(i, j))
        else:
            key = (i, j)
        if key in pairs:
            continue
        pairs.add(key)
    return pairs


def _pair_array(pairs: set[tuple[int, int]]) -> np.ndarray:
    return np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)


def synth_generate(cfg: SynthConfig) -> HeteroGraph:
    rng = np.random.default_rng(cfg.seed)
    n = cfg.target_nodes
    labels = _balanced_classes(rng, n, cfg.num_classes)

    node_types = [NodeType(0, "node", n, cfg.feature_dim)]
    features = [_class_features(rng, labels, cfg)]
    relations: list[Relation] = []
    adjacency: list[sp.csr_matrix] = []

    for ridx, p in enumerate(cfg.self_homophily):
        name = f"r{ridx}"
        pairs = _sample_pairs(rng, labels, labels, p, cfg.self_edges, bipartite=False, relation_name=name)
        relations.append(Relation(len(relations), name, 0, 0))
        arr = _pair_array(pairs)  # both directions of every pair
        adjacency.append(bool_csr(arr.ravel(), arr[:, ::-1].ravel(), (n, n)))

    for aidx, (size, p) in enumerate(zip(cfg.aux_sizes, cfg.aux_homophily)):
        tname = f"aux{aidx}"
        tid = len(node_types)
        aux_classes = _balanced_classes(rng, size, cfg.num_classes)
        node_types.append(NodeType(tid, tname, size, cfg.feature_dim))
        features.append(_class_features(rng, aux_classes, cfg))
        pairs = _sample_pairs(
            rng, labels, aux_classes, p, cfg.aux_edges, bipartite=True, relation_name=f"to_{tname}"
        )
        arr = _pair_array(pairs)
        relations.append(Relation(len(relations), f"to_{tname}", 0, tid))
        adjacency.append(bool_csr(arr[:, 0], arr[:, 1], (n, size)))
        relations.append(Relation(len(relations), f"from_{tname}", tid, 0))
        adjacency.append(bool_csr(arr[:, 1], arr[:, 0], (size, n)))

    splits = np.full(n, TEST, dtype=np.int8)
    for k in range(cfg.num_classes):
        members = rng.permuted(np.flatnonzero(labels == k))
        n_train = int(round(cfg.train_ratio * members.size))
        n_val = int(round(cfg.val_ratio * members.size))
        splits[members[:n_train]] = TRAIN
        splits[members[n_train : n_train + n_val]] = VAL

    return HeteroGraph(
        schema=HeteroSchema(node_types=tuple(node_types), relations=tuple(relations)),
        adjacency=tuple(adjacency),
        features=tuple(features),
        labels=labels,
        splits=splits,
        target_type=0,
        num_classes=cfg.num_classes,
    )

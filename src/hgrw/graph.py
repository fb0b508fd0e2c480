"""Typed heterogeneous graph model: schema, per-relation adjacency, features,
labels over one target node type, and train/val/test splits."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .sparse import CsrMatrix

TRAIN, VAL, TEST, UNASSIGNED = 0, 1, 2, 3
SPLIT_NAMES = {TRAIN: "train", VAL: "val", TEST: "test", UNASSIGNED: "none"}
SPLIT_CODES = {v: k for k, v in SPLIT_NAMES.items()}


@dataclass(frozen=True)
class NodeType:
    type_id: int
    name: str
    node_count: int
    feature_dim: int


@dataclass(frozen=True)
class Relation:
    rel_id: int
    name: str
    src_type: int
    dst_type: int


@dataclass(frozen=True)
class HeteroSchema:
    node_types: tuple[NodeType, ...]
    relations: tuple[Relation, ...]

    def node_count(self, type_id: int) -> int:
        return self.node_types[type_id].node_count

    def relation_named(self, name: str) -> Relation:
        for r in self.relations:
            if r.name == name:
                return r
        raise KeyError(f"unknown relation {name!r}")

    def check(self) -> list[str]:
        bad: list[str] = []
        for i, t in enumerate(self.node_types):
            if t.type_id != i:
                bad.append(f"node type {t.name!r}: type_id {t.type_id} not dense (expected {i})")
            if t.node_count < 0 or t.feature_dim < 0:
                bad.append(f"node type {t.name!r}: negative count or feature_dim")
        names = [t.name for t in self.node_types]
        if len(set(names)) != len(names):
            bad.append("duplicate node type names")
        for i, r in enumerate(self.relations):
            if r.rel_id != i:
                bad.append(f"relation {r.name!r}: rel_id {r.rel_id} not dense (expected {i})")
            for side, tid in (("src", r.src_type), ("dst", r.dst_type)):
                if not 0 <= tid < len(self.node_types):
                    bad.append(f"relation {r.name!r}: {side}_type {tid} does not exist")
        rnames = [r.name for r in self.relations]
        if len(set(rnames)) != len(rnames):
            bad.append("duplicate relation names")
        return bad

    def content_hash(self) -> str:
        doc = {
            "node_types": [[t.name, t.node_count, t.feature_dim] for t in self.node_types],
            "relations": [[r.name, r.src_type, r.dst_type] for r in self.relations],
        }
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class HeteroGraph:
    schema: HeteroSchema
    adjacency: tuple[CsrMatrix, ...]
    features: tuple[np.ndarray, ...]
    labels: np.ndarray
    splits: np.ndarray
    target_type: int
    num_classes: int

    @property
    def target_count(self) -> int:
        return self.schema.node_count(self.target_type)

    @property
    def train_mask(self) -> np.ndarray:
        return self.splits == TRAIN


def validate_graph(g: HeteroGraph) -> list[str]:
    """Check every structural invariant; returns one message per violation.

    Reports rather than raises so callers can surface all problems at once.
    """
    bad = list(g.schema.check())
    if bad:
        return bad

    if not 0 <= g.target_type < len(g.schema.node_types):
        bad.append(f"target_type {g.target_type} does not exist")
        return bad
    if g.num_classes < 1:
        bad.append(f"num_classes {g.num_classes} < 1")

    if len(g.adjacency) != len(g.schema.relations):
        bad.append(f"adjacency count {len(g.adjacency)} != relation count {len(g.schema.relations)}")
    else:
        for r, a in zip(g.schema.relations, g.adjacency):
            expected = (g.schema.node_count(r.src_type), g.schema.node_count(r.dst_type))
            if (a.n_rows, a.n_cols) != expected:
                bad.append(f"relation {r.name!r}: adjacency shape {(a.n_rows, a.n_cols)} != {expected}")
                continue
            bad.extend(a.check(label=f"relation {r.name!r}"))

    if len(g.features) != len(g.schema.node_types):
        bad.append(f"feature matrix count {len(g.features)} != node type count")
    else:
        for t, x in zip(g.schema.node_types, g.features):
            if x.shape != (t.node_count, t.feature_dim):
                bad.append(f"features[{t.name!r}]: shape {x.shape} != {(t.node_count, t.feature_dim)}")
            elif not np.isfinite(x).all():
                row = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
                bad.append(f"features[{t.name!r}]: node {row} has a non-finite value")

    n_tgt = g.target_count
    if g.labels.shape != (n_tgt,):
        bad.append(f"labels: shape {g.labels.shape} != ({n_tgt},)")
        return bad
    if g.splits.shape != (n_tgt,):
        bad.append(f"splits: shape {g.splits.shape} != ({n_tgt},)")
        return bad

    labeled = g.labels >= 0
    out_of_range = np.flatnonzero((g.labels < -1) | (g.labels >= g.num_classes))
    for i in out_of_range[:10]:
        bad.append(f"labels: node {int(i)} has label {int(g.labels[i])} outside [0, {g.num_classes})")
    unknown_split = np.flatnonzero(~np.isin(g.splits, list(SPLIT_NAMES)))
    for i in unknown_split[:10]:
        bad.append(f"splits: node {int(i)} has unknown split code {int(g.splits[i])}")
    train_unlabeled = np.flatnonzero((g.splits == TRAIN) & ~labeled)
    for i in train_unlabeled[:10]:
        bad.append(f"splits: train node {int(i)} is unlabeled")
    return bad

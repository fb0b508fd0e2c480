"""Typed heterogeneous graph model: schema, per-relation adjacency, features,
labels over one target node type, and train/val/test splits."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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

    def content_hash(self) -> str:
        doc = {
            "node_types": [[t.name, t.node_count, t.feature_dim] for t in self.node_types],
            "relations": [[r.name, r.src_type, r.dst_type] for r in self.relations],
        }
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class HeteroGraph:
    schema: HeteroSchema
    adjacency: tuple[sp.csr_matrix, ...]
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
    """The problems of a graph that ``load_graph`` built, one message each:
    the facts a dataset's files can get wrong past its reading checks. The
    ids, shapes, split codes and canonical adjacency are built by loading
    itself, and a repeated node type name stops loading, so none is checked
    here.

    Reports rather than raises so callers can surface all problems at once.
    """
    bad: list[str] = []
    rnames = [r.name for r in g.schema.relations]
    if len(set(rnames)) != len(rnames):
        return ["duplicate relation names"]
    if g.num_classes < 1:
        bad.append(f"num_classes {g.num_classes} < 1")

    for t, x in zip(g.schema.node_types, g.features):
        if not np.isfinite(x).all():
            row = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
            bad.append(f"features[{t.name!r}]: node {row} has a non-finite value")

    out_of_range = np.flatnonzero((g.labels < -1) | (g.labels >= g.num_classes))
    for i in out_of_range[:10]:
        bad.append(f"labels: node {int(i)} has label {int(g.labels[i])} outside [0, {g.num_classes})")
    train_unlabeled = np.flatnonzero((g.splits == TRAIN) & (g.labels < 0))
    for i in train_unlabeled[:10]:
        bad.append(f"splits: train node {int(i)} is unlabeled")
    return bad

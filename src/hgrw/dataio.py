"""On-disk dataset format.

A dataset directory holds manifest.json plus one TSV edge list per relation,
one feature matrix per node type (written as a binary container; a TSV
matrix is also read, as an interchange input), labels.tsv and splits.tsv for
the target type.
Loading after saving reproduces the graph exactly: integer structure equal,
feature bytes identical.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import struct

import numpy as np

from .errors import DataError
from .graph import (
    SPLIT_CODES,
    SPLIT_NAMES,
    UNASSIGNED,
    HeteroGraph,
    HeteroSchema,
    NodeType,
    Relation,
    validate_graph,
)
from .sparse import CsrMatrix

FORMAT_VERSION = 1
FEATURE_MAGIC = b"HGF1"

# The type of every manifest field, at the top level and in each node type
# and relation row.
MANIFEST_FIELDS = {
    "node_types": list, "relations": list, "target_type": str,
    "num_classes": int, "label_file": str, "split_file": str,
}
NODE_TYPE_FIELDS = {"name": str, "count": int, "feature_dim": int, "feature_file": str}
RELATION_FIELDS = {"name": str, "src": str, "dst": str, "edge_file": str}


def _safe_name(name: str, taken: set[str]) -> str:
    base = re.sub(r"[^A-Za-z0-9_.-]", "_", name)
    out = base
    k = 1
    while out in taken:
        out = f"{base}_{k}"
        k += 1
    taken.add(out)
    return out


@contextlib.contextmanager
def atomic_write(filename: str, mode: str = "w", **kwargs):
    """Write through a sibling temporary file that replaces ``filename`` only
    once the block completes. If the block raises, the temporary is removed
    and whatever ``filename`` held before is left unchanged."""
    tmp = filename + ".tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, filename)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_features_bin(x: np.ndarray, filename: str) -> None:
    x = np.ascontiguousarray(x, dtype="<f4")
    with open(filename, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<II", x.shape[0], x.shape[1]))
        fh.write(x.tobytes())


def read_features_bin(filename: str) -> np.ndarray:
    with open(filename, "rb") as fh:
        magic = fh.read(4)
        if magic != FEATURE_MAGIC:
            raise DataError(f"{filename}: bad feature magic {magic!r}")
        rows, cols = struct.unpack("<II", fh.read(8))
        raw = fh.read(rows * cols * 4)
        if len(raw) != rows * cols * 4:
            raise DataError(f"{filename}: truncated feature data")
        return np.frombuffer(raw, dtype="<f4").reshape(rows, cols).copy()


def read_features_tsv(filename: str, cols: int) -> np.ndarray:
    rows = []
    with open(filename, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != cols:
                raise DataError(f"{filename}:{lineno}: expected {cols} values, got {len(parts)}")
            try:
                rows.append([float(v) for v in parts])
            except ValueError as exc:
                raise DataError(f"{filename}:{lineno}: {exc}") from None
    return np.asarray(rows, dtype=np.float32)


def _read_edges(filename: str, n_src: int, n_dst: int) -> CsrMatrix:
    if not os.path.exists(filename):
        raise DataError(f"missing edge file {filename}")
    src, dst = [], []
    with open(filename, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{filename}:{lineno}: expected 'src<TAB>dst'")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise DataError(f"{filename}:{lineno}: non-integer endpoint") from None
            if not 0 <= i < n_src:
                raise DataError(f"{filename}:{lineno}: src index {i} out of range [0, {n_src})")
            if not 0 <= j < n_dst:
                raise DataError(f"{filename}:{lineno}: dst index {j} out of range [0, {n_dst})")
            src.append(i)
            dst.append(j)
    return CsrMatrix.from_coo(np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), (n_src, n_dst))


def _write_edges(adj: CsrMatrix, filename: str) -> None:
    rows = adj.coo_rows()
    with open(filename, "w", encoding="utf-8") as fh:
        for i, j in zip(rows, adj.col_indices):
            fh.write(f"{i}\t{j}\n")


def save_graph(g: HeteroGraph, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    taken: set[str] = set()
    node_rows = []
    for t, x in zip(g.schema.node_types, g.features):
        fname = f"features_{_safe_name(t.name, taken)}.bin"
        write_features_bin(x, os.path.join(directory, fname))
        node_rows.append(
            {"name": t.name, "count": t.node_count, "feature_dim": t.feature_dim, "feature_file": fname}
        )
    rel_rows = []
    taken_edges: set[str] = set()
    for r, adj in zip(g.schema.relations, g.adjacency):
        fname = f"edges_{_safe_name(r.name, taken_edges)}.tsv"
        _write_edges(adj, os.path.join(directory, fname))
        rel_rows.append(
            {
                "name": r.name,
                "src": g.schema.node_types[r.src_type].name,
                "dst": g.schema.node_types[r.dst_type].name,
                "edge_file": fname,
            }
        )

    with open(os.path.join(directory, "labels.tsv"), "w", encoding="utf-8") as fh:
        for i in np.flatnonzero(g.labels >= 0):
            fh.write(f"{i}\t{int(g.labels[i])}\n")
    with open(os.path.join(directory, "splits.tsv"), "w", encoding="utf-8") as fh:
        for i in np.flatnonzero(g.splits != UNASSIGNED):
            fh.write(f"{i}\t{SPLIT_NAMES[int(g.splits[i])]}\n")

    manifest = {
        "format_version": FORMAT_VERSION,
        "node_types": node_rows,
        "relations": rel_rows,
        "target_type": g.schema.node_types[g.target_type].name,
        "num_classes": g.num_classes,
        "label_file": "labels.tsv",
        "split_file": "splits.tsv",
    }
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_fields(manifest_path: str, what: str, doc, types: dict[str, type]) -> None:
    """DataError unless ``doc`` is a JSON object holding each field of
    ``types`` with exactly that type (a bool is no int)."""
    if not isinstance(doc, dict):
        raise DataError(f"{manifest_path}: {what} is not a JSON object")
    for name, kind in types.items():
        if name not in doc:
            raise DataError(f"{manifest_path}: {what} lacks field {name!r}")
        if type(doc[name]) is not kind:
            raise DataError(
                f"{manifest_path}: {what} field {name!r} holds {doc[name]!r}, not {kind.__name__}"
            )


def load_graph(directory: str) -> HeteroGraph:
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.exists(manifest_path):
        raise DataError(f"missing manifest {manifest_path}")
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{manifest_path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise DataError(f"{manifest_path}: manifest is not a JSON object")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise DataError(f"{manifest_path}: unsupported format_version")
    _check_fields(manifest_path, "manifest", manifest, MANIFEST_FIELDS)
    for row in manifest["node_types"]:
        _check_fields(manifest_path, "node type", row, NODE_TYPE_FIELDS)
    for row in manifest["relations"]:
        _check_fields(manifest_path, "relation", row, RELATION_FIELDS)

    node_types, features = [], []
    name_to_id: dict[str, int] = {}
    for i, row in enumerate(manifest["node_types"]):
        node_types.append(
            NodeType(type_id=i, name=row["name"], node_count=row["count"], feature_dim=row["feature_dim"])
        )
        name_to_id[row["name"]] = i
        fpath = os.path.join(directory, row["feature_file"])
        if not os.path.exists(fpath):
            raise DataError(f"missing feature file {fpath}")
        x = (
            read_features_tsv(fpath, row["feature_dim"])
            if row["feature_file"].endswith(".tsv")
            else read_features_bin(fpath)
        )
        if x.shape != (row["count"], row["feature_dim"]):
            raise DataError(
                f"{fpath}: shape {x.shape} disagrees with manifest "
                f"({row['count']}, {row['feature_dim']})"
            )
        features.append(x)

    relations, adjacency = [], []
    for i, row in enumerate(manifest["relations"]):
        for side in ("src", "dst"):
            if row[side] not in name_to_id:
                raise DataError(f"relation {row['name']!r}: unknown {side} type {row[side]!r}")
        src, dst = name_to_id[row["src"]], name_to_id[row["dst"]]
        relations.append(Relation(rel_id=i, name=row["name"], src_type=src, dst_type=dst))
        adjacency.append(
            _read_edges(
                os.path.join(directory, row["edge_file"]),
                node_types[src].node_count,
                node_types[dst].node_count,
            )
        )

    if manifest["target_type"] not in name_to_id:
        raise DataError(f"unknown target type {manifest['target_type']!r}")
    target = name_to_id[manifest["target_type"]]
    n_tgt = node_types[target].node_count

    labels = np.full(n_tgt, -1, dtype=np.int64)
    label_path = os.path.join(directory, manifest["label_file"])
    if not os.path.exists(label_path):
        raise DataError(f"missing label file {label_path}")
    with open(label_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            try:
                node, lab = int(parts[0]), int(parts[1])
            except (ValueError, IndexError):
                raise DataError(f"{label_path}:{lineno}: expected 'node<TAB>label'") from None
            if not 0 <= node < n_tgt:
                raise DataError(f"{label_path}:{lineno}: node {node} out of range")
            labels[node] = lab

    splits = np.full(n_tgt, UNASSIGNED, dtype=np.int8)
    split_path = os.path.join(directory, manifest["split_file"])
    if not os.path.exists(split_path):
        raise DataError(f"missing split file {split_path}")
    with open(split_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2 or parts[1] not in SPLIT_CODES:
                raise DataError(f"{split_path}:{lineno}: expected 'node<TAB>train|val|test'")
            try:
                node = int(parts[0])
            except ValueError:
                raise DataError(f"{split_path}:{lineno}: non-integer node") from None
            if not 0 <= node < n_tgt:
                raise DataError(f"{split_path}:{lineno}: node {node} out of range")
            splits[node] = SPLIT_CODES[parts[1]]

    g = HeteroGraph(
        schema=HeteroSchema(node_types=tuple(node_types), relations=tuple(relations)),
        adjacency=tuple(adjacency),
        features=tuple(features),
        labels=labels,
        splits=splits,
        target_type=target,
        num_classes=manifest["num_classes"],
    )
    problems = validate_graph(g)
    if problems:
        raise DataError(f"{directory}: invalid dataset: " + "; ".join(problems[:5]))
    return g

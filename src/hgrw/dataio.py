"""On-disk dataset format.

A dataset directory holds manifest.json plus one TSV edge list per relation,
one feature matrix per node type (written as a binary container; a TSV
matrix is also read, as an interchange input), labels.tsv and splits.tsv for
the target type.
Loading after saving reproduces the graph exactly: integer structure equal,
feature bytes identical.

numpy's text parser reads an ASCII edge file or labels.tsv of in-range
decimal pairs, with a sign or blanks around a field, blank lines, CR or CRLF
line ends or no final newline. Only `1_000`, non-ASCII bytes, the separators
0x1c-0x1f, an empty file, malformed or out-of-range lines and a node labeled
twice reach the line-by-line reader, which takes what ``int()`` takes and
names the first malformed line.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import struct
import warnings

import numpy as np
import scipy.sparse as sp

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
from .sparse import bool_csr

FORMAT_VERSION = 1
FEATURE_MAGIC = b"HGF1"
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)
# Edges encoded per write: bounds the encoder's temporaries to about 2 MB.
_EDGES_PER_CHUNK = 1 << 14

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
    """The matrix of a binary feature file, from one read of it. A cut
    header, a cut body and bytes past the data are each a DataError."""
    with open(filename, "rb") as fh:
        data = fh.read()
    if data[:4] != FEATURE_MAGIC:
        raise DataError(f"{filename}: bad feature magic {data[:4]!r}")
    if len(data) < 12:
        raise DataError(f"{filename}: truncated feature header")
    rows, cols = struct.unpack_from("<II", data, 4)
    end = 12 + rows * cols * 4
    if len(data) < end:
        raise DataError(f"{filename}: truncated feature data")
    if len(data) > end:
        raise DataError(f"{filename}: {len(data) - end} trailing bytes after the data")
    return np.frombuffer(data, dtype="<f4", offset=12).reshape(rows, cols).copy()


def read_features_tsv(filename: str, cols: int) -> np.ndarray:
    rows = []
    with open(filename, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != cols:
                raise DataError(f"{filename}:{lineno}: expected {cols} values, got {len(parts)}")
            try:
                rows.append([float(v) for v in parts])
            except ValueError as exc:
                raise DataError(f"{filename}:{lineno}: {exc}") from None
    return np.asarray(rows, dtype=np.float32)


def _numpy_pairs(filename: str, high: tuple[int, int]) -> np.ndarray | None:
    """A file of tab-separated integer pairs, each column in [0, high), as
    numpy's parser reads it (m x 2, int64); None where a line reader must
    decide, including where that parser could misread the file: it takes the
    bytes 0x1c-0x1f for blanks and some non-ASCII letters for digits."""
    with open(filename, "rb") as fh:
        raw = fh.read()
    if raw.isascii() and not any(sep in raw for sep in b"\x1c\x1d\x1e\x1f"):
        with contextlib.suppress(Exception), warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = np.loadtxt(filename, dtype=np.int64, delimiter="\t", comments=None, ndmin=2,
                               encoding="utf-8")
            if pairs.shape[1] == 2 and not (pairs < 0).any() and not (pairs >= high).any():
                return pairs
    return None


def _read_edges(filename: str, n_src: int, n_dst: int) -> sp.csr_matrix:
    """The relation matrix of an edge file, by the line reader where numpy's parser may not decide."""
    if not os.path.isfile(filename):
        raise DataError(f"missing edge file {filename}")
    edges = _numpy_pairs(filename, (n_src, n_dst))
    return bool_csr(*(_read_edge_lines(filename, n_src, n_dst) if edges is None else edges.T), (n_src, n_dst))


def _read_edge_lines(filename: str, n_src: int, n_dst: int) -> tuple[np.ndarray, np.ndarray]:
    """The endpoints of an edge file of 'src<TAB>dst' lines, each field any
    text ``int`` accepts; blank lines are skipped. A malformed line or an
    endpoint out of range is a DataError naming its line."""
    src, dst = [], []
    with open(filename, encoding="utf-8", errors="replace") as fh:
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
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


def _encode_edges(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The bytes of one 'src<TAB>dst<LF>' line per edge (at least one),
    decimal endpoints."""
    fields = np.stack([src, dst], axis=1).ravel().astype(np.int64)
    widths = 1 + np.searchsorted(_POWERS_OF_TEN, fields, side="right")
    ends = np.cumsum(widths + 1) - 1  # the separator after each field
    out = np.empty(ends[-1] + 1, dtype=np.uint8)
    out[ends[0::2]] = ord("\t")
    out[ends[1::2]] = ord("\n")
    for k in range(int(widths.max())):  # the digit k places left of each separator
        live = widths > k
        out[ends[live] - 1 - k] = fields[live] // 10**k % 10 + ord("0")
    return out


def _write_edges(src: np.ndarray, dst: np.ndarray, filename: str) -> None:
    """One 'src<TAB>dst' line per pair of non-negative integers, in order."""
    with open(filename, "wb") as fh:
        for start in range(0, len(src), _EDGES_PER_CHUNK):
            stop = start + _EDGES_PER_CHUNK
            fh.write(_encode_edges(src[start:stop], dst[start:stop]))


def save_graph(g: HeteroGraph, directory: str) -> None:
    """Write ``g`` into ``directory``, overwriting a dataset already there.
    The old manifest goes first and the new one is written last, so a save
    that fails part way leaves a directory that does not load."""
    os.makedirs(directory, exist_ok=True)
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(directory, "manifest.json"))
    taken: set[str] = set()
    node_rows = []
    for t, x in zip(g.schema.node_types, g.features):
        fname = f"features_{_safe_name(t.name, taken)}.bin"
        write_features_bin(x, os.path.join(directory, fname))
        node_rows.append({"name": t.name, "count": t.node_count, "feature_dim": t.feature_dim,
                          "feature_file": fname})
    rel_rows = []
    taken_edges: set[str] = set()
    for r, adj in zip(g.schema.relations, g.adjacency):
        fname = f"edges_{_safe_name(r.name, taken_edges)}.tsv"
        coo = adj.tocoo()
        _write_edges(coo.row, coo.col, os.path.join(directory, fname))
        rel_rows.append({"name": r.name, "src": g.schema.node_types[r.src_type].name,
                         "dst": g.schema.node_types[r.dst_type].name, "edge_file": fname})

    labeled = np.flatnonzero(g.labels >= 0)
    _write_edges(labeled, g.labels[labeled], os.path.join(directory, "labels.tsv"))
    assigned = np.flatnonzero(g.splits != UNASSIGNED)
    text = _encode_edges(assigned, g.splits[assigned]).tobytes() if assigned.size else b""
    for code, name in SPLIT_NAMES.items():  # the second field of each line is its one-digit code
        text = text.replace(b"\t%d\n" % code, b"\t%s\n" % name.encode())
    with open(os.path.join(directory, "splits.tsv"), "wb") as fh:
        fh.write(text)

    manifest = {
        "format_version": FORMAT_VERSION,
        "node_types": node_rows,
        "relations": rel_rows,
        "target_type": g.schema.node_types[g.target_type].name,
        "num_classes": g.num_classes,
        "label_file": "labels.tsv",
        "split_file": "splits.tsv",
    }
    with atomic_write(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
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


def _read_node_table(filename: str, n_tgt: int, what: str, fill: int, dtype, parse) -> np.ndarray:
    """One value per target node from 'node<TAB>value' lines, ``fill`` for
    nodes not listed. A line without exactly two fields, a value ``parse``
    rejects, a node out of range or listed twice is a DataError naming it.
    numpy's parser reads an int table of distinct nodes and values >= 0."""
    if not os.path.isfile(filename):
        raise DataError(f"missing file {filename}")
    out = np.full(n_tgt, fill, dtype=dtype)
    pairs = _numpy_pairs(filename, (n_tgt, np.iinfo(np.int64).max)) if parse is int else None
    if pairs is not None and np.bincount(pairs[:, 0], minlength=1).max() <= 1:
        out[pairs[:, 0]] = pairs[:, 1]
        return out
    seen = np.zeros(n_tgt, dtype=bool)
    with open(filename, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                node_text, value_text = line.split("\t")
                node, value = int(node_text), parse(value_text)
                if not 0 <= node < n_tgt:
                    raise DataError(f"{filename}:{lineno}: node {node} out of range")
                if seen[node]:
                    raise DataError(f"{filename}:{lineno}: node {node} is listed twice")
                seen[node] = True
                out[node] = value  # a label past int64 overflows here
            except (ValueError, KeyError, OverflowError):
                raise DataError(f"{filename}:{lineno}: expected 'node<TAB>{what}'") from None
    return out


def load_graph(directory: str) -> HeteroGraph:
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise DataError(f"missing manifest {manifest_path}")
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
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
        if row["name"] in name_to_id:  # relation endpoints resolve through the name
            raise DataError(f"{directory}: invalid dataset: duplicate node type names")
        node_types.append(
            NodeType(type_id=i, name=row["name"], node_count=row["count"], feature_dim=row["feature_dim"])
        )
        name_to_id[row["name"]] = i
        fpath = os.path.join(directory, row["feature_file"])
        if not os.path.isfile(fpath):
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

    labels = _read_node_table(
        os.path.join(directory, manifest["label_file"]), n_tgt, "label", -1, np.int64, int
    )
    splits = _read_node_table(
        os.path.join(directory, manifest["split_file"]), n_tgt, "train|val|test", UNASSIGNED, np.int8,
        SPLIT_CODES.__getitem__,
    )

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

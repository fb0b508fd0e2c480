import numpy as np
import pytest

from hgrw.graph import TRAIN, UNASSIGNED, HeteroGraph, HeteroSchema, NodeType, Relation
from hgrw.sparse import CsrMatrix


def make_graph(
    node_counts: dict[str, int],
    relations: list[tuple[str, str, str, list[tuple[int, int]]]],
    target: str,
    labels: list[int],
    feature_dim: int = 3,
    num_classes: int | None = None,
    features: dict[str, np.ndarray] | None = None,
    train: list[int] | None = None,
    seed: int = 0,
) -> HeteroGraph:
    """Small-graph builder for tests: explicit edge lists, random features."""
    rng = np.random.default_rng(seed)
    names = list(node_counts)
    node_types = tuple(
        NodeType(i, name, node_counts[name], feature_dim) for i, name in enumerate(names)
    )
    tid = {name: i for i, name in enumerate(names)}
    rels = []
    adjacency = []
    for i, (name, src, dst, edges) in enumerate(relations):
        rels.append(Relation(i, name, tid[src], tid[dst]))
        if edges:
            arr = np.array(edges, dtype=np.int64)
            adjacency.append(
                CsrMatrix.from_coo(arr[:, 0], arr[:, 1], (node_counts[src], node_counts[dst]))
            )
        else:
            adjacency.append(CsrMatrix.empty(node_counts[src], node_counts[dst]))
    feats = []
    for name in names:
        if features and name in features:
            feats.append(np.asarray(features[name], dtype=np.float32))
        else:
            feats.append(rng.standard_normal((node_counts[name], feature_dim)).astype(np.float32))
    labels_arr = np.asarray(labels, dtype=np.int64)
    n_tgt = node_counts[target]
    assert labels_arr.shape == (n_tgt,)
    splits = np.full(n_tgt, UNASSIGNED, dtype=np.int8)
    if train is None:
        splits[labels_arr >= 0] = TRAIN
    else:
        splits[train] = TRAIN
    return HeteroGraph(
        schema=HeteroSchema(node_types=node_types, relations=tuple(rels)),
        adjacency=tuple(adjacency),
        features=tuple(feats),
        labels=labels_arr,
        splits=splits,
        target_type=tid[target],
        num_classes=num_classes if num_classes is not None else max(int(labels_arr.max()) + 1, 1),
    )


def symmetric_edges(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    return pairs + [(j, i) for i, j in pairs]


def random_hetero_graph(rng: np.random.Generator, max_nodes: int = 50) -> HeteroGraph:
    """Random 2-3 type graph whose schema always admits target-anchored paths:
    one self relation on the target plus a forward/backward pair per extra type."""
    n_types = int(rng.integers(2, 4))
    counts = {f"t{k}": int(rng.integers(3, max_nodes + 1)) for k in range(n_types)}
    relations = []
    density = float(rng.uniform(0.02, 0.15))

    def random_edges(n_src, n_dst, allow_empty=True):
        mask = rng.random((n_src, n_dst)) < density
        edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(mask))]
        if not edges and not allow_empty:
            edges = [(int(rng.integers(n_src)), int(rng.integers(n_dst)))]
        return edges

    relations.append(("self", "t0", "t0", random_edges(counts["t0"], counts["t0"], allow_empty=False)))
    for k in range(1, n_types):
        fwd = random_edges(counts["t0"], counts[f"t{k}"], allow_empty=False)
        relations.append((f"fwd{k}", "t0", f"t{k}", fwd))
        relations.append((f"bwd{k}", f"t{k}", "t0", [(j, i) for i, j in fwd]))

    n_tgt = counts["t0"]
    labels = rng.integers(0, 3, size=n_tgt)
    labels[rng.random(n_tgt) < 0.2] = -1
    return make_graph(counts, relations, "t0", labels.tolist(), num_classes=3, seed=int(rng.integers(2**31)))


@pytest.fixture
def star_graph() -> HeteroGraph:
    """Node 0 linked to 1, 2, 3; nodes 1 and 2 are train class 0, node 3 unlabeled."""
    edges = symmetric_edges([(0, 1), (0, 2), (0, 3)])
    return make_graph(
        {"node": 4},
        [("link", "node", "node", edges)],
        "node",
        labels=[1, 0, 0, -1],
        num_classes=2,
        train=[1, 2],
    )


def same_structure(a: CsrMatrix, b: CsrMatrix) -> bool:
    """Equal shapes and equal stored entries."""
    return (
        (a.n_rows, a.n_cols) == (b.n_rows, b.n_cols)
        and np.array_equal(a.row_offsets, b.row_offsets)
        and np.array_equal(a.col_indices, b.col_indices)
    )


def csr_identity(n: int) -> CsrMatrix:
    idx = np.arange(n, dtype=np.int64)
    return CsrMatrix(n, n, np.arange(n + 1, dtype=np.int64), idx)

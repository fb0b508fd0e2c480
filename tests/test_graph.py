import numpy as np

from hgrw.graph import validate_graph
from conftest import make_graph, symmetric_edges


def two_type_graph():
    return make_graph(
        {"paper": 3, "author": 2},
        [
            ("pa", "paper", "author", [(0, 0), (1, 0), (2, 1)]),
            ("ap", "author", "paper", [(0, 0), (0, 1), (1, 2)]),
        ],
        "paper",
        labels=[0, 1, 0],
        num_classes=2,
    )


def test_well_formed_graph_has_no_violations():
    assert validate_graph(two_type_graph()) == []


def test_label_equal_to_num_classes_is_reported():
    g = two_type_graph()
    labels = g.labels.copy()
    labels[1] = g.num_classes
    g = g.__class__(
        schema=g.schema,
        adjacency=g.adjacency,
        features=g.features,
        labels=labels,
        splits=g.splits,
        target_type=g.target_type,
        num_classes=g.num_classes,
    )
    problems = validate_graph(g)
    assert any(p.startswith("labels:") for p in problems)


def test_unlabeled_train_node_is_reported():
    g = make_graph(
        {"node": 3},
        [("link", "node", "node", symmetric_edges([(0, 1)]))],
        "node",
        labels=[0, -1, 1],
        num_classes=2,
        train=[0, 1],
    )
    problems = validate_graph(g)
    assert any("train node 1" in p for p in problems)


def test_schema_hash_tracks_content():
    g = two_type_graph()
    h1 = g.schema.content_hash()
    g2 = make_graph(
        {"paper": 3, "author": 2},
        [
            ("pa", "paper", "author", [(0, 0)]),
            ("ap", "author", "paper", [(0, 0)]),
        ],
        "paper",
        labels=[0, 1, 0],
        num_classes=2,
    )
    assert h1 == g2.schema.content_hash()  # hash covers schema, not edges
    g3 = make_graph(
        {"paper": 4, "author": 2},
        [
            ("pa", "paper", "author", [(0, 0)]),
            ("ap", "author", "paper", [(0, 0)]),
        ],
        "paper",
        labels=[0, 1, 0, 1],
        num_classes=2,
    )
    assert h1 != g3.schema.content_hash()

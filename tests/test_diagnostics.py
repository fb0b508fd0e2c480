import json

import numpy as np
import pytest

from hgrw.diagnostics import (
    ComplexityInputs,
    complexity_measure,
    homophily_report,
    mean_aggregation,
)
from hgrw.errors import NumericError, UndefinedMeasureError
from hgrw.metapath import MetaPath, compose_metapath

from conftest import make_graph, symmetric_edges
from oracles import ari, pairs_csr


class TestComplexityMeasure:
    def test_point_mass_classes_have_zero_complexity(self):
        reps = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0], [3.0, 0.0]])
        classes = np.array([0, 0, 1, 1])
        assert complexity_measure(ComplexityInputs(reps, classes)) == pytest.approx(0.0)

    def test_one_dimensional_hand_value(self):
        # classes {-1,+1} around -mu and around +mu: spreads 1, separation 2*mu
        mu = 2.5
        reps = np.array([[-mu - 1], [-mu + 1], [mu - 1], [mu + 1]])
        classes = np.array([0, 0, 1, 1])
        assert complexity_measure(ComplexityInputs(reps, classes)) == pytest.approx(1.0 / mu)
        assert complexity_measure(
            ComplexityInputs(reps, classes), squared=True
        ) == pytest.approx(2.0 / (2 * mu) ** 2)

    def test_identical_classes_raise(self):
        reps = np.array([[1.0, 2.0], [3.0, 0.0], [1.0, 2.0], [3.0, 0.0]])
        classes = np.array([0, 0, 1, 1])
        with pytest.raises(UndefinedMeasureError):
            complexity_measure(ComplexityInputs(reps, classes))

    def test_single_class_raises(self):
        with pytest.raises(UndefinedMeasureError):
            complexity_measure(ComplexityInputs(np.ones((3, 2)), np.zeros(3)))

    def test_rotation_and_translation_invariance(self):
        rng = np.random.default_rng(0)
        reps = rng.standard_normal((40, 3))
        classes = rng.integers(0, 3, size=40)
        base = complexity_measure(ComplexityInputs(reps, classes))
        theta = 0.7
        rot = np.array(
            [
                [np.cos(theta), -np.sin(theta), 0.0],
                [np.sin(theta), np.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        moved = reps @ rot.T + np.array([5.0, -2.0, 1.0])
        assert complexity_measure(ComplexityInputs(moved, classes)) == pytest.approx(base)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        reps = rng.standard_normal((30, 4))
        classes = rng.integers(0, 2, size=30)
        for squared in (False, True):
            base = complexity_measure(ComplexityInputs(reps, classes), squared=squared)
            scaled = complexity_measure(ComplexityInputs(3.7 * reps, classes), squared=squared)
            assert scaled == pytest.approx(base, abs=1e-9)

    def test_more_separation_means_lower_complexity(self):
        rng = np.random.default_rng(2)
        noise = rng.standard_normal((60, 2))
        classes = np.repeat([0, 1], 30)
        tight = noise + 10.0 * np.eye(2)[classes]
        loose = noise + 1.5 * np.eye(2)[classes]
        tight_c = complexity_measure(ComplexityInputs(tight, classes))
        loose_c = complexity_measure(ComplexityInputs(loose, classes))
        assert tight_c < loose_c


class TestAri:
    def test_identity_is_zero(self):
        assert ari(np.array([70.0, 80.0]), np.array([70.0, 80.0])) == 0.0

    def test_hand_value(self):
        assert ari(np.array([50.0]), np.array([55.0])) == pytest.approx(10.0)

    def test_linear_in_each_after_entry(self):
        rng = np.random.default_rng(3)
        before = rng.uniform(50, 90, size=6)
        after = rng.uniform(50, 90, size=6)
        base = ari(before, after)
        bumped = after.copy()
        bumped[2] += 1.0
        assert ari(before, bumped) - base == pytest.approx(100.0 / (6 * before[2]))

    def test_zero_baseline_raises(self):
        with pytest.raises(NumericError):
            ari(np.array([0.0, 50.0]), np.array([1.0, 51.0]))


def block_graph():
    # two 3-node cliques joined by one cross edge
    intra = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    cross = [(2, 3)]
    return make_graph(
        {"n": 6},
        [("r", "n", "n", symmetric_edges(intra + cross))],
        "n",
        labels=[0, 0, 0, 1, 1, 1],
    )


def unchanged_pairs(g):
    """The (before, after) pair of the one-relation path left as it is."""
    sub = compose_metapath(g, MetaPath((0,)))
    return [(sub, sub)]


class TestHomophilyReport:
    def test_identity_rewiring_reports_equal_columns(self):
        g = block_graph()
        report = homophily_report(g.schema, unchanged_pairs(g), g.labels)
        row = report.paths[0]
        assert row.hr_before == row.hr_after
        assert report.mh_before == report.mh_after

    def test_improved_subgraph_reflected(self):
        g = block_graph()
        # rewired replacement without the cross-block edge
        intra = symmetric_edges([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        sub = compose_metapath(g, MetaPath((0,)))
        cleaned = sub.__class__(path=sub.path, adjacency=pairs_csr(intra, (6, 6)))
        report = homophily_report(g.schema, [(sub, cleaned)], g.labels)
        row = report.paths[0]
        assert row.hr_after == 1.0 > row.hr_before
        assert row.edges_after == row.edges_before - 2
        assert report.mh_after == 1.0

    def test_json_and_tsv_shapes(self):
        g = block_graph()
        report = homophily_report(g.schema, unchanged_pairs(g), g.labels)
        doc = json.loads(report.to_json())
        assert set(doc) == {"paths", "mh_before", "mh_after"}
        assert set(doc["paths"][0]) == {
            "metapath",
            "hr_before",
            "hr_after",
            "edges_before",
            "edges_after",
            "coverage",
        }
        lines = report.tsv_lines()
        assert lines[0].startswith("metapath\t")
        assert lines[-1].startswith("#mh\t")

    def test_coverage_counts_labeled_edges(self):
        g = block_graph()
        labels = g.labels.copy()
        labels[5] = -1
        g = g.__class__(
            schema=g.schema,
            adjacency=g.adjacency,
            features=g.features,
            labels=labels,
            splits=g.splits,
            target_type=g.target_type,
            num_classes=g.num_classes,
        )
        report = homophily_report(g.schema, unchanged_pairs(g), g.labels)
        # node 5 is on two of the seven undirected edges
        assert report.paths[0].coverage == pytest.approx(5 / 7)


def test_mean_aggregation_matches_hand_star():
    g = make_graph(
        {"n": 3},
        [("r", "n", "n", symmetric_edges([(0, 1), (0, 2)]))],
        "n",
        labels=[0, 1, 1],
        feature_dim=2,
        features={"n": np.array([[2, 0], [4, 2], [0, 2]], dtype=np.float32)},
    )
    reps = mean_aggregation(compose_metapath(g, MetaPath((0,))), g)
    assert np.allclose(reps[0], [2.0, 2.0])
    assert np.allclose(reps[1], [2.0, 0.0])

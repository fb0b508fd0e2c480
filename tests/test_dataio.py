import json
import os

import numpy as np
import pytest

from hgrw.cli import main
from hgrw.dataio import atomic_write, load_graph, read_features_bin, save_graph, write_features_bin
from hgrw.errors import DataError
from hgrw.graph import TRAIN
from hgrw.metapath import MetaPath, compose_metapath, homophily_ratio
from hgrw.synth import SynthConfig, synth_generate

from conftest import make_graph, same_structure


def toy_graph():
    return make_graph(
        {"paper": 3, "author": 2},
        [
            ("pa", "paper", "author", [(0, 0), (1, 1), (2, 1)]),
            ("ap", "author", "paper", [(0, 0), (1, 1), (1, 2)]),
        ],
        "paper",
        labels=[0, 1, -1],
        num_classes=2,
    )


def use_tsv_features(directory, features) -> None:
    """Replace every binary feature file of a saved dataset with a TSV one."""
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    for row, x in zip(manifest["node_types"], features):
        row["feature_file"] = row["feature_file"].replace(".bin", ".tsv")
        with open(os.path.join(directory, row["feature_file"]), "w") as fh:
            fh.writelines("\t".join(f"{float(v):.9g}" for v in r) + "\n" for r in x)
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)


def graphs_equal(a, b) -> bool:
    if a.schema != b.schema or a.target_type != b.target_type or a.num_classes != b.num_classes:
        return False
    if not all(same_structure(x, y) for x, y in zip(a.adjacency, b.adjacency)):
        return False
    if not all(x.tobytes() == y.tobytes() for x, y in zip(a.features, b.features)):
        return False
    return np.array_equal(a.labels, b.labels) and np.array_equal(a.splits, b.splits)


class TestRoundTrip:
    def test_toy_graph_round_trips(self, tmp_path):
        g = toy_graph()
        save_graph(g, str(tmp_path / "ds"))
        assert graphs_equal(g, load_graph(str(tmp_path / "ds")))

    def test_round_trip_is_bit_identical_on_synth(self, tmp_path):
        g = synth_generate(SynthConfig(target_nodes=80, aux_sizes=(20,), aux_homophily=(0.5,), seed=3))
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        save_graph(g, d1)
        loaded = load_graph(d1)
        assert graphs_equal(g, loaded)
        save_graph(loaded, d2)
        for name in sorted(os.listdir(d1)):
            with open(os.path.join(d1, name), "rb") as f1, open(os.path.join(d2, name), "rb") as f2:
                assert f1.read() == f2.read(), name

    def test_tsv_feature_alternative(self, tmp_path):
        g = toy_graph()
        d = str(tmp_path / "ds")
        save_graph(g, d)
        use_tsv_features(d, g.features)
        assert graphs_equal(g, load_graph(d))

    def test_feature_bin_format(self, tmp_path):
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        fn = str(tmp_path / "f.bin")
        write_features_bin(x, fn)
        raw = open(fn, "rb").read()
        assert raw[:4] == b"HGF1"
        assert np.array_equal(read_features_bin(fn), x)


class TestLoadErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="manifest"):
            load_graph(str(tmp_path))

    def test_missing_edge_file(self, tmp_path):
        g = toy_graph()
        d = str(tmp_path / "ds")
        save_graph(g, d)
        os.remove(os.path.join(d, "edges_pa.tsv"))
        with pytest.raises(DataError, match="edges_pa"):
            load_graph(d)

    def test_out_of_range_edge_names_line(self, tmp_path):
        g = toy_graph()
        d = str(tmp_path / "ds")
        save_graph(g, d)
        with open(os.path.join(d, "edges_pa.tsv"), "a") as fh:
            fh.write("9\t0\n")
        with pytest.raises(DataError, match=r"edges_pa\.tsv:4"):
            load_graph(d)

    def test_malformed_edge_line(self, tmp_path):
        g = toy_graph()
        d = str(tmp_path / "ds")
        save_graph(g, d)
        with open(os.path.join(d, "edges_pa.tsv"), "a") as fh:
            fh.write("oops\n")
        with pytest.raises(DataError, match=":4"):
            load_graph(d)

    def test_bad_split_name(self, tmp_path):
        g = toy_graph()
        d = str(tmp_path / "ds")
        save_graph(g, d)
        with open(os.path.join(d, "splits.tsv"), "a") as fh:
            fh.write("2\tdev\n")
        with pytest.raises(DataError, match="splits"):
            load_graph(d)

    def test_non_finite_feature_rejected(self, tmp_path):
        g = toy_graph()
        d = str(tmp_path / "ds")
        save_graph(g, d)
        features = [x.copy() for x in g.features]
        features[0][1, 2] = np.nan
        use_tsv_features(d, features)
        with pytest.raises(DataError, match="node 1 has a non-finite value"):
            load_graph(d)
        assert main(["inspect", d]) == 2

    def test_feature_count_mismatch(self, tmp_path):
        g = toy_graph()
        d = str(tmp_path / "ds")
        save_graph(g, d)
        write_features_bin(np.zeros((5, 3), dtype=np.float32), os.path.join(d, "features_paper.bin"))
        with pytest.raises(DataError, match="disagrees"):
            load_graph(d)


class TestAtomicWrite:
    def test_replaces_target_and_leaves_no_temporary(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        with atomic_write(str(target)) as fh:
            fh.write("new")
            assert target.read_text() == "old"  # nothing visible until the block ends
        assert target.read_text() == "new"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failed_write_keeps_existing_file(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_write(str(target), "wb") as fh:
                fh.write(b"partial")
                raise RuntimeError("interrupted")
        assert target.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["out.bin"]


class TestSynth:
    def test_full_homophily(self):
        g = synth_generate(SynthConfig(target_nodes=100, self_homophily=(1.0,), seed=0))
        sub = compose_metapath(g, MetaPath((0,)))
        assert homophily_ratio(sub, g.labels) == 1.0

    def test_zero_homophily_two_classes(self):
        g = synth_generate(SynthConfig(target_nodes=100, self_homophily=(0.0,), seed=0))
        sub = compose_metapath(g, MetaPath((0,)))
        assert homophily_ratio(sub, g.labels) == 0.0

    def test_homophily_concentrates(self):
        g = synth_generate(SynthConfig(target_nodes=500, self_homophily=(0.3,), mean_degree=10.0, seed=4))
        sub = compose_metapath(g, MetaPath((0,)))
        assert abs(homophily_ratio(sub, g.labels) - 0.3) < 0.05

    def test_single_class_with_cross_edges_is_infeasible(self):
        with pytest.raises(DataError):
            synth_generate(SynthConfig(target_nodes=50, num_classes=1, self_homophily=(0.5,), seed=0))

    def test_stratified_split_ratios(self):
        g = synth_generate(SynthConfig(target_nodes=400, num_classes=4, train_ratio=0.5, seed=1))
        for k in range(4):
            members = g.labels == k
            frac = (g.splits[members] == TRAIN).mean()
            assert abs(frac - 0.5) < 0.02

    def test_balanced_labels(self):
        g = synth_generate(SynthConfig(target_nodes=300, num_classes=3, seed=5))
        counts = np.bincount(g.labels)
        assert counts.min() == counts.max() == 100

    def test_deterministic_by_seed(self):
        a = synth_generate(SynthConfig(seed=6))
        b = synth_generate(SynthConfig(seed=6))
        assert graphs_equal(a, b)

    def test_aux_relations_are_mutual_transposes(self):
        g = synth_generate(SynthConfig(target_nodes=50, aux_sizes=(12,), aux_homophily=(0.8,), seed=2))
        fwd = g.adjacency[g.schema.relation_named("to_aux0").rel_id]
        bwd = g.adjacency[g.schema.relation_named("from_aux0").rel_id]
        assert same_structure(fwd.transpose(), bwd)

    def test_degree_is_approximately_uniform(self):
        g = synth_generate(SynthConfig(target_nodes=400, mean_degree=10.0, self_homophily=(0.5,), seed=7))
        deg = np.diff(g.adjacency[0].row_offsets)
        assert abs(deg.mean() - 10.0) < 0.5
        assert deg.std() < 2 * np.sqrt(10.0)

import contextlib
import dataclasses
import json
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hgrw import dataio
from hgrw.cli import main
from hgrw.dataio import atomic_write, load_graph, read_features_bin, save_graph, write_features_bin
from hgrw.errors import DataError
from hgrw.graph import SPLIT_NAMES, TRAIN, UNASSIGNED
from hgrw.metapath import MetaPath, compose_metapath, path_homophily
from hgrw.sparse import bool_csr
from hgrw.synth import SynthConfig, synth_generate

from conftest import make_graph, same_structure
from oracles import write_edges_per_line


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


def edited_toy(tmp_path, name, edit):
    """A saved toy dataset whose file ``name`` holds ``edit(its bytes)``."""
    d = str(tmp_path / "ds")
    save_graph(toy_graph(), d)
    path = os.path.join(d, name)
    with open(path, "rb") as fh:
        raw = fh.read()
    with open(path, "wb") as fh:
        fh.write(edit(raw))
    return d


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
        raw = (tmp_path / "f.bin").read_bytes()
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

    def test_split_node_listed_twice(self, tmp_path):
        d = edited_toy(tmp_path, "splits.tsv", lambda raw: raw + b"0\ttest\n")
        with pytest.raises(DataError, match=r"splits\.tsv:3: node 0 is listed twice"):
            load_graph(d)
        assert main(["inspect", d]) == 2

    def test_label_line_with_a_third_field(self, tmp_path):
        d = edited_toy(tmp_path, "labels.tsv", lambda raw: raw.replace(b"1\t1\n", b"1\t1\tjunk\n"))
        with pytest.raises(DataError, match=r"labels\.tsv:2: expected 'node<TAB>label'"):
            load_graph(d)
        assert main(["inspect", d]) == 2

    def test_label_node_listed_twice(self, tmp_path):
        d = edited_toy(tmp_path, "labels.tsv", lambda raw: raw + b"1\t0\n")
        with pytest.raises(DataError, match=r"labels\.tsv:3: node 1 is listed twice"):
            load_graph(d)
        assert main(["inspect", d]) == 2

    def test_label_past_int64_is_malformed(self, tmp_path):
        d = edited_toy(tmp_path, "labels.tsv", lambda raw: raw + b"2\t" + b"9" * 20 + b"\n")
        with pytest.raises(DataError, match=r"labels\.tsv:3: expected"):
            load_graph(d)

    def test_feature_header_cut(self, tmp_path):
        d = edited_toy(tmp_path, "features_paper.bin", lambda raw: raw[:10])
        with pytest.raises(DataError, match="truncated feature header"):
            load_graph(d)
        assert main(["inspect", d]) == 2

    def test_feature_bytes_past_the_data(self, tmp_path):
        d = edited_toy(tmp_path, "features_paper.bin", lambda raw: raw + bytes(3))
        with pytest.raises(DataError, match="3 trailing bytes"):
            load_graph(d)
        assert main(["inspect", d]) == 2

    def test_invalid_utf8_edge_line(self, tmp_path):
        d = edited_toy(tmp_path, "edges_pa.tsv", lambda raw: raw + b"2\t\xff\n")
        with pytest.raises(DataError, match=r"edges_pa\.tsv:4"):
            load_graph(d)

    def test_invalid_utf8_manifest(self, tmp_path):
        d = edited_toy(tmp_path, "manifest.json", lambda raw: raw.replace(b'"paper"', b'"pap\xffer"', 1))
        with pytest.raises(DataError, match="manifest"):
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

    def test_interrupted_overwrite_does_not_load(self, tmp_path, monkeypatch):
        # A and B share a schema, so a mix of their edge files would parse
        cfg = SynthConfig(target_nodes=40, aux_sizes=(10,), aux_homophily=(0.5,))
        a = synth_generate(dataclasses.replace(cfg, seed=1))
        b = synth_generate(dataclasses.replace(cfg, seed=2))
        d = str(tmp_path / "ds")
        save_graph(a, d)
        write_edges = dataio._write_edges

        def fail_after_first(src, dst, filename):
            write_edges(src, dst, filename)
            raise OSError("disk full")

        monkeypatch.setattr(dataio, "_write_edges", fail_after_first)
        with pytest.raises(OSError):
            save_graph(b, d)
        with pytest.raises(DataError, match="manifest"):
            load_graph(d)
        assert main(["inspect", d]) == 2


def read_with_line_reader(filename, n_src, n_dst):
    return bool_csr(*dataio._read_edge_lines(filename, n_src, n_dst), (n_src, n_dst))


def load_outcome(read, filename, n_src, n_dst):
    """What ``read`` makes of an edge file: its matrix's arrays and dtypes, or
    its endpoint arrays and their dtypes, or the DataError text."""
    try:
        out = read(filename, n_src, n_dst)
    except DataError as exc:
        return str(exc)
    if isinstance(out, tuple):
        return [(a.tolist(), a.dtype) for a in out]
    return out.indptr.tolist(), out.indices.tolist(), out.indptr.dtype, out.indices.dtype, out.data.dtype


def endpoints_of(src, dst, shape):
    """Stands in for ``bool_csr`` where no matrix of ``shape`` can be built."""
    return src, dst


# Endpoints of 1 to 21 digits: at and past the row count 13, 18 digits and
# the int64 range.
ENDPOINT = st.one_of(st.integers(0, 14), st.integers(0, 10**20),
                     st.sampled_from([10**18 - 1, 10**18, 2**63 - 1, 2**63, 10**19 - 1]))
EDGE_LIST = st.lists(st.tuples(ENDPOINT, ENDPOINT), max_size=12)
# Edits towards what int() or numpy's parser also accepts or rejects: signs,
# blanks, underscores, CR, CRLF, empty lines and fields (setting a byte to
# nothing deletes it), leading zeros, comment, quote and float text, control
# bytes, the separators FS and US (blanks to numpy only), non-ASCII digits,
# blanks and a letter numpy reads as digits, bad UTF-8.
EDGE_FILE_EDIT = st.tuples(
    st.integers(0, 2**16),
    st.sampled_from(["insert", "set", "truncate"]),
    st.sampled_from([b"", b"0", b"9", b"\t", b"\n", b"\r", b"\r\n", b" ", b"+", b"-", b"_", b"\n\n",
                     b"\t\n", b"x", b"0" * 18, b"#", b'"', b".", b"e", b"inf", b"nan", b"1j", b"\x00",
                     b"\x0c", b"\x0b", b"\x1c", b"\x1f", "\u0661".encode(), "\xa0".encode(),
                     "\u01fe".encode(), b"\xff", b"\t1"]),
)


def edited_pairs_file(directory, name, pairs, edits) -> str:
    """A file of 'a<TAB>b' lines, one per pair, after each EDGE_FILE_EDIT in turn."""
    raw = b"".join(b"%d\t%d\n" % pair for pair in pairs)
    for pos, kind, payload in edits:
        at = pos % (len(raw) + 1)
        if kind == "insert":
            raw = raw[:at] + payload + raw[at:]
        elif kind == "set":
            raw = raw[:at] + payload + raw[at + 1 :]
        else:
            raw = raw[:at]
    filename = str(directory / name)
    with open(filename, "wb") as fh:
        fh.write(raw)
    return filename


class TestEdgeFiles:
    @given(edges=EDGE_LIST, edits=st.lists(EDGE_FILE_EDIT, max_size=3),
           n_src=st.sampled_from([13, 10**18]), n_dst=st.sampled_from([13, 10**18]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_fast_reader_agrees_with_line_reader(self, tmp_path_factory, edges, edits, n_src, n_dst):
        filename = edited_pairs_file(tmp_path_factory.mktemp("edges"), "edges.tsv", edges, edits)
        # at 10**18 rows no matrix can be built, so the endpoints are compared
        buildable = n_src == 13
        line_reader = mock.Mock(wraps=dataio._read_edge_lines)
        with mock.patch.object(dataio, "_read_edge_lines", line_reader), (
                contextlib.nullcontext() if buildable else mock.patch.object(dataio, "bool_csr", endpoints_of)):
            outcome = load_outcome(dataio._read_edges, filename, n_src, n_dst)
        reference = read_with_line_reader if buildable else dataio._read_edge_lines
        assert outcome == load_outcome(reference, filename, n_src, n_dst)
        if edges and not edits and all(i < n_src and j < n_dst for i, j in edges):
            line_reader.assert_not_called()  # a file in the saved form stays on numpy's parser

    @pytest.mark.parametrize("raw", [
        b"\x1c1\t2\n", b"1\x1f\t2\n", b"1\t2\x1d\n", "1\t\u01fe\n".encode(), "1\t2\u04fe\n".encode(),
        "\xa01\t2\n".encode(), "\u06611\t2\n".encode(), b"1_0\t2\n", b"1.0\t2\n", b"#1\t2\n", b"1\t2\n3\n",
        b"1\t2\r3\t4", b"+1\t-0\r\n",
    ], ids=["FS", "US", "GS", "letter U+01FE", "letter U+04FE", "NBSP", "Arabic digit", "underscore", "float",
            "comment", "short line", "CR", "signs"])
    def test_numpy_parser_pitfalls_load_as_the_line_reader_reads_them(self, tmp_path, raw):
        # numpy's parser takes 0x1c-0x1f for blanks and some non-ASCII letters
        # for digits (U+01FE for 462), where int() rejects both; the wide dst
        # range keeps such misread values in range
        (tmp_path / "edges.tsv").write_bytes(raw)
        filename = str(tmp_path / "edges.tsv")
        assert load_outcome(dataio._read_edges, filename, 13, 10**18) == load_outcome(
            read_with_line_reader, filename, 13, 10**18)

    @pytest.mark.parametrize("raw", [b"", b"\n\n", b"\r\n"], ids=["empty", "LF", "CRLF"])
    def test_file_without_edges_loads_as_no_edges(self, tmp_path, raw):
        filename = tmp_path / "edges.tsv"
        filename.write_bytes(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's "input contained no data" stays inside
            adj = dataio._read_edges(str(filename), 3, 4)
        assert adj.shape == (3, 4) and adj.nnz == 0

    @given(edges=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 10**18 - 1)), max_size=12),
           chunk=st.sampled_from([1, 2, 5, dataio._EDGES_PER_CHUNK]))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_encoder_writes_the_per_line_bytes(self, tmp_path_factory, edges, chunk):
        arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
        adj = bool_csr(arr[:, 0], arr[:, 1], (13, 10**18))
        d = tmp_path_factory.mktemp("enc")
        coo = adj.tocoo()
        with mock.patch.object(dataio, "_EDGES_PER_CHUNK", chunk):
            dataio._write_edges(coo.row, coo.col, str(d / "fast.tsv"))
        write_edges_per_line(adj, str(d / "lines.tsv"))
        assert (d / "fast.tsv").read_bytes() == (d / "lines.tsv").read_bytes()
        if edges:  # wide sources too, which no matrix of this shape holds
            wide = arr[:, ::-1]
            expected = b"".join(b"%d\t%d\n" % (i, j) for i, j in wide.tolist())
            assert dataio._encode_edges(wide[:, 0], wide[:, 1]).tobytes() == expected

    def test_saved_synth_dataset_loads_on_the_fast_path(self, tmp_path, monkeypatch):
        g = synth_generate(SynthConfig(target_nodes=300, aux_sizes=(40,), aux_homophily=(0.5,), seed=8))
        save_graph(g, str(tmp_path / "ds"))

        def line_reader(*args):
            raise AssertionError("a saved edge file went through the line reader")

        parsed, numpy_parse = [], dataio._numpy_pairs

        def numpy_pairs(filename, high):
            pairs = numpy_parse(filename, high)
            parsed.append((os.path.basename(filename), pairs is not None))
            return pairs

        monkeypatch.setattr(dataio, "_read_edge_lines", line_reader)
        monkeypatch.setattr(dataio, "_numpy_pairs", numpy_pairs)
        assert graphs_equal(g, load_graph(str(tmp_path / "ds")))
        assert ("labels.tsv", True) in parsed and all(ok for _, ok in parsed)
        labeled = np.flatnonzero(g.labels >= 0)
        assert (tmp_path / "ds" / "labels.tsv").read_text() == "".join(
            f"{i}\t{g.labels[i]}\n" for i in labeled)


@pytest.mark.parametrize("codes", [[], [UNASSIGNED] * 4, [0, 3, 1, 2, 2, 3, 0, 1, 3, 0, 2, 1]],
                         ids=["no nodes", "none assigned", "mixed"])
def test_splits_file_holds_the_per_line_text(tmp_path, codes):
    g = dataclasses.replace(toy_graph(), splits=np.array(codes, dtype=np.int8))
    save_graph(g, str(tmp_path / "ds"))
    assert (tmp_path / "ds" / "splits.tsv").read_bytes() == "".join(
        f"{i}\t{SPLIT_NAMES[c]}\n" for i, c in enumerate(codes) if c != UNASSIGNED).encode()


class TestLabelFiles:
    # labels past the int64 range, at its ends and negative, beside in-range ones
    LABELS = st.lists(st.tuples(st.integers(0, 14), st.one_of(
        st.integers(-3, 14), st.sampled_from([2**63 - 2, 2**63 - 1, 2**63, -(2**63), 10**19]))), max_size=12)

    @given(labels=LABELS, edits=st.lists(EDGE_FILE_EDIT, max_size=3))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_fast_reader_agrees_with_line_reader(self, tmp_path_factory, labels, edits):
        filename = edited_pairs_file(tmp_path_factory.mktemp("labels"), "labels.tsv", labels, edits)

        def outcome():
            try:
                return dataio._read_node_table(filename, 13, "label", -1, np.int64, int).tolist()
            except DataError as exc:
                return str(exc)

        fast = outcome()
        with mock.patch.object(dataio, "_numpy_pairs", return_value=None):
            assert fast == outcome()


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
        assert path_homophily(sub, g.labels).ratio == 1.0

    def test_zero_homophily_two_classes(self):
        g = synth_generate(SynthConfig(target_nodes=100, self_homophily=(0.0,), seed=0))
        sub = compose_metapath(g, MetaPath((0,)))
        assert path_homophily(sub, g.labels).ratio == 0.0

    def test_homophily_concentrates(self):
        g = synth_generate(SynthConfig(target_nodes=500, self_homophily=(0.3,), mean_degree=10.0, seed=4))
        sub = compose_metapath(g, MetaPath((0,)))
        assert abs(path_homophily(sub, g.labels).ratio - 0.3) < 0.05

    def test_single_class_with_cross_edges_is_infeasible(self):
        with pytest.raises(ValueError, match="at least 2 classes"):
            SynthConfig(target_nodes=50, num_classes=1, self_homophily=(0.5,), seed=0)
        with pytest.raises(ValueError, match="at least 2 classes"):
            SynthConfig(num_classes=1, self_homophily=(1.0,), aux_sizes=(10,), aux_homophily=(0.5,))
        g = synth_generate(SynthConfig(target_nodes=50, num_classes=1, self_homophily=(1.0,), seed=0))
        assert g.adjacency[0].nnz == 2 * SynthConfig(target_nodes=50).self_edges

    @pytest.mark.parametrize("fields", [
        dict(target_nodes=500, mean_degree=0.001),  # 0.25 edges per self relation
        dict(target_nodes=10, mean_degree=0.04, self_homophily=(), aux_sizes=(5,), aux_homophily=(0.5,)),
    ])
    def test_relation_without_edges_is_rejected(self, fields):
        with pytest.raises(ValueError, match="rounds to 0 edges"):
            SynthConfig(**fields)

    def test_a_tiny_mean_degree_still_draws_edges(self):
        g = synth_generate(SynthConfig(target_nodes=500, mean_degree=0.004, aux_sizes=(3,),
                                       aux_homophily=(0.5,), seed=1))
        assert [adj.nnz for adj in g.adjacency] == [2, 2, 2, 2]

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
        assert same_structure(fwd.T.tocsr(), bwd)

    def test_degree_is_approximately_uniform(self):
        g = synth_generate(SynthConfig(target_nodes=400, mean_degree=10.0, self_homophily=(0.5,), seed=7))
        deg = np.diff(g.adjacency[0].indptr)
        assert abs(deg.mean() - 10.0) < 0.5
        assert deg.std() < 2 * np.sqrt(10.0)

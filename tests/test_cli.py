import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hgrw.cli import _config, build_parser, main
from hgrw.dataio import load_graph, save_graph
from hgrw.learner import LearnerConfig
from hgrw.metapath import compose_metapath, enumerate_metapaths, path_label
from hgrw.rewire import RewireConfig
from hgrw.synth import SynthConfig
from hgrw.targets import TargetsConfig
from conftest import make_graph, symmetric_edges
from test_dataio import graphs_equal


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("cli") / "ds")
    rc = main(
        [
            "synth", "--out", d,
            "--target-nodes", "120", "--classes", "2",
            "--p-self", "0.3", "--p-self", "0.3",
            "--mean-degree", "6", "--seed", "3",
        ]
    )
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def trained_model(dataset, tmp_path_factory):
    model = str(tmp_path_factory.mktemp("cli") / "model.msl")
    rc = main(
        [
            "train", dataset, "--out", model,
            "--max-path-len", "1", "--hidden-dim", "8",
            "--epochs-attr", "25", "--epochs-label", "5", "--seed", "3",
        ]
    )
    assert rc == 0
    return model


class TestInspect:
    def test_prints_table_and_mh(self, dataset, capsys):
        assert main(["inspect", dataset, "--max-path-len", "2"]) == 0
        out = capsys.readouterr().out
        assert "metapath" in out and "mh " in out

    def test_path_whitelist(self, dataset, capsys):
        assert main(["inspect", dataset, "--path", "r0", "--path", "r0,r1"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 3

    def test_unknown_relation_is_data_error(self, dataset):
        assert main(["inspect", dataset, "--path", "nope"]) == 2


class TestExitCodes:
    def test_usage_error(self):
        assert main(["train"]) == 1

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_missing_dataset_is_data_error(self):
        assert main(["inspect", "/nonexistent/dataset"]) == 2

    def test_numeric_failure(self, tmp_path, capsys):
        g = make_graph(
            {"n": 4},
            [("r", "n", "n", symmetric_edges([(0, 1)]))],
            "n",
            labels=[0, -1, -1, -1],
            num_classes=2,
        )
        # the lone edge has an unlabeled endpoint: no measurable meta-path
        d = str(tmp_path / "ds")
        save_graph(g, d)
        assert main(["inspect", d, "--max-path-len", "1"]) == 3
        assert "numeric" in capsys.readouterr().err


BAD_FLAGS = [
    ("synth", ["--train-ratio", "2"]),
    ("synth", ["--val-ratio", "nan"]),
    ("synth", ["--classes", "0"]),
    ("synth", ["--p-self", "1.5"]),
    ("synth", ["--aux-size", "10"]),
    ("synth", ["--feature-dim", "1"]),
    ("synth", ["--target-nodes", "1"]),
    ("synth", ["--seed", "-1"]),
    ("synth", ["--mu", "nan"]),
    ("synth", ["--sigma", "nan"]),
    ("synth", ["--sigma", "-1"]),
    ("synth", ["--mean-degree", "-1"]),
    ("synth", ["--mean-degree", "0"]),
    ("synth", ["--mean-degree", "inf"]),
    ("synth", ["--target-nodes", "10", "--mean-degree", "1e9"]),
    ("synth", ["--aux-size", "5", "--p-aux", "0.5"]),
    ("synth", ["--aux-size", "0", "--p-aux", "0.5"]),
    ("train", ["--epochs-attr", "0"]),
    ("train", ["--k1", "0"]),
    ("train", ["--alpha", "2"]),
    ("train", ["--seed", "-1"]),
    ("inspect", ["--max-path-len", "0"]),
    ("train", ["--max-path-len", "0"]),
    ("diag", ["--max-path-len", "0"]),
    ("rewire", ["--edge-budget", "-1"]),
    ("rewire", ["--block-size", "0"]),
    ("rewire", ["--epsilon", "nan"]),
    ("rewire", ["--gamma", "nan"]),
]


@pytest.mark.parametrize("command,flags", BAD_FLAGS, ids=[" ".join([c, *f]) for c, f in BAD_FLAGS])
def test_rejected_flag_value_is_usage_error(command, flags, dataset, trained_model, tmp_path, capsys):
    out = str(tmp_path / "out")
    args = {
        "inspect": [dataset],
        "synth": ["--out", out],
        "train": [dataset, "--out", out],
        "rewire": [dataset, "--model", trained_model, "--out", out],
        "diag": [dataset, "--report", out],
    }[command]
    assert main([command, *args, *flags]) == 1
    assert capsys.readouterr().err.startswith("hgrw: usage error:")
    assert not os.path.exists(out)


# each config dataclass with a command that builds it and that command's
# required arguments
COMMAND_CONFIGS = [
    ("synth", SynthConfig, ["--out", "ds"]),
    ("train", TargetsConfig, ["ds", "--out", "m.msl"]),
    ("train", LearnerConfig, ["ds", "--out", "m.msl"]),
    ("rewire", RewireConfig, ["ds", "--model", "m.msl", "--out", "rw"]),
]


@pytest.mark.parametrize(
    "command,cls,required", COMMAND_CONFIGS, ids=[cls.__name__ for _, cls, _ in COMMAND_CONFIGS]
)
def test_each_config_field_is_one_flag(command, cls, required):
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = [a.dest for a in subparsers.choices[command]._actions if a.option_strings]
    for f in dataclasses.fields(cls):
        assert dests.count(f.name) == 1, f"{command}: {f.name}"
    # with no optional flag given, the dataclass defaults apply
    assert _config(cls, build_parser().parse_args([command, *required])) == cls()


def _manifest_edit(*keys, value=None):
    """A manifest edit that stores ``value`` at the path ``keys``, or drops
    the field there when no value is given."""

    def edit(manifest):
        doc = manifest
        for key in keys[:-1]:
            doc = doc[key]
        if value is None:
            del doc[keys[-1]]
        else:
            doc[keys[-1]] = value
        return manifest

    return edit


BAD_MANIFESTS = {
    "missing node_types": _manifest_edit("node_types"),
    "missing relations": _manifest_edit("relations"),
    "missing target_type": _manifest_edit("target_type"),
    "missing feature_file": _manifest_edit("node_types", 0, "feature_file"),
    "text num_classes": _manifest_edit("num_classes", value="x"),
    "text count": _manifest_edit("node_types", 0, "count", value="120"),
    "list manifest": lambda manifest: [manifest],
}


@pytest.mark.parametrize("case", list(BAD_MANIFESTS))
def test_malformed_manifest_is_data_error(case, dataset, tmp_path, capsys):
    d = str(tmp_path / "ds")
    shutil.copytree(dataset, d)
    path = os.path.join(d, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(BAD_MANIFESTS[case](manifest), fh)
    assert main(["inspect", d]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hgrw: data error:") and err.count("\n") == 1
    assert "manifest.json" in err


def _edit_header(edit):
    """A checkpoint corruption that rewrites the JSON header with ``edit``."""

    def corrupt(raw: bytes) -> bytes:
        hlen = int.from_bytes(raw[4:8], "little")
        header = json.loads(raw[8 : 8 + hlen])
        edit(header)
        blob = json.dumps(header).encode()
        return raw[:4] + len(blob).to_bytes(4, "little") + blob + raw[8 + hlen :]

    return corrupt


def _edit_params(edit):
    """A checkpoint corruption that rewrites the parameter vector with ``edit``."""

    def corrupt(raw: bytes) -> bytes:
        start = 8 + int.from_bytes(raw[4:8], "little")
        params = np.frombuffer(raw[start:], dtype="<f8").copy()
        edit(params)
        return raw[:start] + params.tobytes()

    return corrupt


BAD_CHECKPOINTS = {
    "unknown config key": _edit_header(lambda h: h["config"].update(bogus=1)),
    "missing paths": _edit_header(lambda h: h.pop("paths")),
    "missing config field": _edit_header(lambda h: h["config"].pop("concat_distribution_features")),
    "config value of the wrong type": _edit_header(lambda h: h["config"].update(seed="a")),
    "magic only": lambda raw: raw[:4],
    "malformed header json": lambda raw: raw[:8] + b"[" + raw[9:],
    "trailing bytes": lambda raw: raw + bytes(16),
    "truncated parameters": lambda raw: raw[:-8],
    "huge hidden dim": _edit_header(lambda h: h["config"].update(hidden_dim=10**12)),
    "huge hop count": _edit_header(lambda h: h["config"].update(num_hops=10**12)),
    "all parameters nan": _edit_params(lambda p: p.fill(np.nan)),
    "one infinite parameter": _edit_params(lambda p: p.__setitem__(0, np.inf)),
}


@pytest.mark.parametrize("case", list(BAD_CHECKPOINTS))
def test_malformed_checkpoint_is_data_error(case, dataset, trained_model, tmp_path, capsys):
    bad = tmp_path / "bad.msl"
    with open(trained_model, "rb") as fh:
        bad.write_bytes(BAD_CHECKPOINTS[case](fh.read()))
    assert main(["rewire", dataset, "--model", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("hgrw: data error:")


@pytest.fixture(scope="module")
def concat_model(dataset, tmp_path_factory):
    model = str(tmp_path_factory.mktemp("cli") / "concat.msl")
    assert main(["train", dataset, "--out", model, "--max-path-len", "1", "--hidden-dim", "8",
                 "--num-hops", "2", "--concat-dist", "--epochs-attr", "3", "--epochs-label", "1",
                 "--seed", "3"]) == 0
    return model


TARGETS_METADATA = {
    "removed": lambda meta: meta.pop("targets"),
    "garbled": lambda meta: meta.update(targets={"alpha": "x", "num_hops": True}),
    "one hop": lambda meta: meta["targets"].update(num_hops=1),
}


@pytest.mark.parametrize("case", list(TARGETS_METADATA))
def test_concat_checkpoint_ignores_targets_metadata(case, dataset, concat_model, tmp_path):
    # a concat-mode model rebuilds its distribution features from its own
    # hop count, so the targets metadata that train records is never read
    edited = tmp_path / "edited.msl"
    edit = _edit_header(lambda header: TARGETS_METADATA[case](header["meta"]))
    edited.write_bytes(edit(Path(concat_model).read_bytes()))
    intact, out = tmp_path / "intact", tmp_path / "out"
    assert main(["rewire", dataset, "--model", concat_model, "--out", str(intact)]) == 0
    assert main(["rewire", dataset, "--model", str(edited), "--out", str(out)]) == 0
    names = sorted(os.listdir(intact))
    assert names == sorted(os.listdir(out))
    for name in names:
        assert (intact / name).read_bytes() == (out / name).read_bytes(), name


class TestTrain:
    def test_writes_checkpoint_and_history(self, trained_model):
        assert os.path.exists(trained_model)
        csv = trained_model + ".loss.csv"
        lines = Path(csv).read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[:2] == ["epoch", "phase"]
        assert any(c.startswith("loss:") for c in header)
        assert any(c.startswith("lambda:") for c in header)
        assert len(lines) == 1 + 30

    def test_fixed_seed_reproduces_csv(self, dataset, tmp_path):
        out1, out2 = str(tmp_path / "m1.msl"), str(tmp_path / "m2.msl")
        args = ["--max-path-len", "1", "--hidden-dim", "8",
                "--epochs-attr", "6", "--epochs-label", "2", "--seed", "11"]
        assert main(["train", dataset, "--out", out1] + args) == 0
        assert main(["train", dataset, "--out", out2] + args) == 0
        assert Path(out1 + ".loss.csv").read_bytes() == Path(out2 + ".loss.csv").read_bytes()

    def test_overflowing_learning_rate_is_numeric_failure(self, dataset, tmp_path, capsys, recwarn):
        out = str(tmp_path / "m.msl")
        assert main(["train", dataset, "--out", out, "--max-path-len", "1",
                     "--epochs-attr", "3", "--epochs-label", "1", "--lr", "1e300"]) == 3
        assert "non-finite loss" in capsys.readouterr().err
        assert not os.path.exists(out)
        # the exit message explains the failure; numpy adds no warnings
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_no_paths_is_data_error(self, tmp_path):
        g = make_graph(
            {"paper": 3, "author": 2},
            [("pa", "paper", "author", [(0, 0)])],
            "paper",
            labels=[0, 1, 0],
        )
        d = str(tmp_path / "ds")
        save_graph(g, d)
        assert main(["train", d, "--out", str(tmp_path / "m.msl"), "--max-path-len", "1"]) == 2


@pytest.mark.parametrize("flags", [
    ["--num-hops", "2"],
    ["--num-hops", "2", "--concat-dist"],
    ["--concat-dist"],
])
def test_pipeline_with_model_options(flags, tmp_path):
    # two hops train through the dense window, one hop through the Gram form
    ds, model, out = (str(tmp_path / name) for name in ("ds", "m.msl", "rw"))
    assert main(["synth", "--out", ds, "--target-nodes", "100", "--seed", "5"]) == 0
    assert main(["train", ds, "--out", model, "--max-path-len", "1", "--hidden-dim", "8",
                 "--epochs-attr", "3", "--epochs-label", "1", "--seed", "5", *flags]) == 0
    with open(model + ".loss.csv") as fh:
        header, *rows = [line.split(",") for line in fh.read().splitlines()]
    losses = [float(row[i]) for row in rows for i, col in enumerate(header) if col.startswith("loss:")]
    assert len(rows) == 4 and losses and all(math.isfinite(x) for x in losses)
    assert main(["rewire", ds, "--model", model, "--out", out]) == 0
    assert main(["diag", out, "--report", str(tmp_path / "diag.json")]) == 0


class TestRewire:
    def test_pipeline_outputs(self, dataset, trained_model, tmp_path):
        out = str(tmp_path / "rw")
        assert main(["rewire", dataset, "--model", trained_model, "--out", out]) == 0
        report = json.loads(Path(out, "homophily_report.json").read_text())
        assert {"paths", "mh_before", "mh_after"} <= set(report)
        plan_lines = Path(out, "rewire_plan.tsv").read_text().strip().split("\n")
        assert plan_lines[0] == "metapath\top\ti\tj\tscore"
        rewired = load_graph(out)
        assert any(r.name.startswith("rw:") for r in rewired.schema.relations)

    def test_identity_configuration_is_structural_noop(self, dataset, trained_model, tmp_path):
        out = str(tmp_path / "noop")
        rc = main(
            ["rewire", dataset, "--model", trained_model, "--out", out,
             "--edge-budget", "0", "--gamma", "-1.0"]
        )
        assert rc == 0
        assert graphs_equal(load_graph(dataset), load_graph(out))

    def test_two_hop_additions_stay_within_two_hops(self, dataset, trained_model, tmp_path):
        # an epsilon below every cosine product must not admit masked partners
        out = str(tmp_path / "rw")
        assert main(["rewire", dataset, "--model", trained_model, "--out", out, "--two-hop-only",
                     "--epsilon", "-3", "--edge-budget", "150"]) == 0
        g = load_graph(dataset)
        reach = {}
        for path in enumerate_metapaths(g.schema, g.target_type, 1):
            adj = compose_metapath(g, path).adjacency.toarray().astype(int)
            reach[path_label(g.schema, path)] = (adj + adj @ adj) > 0
        with open(os.path.join(out, "rewire_plan.tsv")) as fh:
            rows = [line.split("\t") for line in fh.read().splitlines()[1:]]
        adds = [(label, int(i), int(j)) for label, op, i, j, _ in rows if op == "add"]
        assert adds
        assert all(reach[label][i, j] for label, i, j in adds)

    def test_missing_model_is_data_error(self, dataset, tmp_path):
        assert main(["rewire", dataset, "--model", str(tmp_path / "nope.msl"),
                     "--out", str(tmp_path / "o")]) == 2


def test_rewire_reports_an_unmeasurable_path(tmp_path):
    ds, model, out = (str(tmp_path / name) for name in ("ds", "m.msl", "rw"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", ds, "--target-nodes", "24", "--aux-size", "10",
                     "--p-aux", "0.5", "--seed", "2"]) == 0
        assert main(["train", ds, "--out", model, "--max-path-len", "2",
                     "--epochs-attr", "3", "--epochs-label", "1"]) == 0
        Path(ds, "edges_from_aux0.tsv").write_text("")  # the aux round trip composes to nothing
        assert main(["rewire", ds, "--model", model, "--out", out]) == 0
    report = json.loads(Path(out, "homophily_report.json").read_text())
    empty = [row for row in report["paths"] if row["edges_before"] == 0]
    assert len(empty) == 1 and empty[0]["hr_before"] is None
    assert report["mh_before"] == max(row["hr_before"] for row in report["paths"] if row not in empty)
    rows = [line.split("\t") for line in Path(out, "homophily_report.tsv").read_text().splitlines()[1:-1]]
    assert [row[1] for row in rows if row[3] == "0"] == ["n/a"]


def test_rewire_without_a_measurable_path_writes_nothing(dataset, trained_model, tmp_path, capsys):
    ds, out = str(tmp_path / "ds"), str(tmp_path / "rw")
    shutil.copytree(dataset, ds)
    for name in ("labels.tsv", "splits.tsv"):  # no labeled node, so no countable edge
        Path(ds, name).write_text("")
    assert main(["rewire", ds, "--model", trained_model, "--out", out]) == 3
    assert capsys.readouterr().err.startswith("hgrw: numeric failure:")
    assert not os.path.exists(out)


class TestDiag:
    def test_report_schema(self, dataset, tmp_path):
        report = str(tmp_path / "diag.json")
        assert main(["diag", dataset, "--report", report, "--max-path-len", "1"]) == 0
        doc = json.loads(Path(report).read_text())
        assert set(doc) == {"paths", "mh"}
        for row in doc["paths"]:
            assert {"metapath", "hr", "coverage", "edges", "complexity"} == set(row)
            assert row["complexity"] is None or row["complexity"] >= 0.0


def test_missing_model_file_for_rewire_reports_cleanly(tmp_path, capsys):
    d = str(tmp_path / "ds")
    assert main(["synth", "--out", d, "--target-nodes", "30", "--seed", "0"]) == 0
    rc = main(["rewire", d, "--model", str(tmp_path / "absent.msl"), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("hgrw: data error:") and err.count("\n") == 1


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A small dataset with an auxiliary node type and a model trained on it."""
    root = tmp_path_factory.mktemp("fuzz")
    ds, model = str(root / "ds"), str(root / "model.msl")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", ds, "--target-nodes", "24", "--feature-dim", "2",
                     "--aux-size", "6", "--p-aux", "0.5", "--mean-degree", "3", "--seed", "2"]) == 0
        assert main(["train", ds, "--out", model, "--max-path-len", "2", "--hidden-dim", "3",
                     "--epochs-attr", "2", "--epochs-label", "1", "--seed", "2"]) == 0
    return ds, model


def mutate(raw: bytes, kind: str, pos: int, payload: bytes) -> bytes:
    """One edit of a file's bytes; ``pos`` is taken modulo the valid range."""
    if kind == "append":
        return raw + payload
    if kind == "truncate":
        return raw[: pos % (len(raw) + 1)]
    if kind == "insert":
        at = pos % (len(raw) + 1)
        return raw[:at] + payload + raw[at:]
    if not raw:
        return payload
    if kind == "set":
        at = pos % len(raw)
        return raw[:at] + payload[:1] + raw[at + 1 :]
    lines = raw.splitlines(keepends=True)
    at = pos % len(lines)
    kept = lines[:at] + lines[at + 1 :] if kind == "drop line" else lines[: at + 1] + lines[at:]
    return b"".join(kept)


EDIT = st.tuples(
    st.integers(0, 99),  # the file, modulo the number of files
    st.sampled_from(["append", "truncate", "insert", "set", "drop line", "repeat line"]),
    st.one_of(st.integers(0, 12), st.integers(0, 2**16)),  # small offsets reach the headers
    st.one_of(
        st.binary(min_size=1, max_size=3),
        st.lists(st.sampled_from(list(b"0179\t\n-.e")), min_size=1, max_size=3).map(bytes),
    ),
)


@given(edits=st.lists(EDIT, min_size=1, max_size=3))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_mutated_inputs_exit_with_a_code(fuzz_inputs, edits):
    # every edge, label, split and feature file and the checkpoint are fair
    # game; inspect and rewire must answer with an exit code, never a raise
    with tempfile.TemporaryDirectory() as tmp:
        ds, model = os.path.join(tmp, "ds"), os.path.join(tmp, "model.msl")
        shutil.copytree(fuzz_inputs[0], ds)
        shutil.copyfile(fuzz_inputs[1], model)
        files = sorted(os.path.join(ds, f) for f in os.listdir(ds) if f != "manifest.json") + [model]
        for which, kind, pos, payload in edits:
            path = files[which % len(files)]
            raw = Path(path).read_bytes()
            Path(path).write_bytes(mutate(raw, kind, pos, payload))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = {
                main(["inspect", ds]),
                main(["rewire", ds, "--model", model, "--out", os.path.join(tmp, "rw")]),
            }
    assert codes <= {0, 2, 3}

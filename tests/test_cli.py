import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hgrw.cli import _config, build_parser, main
from hgrw.dataio import load_graph, save_graph
from hgrw.errors import DataError
from hgrw.graph import SPLIT_NAMES
from hgrw.learner import LearnerConfig
from hgrw.metapath import MetaPath, compose_metapath, enumerate_metapaths, path_label
from hgrw.rewire import RewireConfig
from hgrw.synth import SynthConfig
from hgrw.targets import TargetsConfig
from conftest import make_graph, symmetric_edges
from oracles import check_csr, csr_pairs, dfs_compose_pairs
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

    def test_unknown_flag(self, dataset, trained_model, tmp_path, capsys):
        out = str(tmp_path / "rw")
        assert main(["rewire", dataset, "--model", trained_model, "--out", out, "--block-size", "7"]) == 1
        assert capsys.readouterr().err.startswith("hgrw: usage error:")
        assert not os.path.exists(out)

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
    ("synth", ["--classes", "1"]),
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
    ("synth", ["--mean-degree", "0.001"]),
    ("synth", ["--target-nodes", "10", "--mean-degree", "1e9"]),
    ("synth", ["--aux-size", "5", "--p-aux", "0.5"]),
    ("synth", ["--aux-size", "0", "--p-aux", "0.5"]),
    ("train", ["--epochs-attr", "0"]),
    ("train", ["--k1", "0"]),
    ("train", ["--alpha", "2"]),
    ("train", ["--seed", "-1"]),
    ("train", ["--lr", "nan"]),
    ("train", ["--lr", "inf"]),
    ("train", ["--weight-decay", "nan"]),
    ("train", ["--weight-decay", "-5"]),
    ("inspect", ["--max-path-len", "0"]),
    ("train", ["--max-path-len", "0"]),
    ("diag", ["--max-path-len", "0"]),
    ("rewire", ["--edge-budget", "-1"]),
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


def copy_with_manifest_edit(dataset: str, d: str, edit) -> str:
    """A copy of ``dataset`` at ``d`` whose manifest ``edit`` has rewritten."""
    shutil.copytree(dataset, d)
    path = os.path.join(d, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(edit(manifest), fh)
    return d


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
    d = copy_with_manifest_edit(dataset, str(tmp_path / "ds"), BAD_MANIFESTS[case])
    assert main(["inspect", d]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hgrw: data error:") and err.count("\n") == 1
    assert "manifest.json" in err


@pytest.fixture(scope="module")
def venue_dataset(tmp_path_factory):
    """Two node types, the first in no relation, so that renaming it to the
    target type's name leaves every relation's endpoints resolvable."""
    d = str(tmp_path_factory.mktemp("venue") / "ds")
    edges = symmetric_edges([(0, 1), (2, 3)])
    save_graph(make_graph({"venue": 2, "paper": 4},
                          [("cites", "paper", "paper", edges), ("links", "paper", "paper", edges)],
                          "paper", labels=[0, 1, 0, 1]), d)
    return d


def _later_type_named_as_target(manifest):
    """The target type moved first and the venue type, now after it, renamed
    to the target's name: the relations' endpoints name both types."""
    venue, paper = manifest["node_types"]
    manifest["node_types"] = [paper, {**venue, "name": "paper"}]
    return manifest


CONTENT_FAULTS = {
    "node type renamed to another's": (_manifest_edit("node_types", 0, "name", value="paper"),
                                       "duplicate node type names"),
    "later node type renamed to the target's": (_later_type_named_as_target,
                                                "duplicate node type names"),
    "relation renamed to another's": (_manifest_edit("relations", 1, "name", value="cites"),
                                      "duplicate relation names"),
    "no class": (_manifest_edit("num_classes", value=0), "num_classes 0 < 1"),
}


@pytest.mark.parametrize("case", list(CONTENT_FAULTS))
def test_content_fault_is_reported_by_the_loader(case, venue_dataset, tmp_path, capsys):
    edit, message = CONTENT_FAULTS[case]
    d = copy_with_manifest_edit(venue_dataset, str(tmp_path / "ds"), edit)
    assert main(["inspect", d]) == 2
    assert f"{d}: invalid dataset: {message}" in capsys.readouterr().err


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


def _no_paths(raw: bytes) -> bytes:
    """A checkpoint with no meta-path whose parameter index and bytes are cut
    to the input projections, so that they still agree."""

    def drop_paths(header):
        header["paths"] = []
        header["params"] = [e for e in header["params"] if e["key"][0] == "in"]

    cut = _edit_header(drop_paths)(raw)
    hlen = int.from_bytes(cut[4:8], "little")
    params = json.loads(cut[8 : 8 + hlen])["params"]
    return cut[: 8 + hlen + 8 * sum(math.prod(e["shape"]) for e in params)]


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
    "nan learning rate": _edit_header(lambda h: h["config"].update(learning_rate=float("nan"))),
    "negative weight decay": _edit_header(lambda h: h["config"].update(weight_decay=-5.0)),
    "all parameters nan": _edit_params(lambda p: p.fill(np.nan)),
    "one infinite parameter": _edit_params(lambda p: p.__setitem__(0, np.inf)),
    "no meta-path": _no_paths,
    "boolean relation id": _edit_header(lambda h: h["paths"][1].__setitem__(0, True)),
    "boolean in the parameter index": _edit_header(lambda h: h["params"][0]["key"].__setitem__(1, False)),
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


def test_demo_diag_measures_rewired_relations_as_one_hop_paths(tmp_path):
    # the README demo at seed 0: each original path once, and each rw:
    # relation as its own one-hop path, never a walk through it
    ds, model, rw, report = (str(tmp_path / name) for name in ("ds", "m.msl", "rw", "diag.json"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", ds, "--target-nodes", "500", "--p-self", "0.3",
                     "--p-self", "0.3", "--seed", "0"]) == 0
        assert main(["train", ds, "--out", model, "--seed", "0"]) == 0
        assert main(["rewire", ds, "--model", model, "--out", rw]) == 0
        assert main(["diag", rw, "--report", report]) == 0
    g, before = load_graph(rw), load_graph(ds).schema
    original, rewired = g.schema.relations[:len(before.relations)], g.schema.relations[len(before.relations):]
    assert len(rewired) == 6 and all(r.name.startswith("rw:") for r in rewired)
    want = enumerate_metapaths(before, g.target_type, 2) + [MetaPath((r.rel_id,)) for r in rewired]
    rows = json.loads(Path(report).read_text())["paths"]
    assert len(rows) == 12
    assert [row["metapath"] for row in rows] == [path_label(g.schema, p) for p in want]

    # an explicit --path still composes through a rewired relation
    path = MetaPath((rewired[0].rel_id, original[1].rel_id))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["diag", rw, "--report", report, "--path", f"{rewired[0].name},{original[1].name}"]) == 0
    [row] = json.loads(Path(report).read_text())["paths"]
    pairs = dfs_compose_pairs(g, path)
    assert row["metapath"] == path_label(g.schema, path)
    assert row["edges"] == len(pairs)
    assert csr_pairs(compose_metapath(g, path).adjacency) == pairs


def test_missing_model_file_for_rewire_reports_cleanly(tmp_path, capsys):
    d = str(tmp_path / "ds")
    assert main(["synth", "--out", d, "--target-nodes", "30", "--seed", "0"]) == 0
    rc = main(["rewire", d, "--model", str(tmp_path / "absent.msl"), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("hgrw: data error:") and err.count("\n") == 1


# an output in a missing directory, or an existing file where a dataset
# directory goes; the checkpoint is already written when the loss CSV fails
UNWRITABLE_OUTPUTS = [
    ("train", ["--out", "{missing}/m.msl"]),
    ("train", ["--out", "{tmp}/m.msl", "--loss-csv", "{missing}/l.csv"]),
    ("rewire", ["--model", "{model}", "--out", "{file}"]),
    ("synth", ["--out", "{file}", "--target-nodes", "30"]),
    ("diag", ["--report", "{missing}/r.json"]),
]


@pytest.mark.parametrize("command,flags", UNWRITABLE_OUTPUTS,
                         ids=[" ".join([c, *f]) for c, f in UNWRITABLE_OUTPUTS])
def test_unwritable_output_is_data_error(command, flags, dataset, trained_model, tmp_path, capsys):
    Path(tmp_path, "file").write_text("")
    slots = {"missing": str(tmp_path / "missing"), "file": str(tmp_path / "file"), "tmp": str(tmp_path),
             "model": trained_model}
    flags = [f.format(**slots) for f in flags]
    fast = ["--max-path-len", "1", "--hidden-dim", "8", "--epochs-attr", "2", "--epochs-label", "1"]
    args = {"synth": [], "train": [dataset, *fast], "rewire": [dataset], "diag": [dataset]}[command]
    assert main([command, *args, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hgrw: data error:") and err.count("\n") == 1 and "Traceback" not in err
    assert any(f in err for f in flags if "missing" in f or f == slots["file"])  # it names the path


SATURATED_LEVELS = [
    ["--target-nodes", "100", "--mean-degree", "99", "--p-self", "1.0"],
    ["--target-nodes", "100", "--mean-degree", "60", "--p-self", "0.0"],
    ["--target-nodes", "100", "--aux-size", "10", "--p-aux", "1.0", "--mean-degree", "6"],
    ["--target-nodes", "100", "--aux-size", "10", "--p-aux", "0.0", "--mean-degree", "6"],
]


@pytest.mark.parametrize("flags", SATURATED_LEVELS, ids=[" ".join(f) for f in SATURATED_LEVELS])
def test_level_without_enough_class_pairs_is_usage_error(flags, tmp_path, capsys):
    # a level of 1 (0) draws only same-class (cross-class) pairs, so sampling
    # more edges than there are such pairs would never end
    start = time.perf_counter()
    assert main(["synth", "--out", str(tmp_path / "ds"), *flags]) == 1
    assert time.perf_counter() - start < 1.0
    assert "the classes hold only" in capsys.readouterr().err


@pytest.mark.parametrize("nodes,level,degree,edges", [
    ("100", "1.0", "49", 2450),  # 2 * C(50, 2) same-class pairs
    ("100", "0.0", "50", 2500),  # 50 * 50 cross-class pairs
    ("101", "1.0", "49.505", 2500),  # C(51, 2) + C(50, 2)
])
def test_level_zero_or_one_fills_every_pair_it_allows(nodes, level, degree, edges, tmp_path):
    d = str(tmp_path / "ds")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", d, "--target-nodes", nodes, "--mean-degree", degree,
                     "--p-self", level]) == 0
    g = load_graph(d)
    rows, cols = g.adjacency[0].nonzero()
    assert rows.size == 2 * edges
    assert np.all((g.labels[rows] == g.labels[cols]) == (level == "1.0"))


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


DROP = object()  # a manifest edit that removes the field


def edit_manifest(path: str, slot: int, value) -> None:
    """Store ``value`` at one place of the manifest at ``path`` (the whole
    document, any field or any list entry, ``slot`` taken modulo their
    number), or remove the field or entry there when ``value`` is DROP."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)

    def places(node, keys):
        yield keys
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, child in items:
            yield from places(child, (*keys, key))

    spots = list(places(doc, ()))
    keys = spots[slot % len(spots)]
    if not keys:
        doc = None if value is DROP else value
    else:
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        if value is DROP:
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


MANIFEST_EDIT = st.tuples(
    st.integers(0, 999),  # the place, modulo the number of places
    # wrong types, empty and directory-like file names, another file's name,
    # names of real types and relations, and sizes no file could back
    st.sampled_from([DROP, None, True, 1.5, -1, 0, 1, 2, 24, 10**12, "", ".", "..", "labels.tsv",
                     "features_node.bin", "node", "aux0", "to_aux0", [], {}, [{}]]),
)


@given(edits=st.lists(EDIT, min_size=1, max_size=3), manifest_edits=st.lists(MANIFEST_EDIT, max_size=2))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_mutated_inputs_exit_with_a_code(fuzz_inputs, edits, manifest_edits):
    # every file of the dataset and the checkpoint are fair game, and the
    # manifest also takes edits of its parsed fields; a dataset that loads
    # holds the structure loading builds, and inspect and rewire must answer
    # with an exit code, never a raise
    with tempfile.TemporaryDirectory() as tmp:
        ds, model = os.path.join(tmp, "ds"), os.path.join(tmp, "model.msl")
        shutil.copytree(fuzz_inputs[0], ds)
        shutil.copyfile(fuzz_inputs[1], model)
        for slot, value in manifest_edits:
            edit_manifest(os.path.join(ds, "manifest.json"), slot, value)
        files = sorted(os.path.join(ds, f) for f in os.listdir(ds)) + [model]
        for which, kind, pos, payload in edits:
            path = files[which % len(files)]
            raw = Path(path).read_bytes()
            Path(path).write_bytes(mutate(raw, kind, pos, payload))
        with contextlib.suppress(DataError):
            assert_built_by_loader(load_graph(ds))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = {
                main(["inspect", ds]),
                main(["rewire", ds, "--model", model, "--out", os.path.join(tmp, "rw")]),
            }
    assert codes <= {0, 2, 3}


def assert_built_by_loader(g) -> None:
    """The structure that ``load_graph`` builds itself, so that no file can
    get it wrong and ``validate_graph`` does not check it."""
    assert [t.type_id for t in g.schema.node_types] == list(range(len(g.schema.node_types)))
    assert [r.rel_id for r in g.schema.relations] == list(range(len(g.schema.relations)))
    counts = [t.node_count for t in g.schema.node_types]
    assert len(g.adjacency) == len(g.schema.relations)
    for r, adj in zip(g.schema.relations, g.adjacency):
        assert adj.shape == (counts[r.src_type], counts[r.dst_type])
        assert check_csr(adj) == []
    assert [x.shape for x in g.features] == [(t.node_count, t.feature_dim) for t in g.schema.node_types]
    assert g.labels.shape == g.splits.shape == (g.target_count,)
    assert set(np.unique(g.splits).tolist()) <= set(SPLIT_NAMES)

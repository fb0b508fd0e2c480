import json
import math
import os
import shutil
from pathlib import Path

import pytest

from hgrw.cli import main
from hgrw.dataio import load_graph, save_graph
from hgrw.metapath import compose_metapath, enumerate_metapaths, path_label
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
    extra = {
        "inspect": [],
        "train": ["--out", out],
        "rewire": ["--model", trained_model, "--out", out],
        "diag": ["--report", out],
    }[command]
    assert main([command, dataset, *extra, *flags]) == 1
    assert capsys.readouterr().err.startswith("hgrw: usage error:")


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


def _concat_mode_with_text_alpha(header: dict) -> None:
    header["config"]["concat_distribution_features"] = True
    header["meta"]["targets"]["alpha"] = "x"


BAD_CHECKPOINTS = {
    "unknown config key": _edit_header(lambda h: h["config"].update(bogus=1)),
    "missing paths": _edit_header(lambda h: h.pop("paths")),
    "missing config field": _edit_header(lambda h: h["config"].pop("concat_distribution_features")),
    "config value of the wrong type": _edit_header(lambda h: h["config"].update(seed="a")),
    "magic only": lambda raw: raw[:4],
    "malformed header json": lambda raw: raw[:8] + b"[" + raw[9:],
    "trailing bytes": lambda raw: raw + bytes(16),
    "truncated parameters": lambda raw: raw[:-8],
    "bad targets metadata": _edit_header(_concat_mode_with_text_alpha),
    "huge hidden dim": _edit_header(lambda h: h["config"].update(hidden_dim=10**12)),
    "huge hop count": _edit_header(lambda h: h["config"].update(num_hops=10**12)),
}


@pytest.mark.parametrize("case", list(BAD_CHECKPOINTS))
def test_malformed_checkpoint_is_data_error(case, dataset, trained_model, tmp_path, capsys):
    bad = tmp_path / "bad.msl"
    with open(trained_model, "rb") as fh:
        bad.write_bytes(BAD_CHECKPOINTS[case](fh.read()))
    assert main(["rewire", dataset, "--model", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("hgrw: data error:")


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
            adj = compose_metapath(g, path).adjacency.to_dense().astype(int)
            reach[path_label(g.schema, path)] = (adj + adj @ adj) > 0
        with open(os.path.join(out, "rewire_plan.tsv")) as fh:
            rows = [line.split("\t") for line in fh.read().splitlines()[1:]]
        adds = [(label, int(i), int(j)) for label, op, i, j, _ in rows if op == "add"]
        assert adds
        assert all(reach[label][i, j] for label, i, j in adds)

    def test_missing_model_is_data_error(self, dataset, tmp_path):
        assert main(["rewire", dataset, "--model", str(tmp_path / "nope.msl"),
                     "--out", str(tmp_path / "o")]) == 2


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

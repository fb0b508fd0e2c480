import json
import os

import pytest

from hgrw.cli import main
from hgrw.dataio import load_graph, save_graph
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


class TestTrain:
    def test_writes_checkpoint_and_history(self, trained_model):
        assert os.path.exists(trained_model)
        csv = trained_model + ".loss.csv"
        lines = open(csv).read().strip().split("\n")
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
        assert open(out1 + ".loss.csv", "rb").read() == open(out2 + ".loss.csv", "rb").read()

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


class TestRewire:
    def test_pipeline_outputs(self, dataset, trained_model, tmp_path):
        out = str(tmp_path / "rw")
        assert main(["rewire", dataset, "--model", trained_model, "--out", out]) == 0
        report = json.load(open(os.path.join(out, "homophily_report.json")))
        assert {"paths", "mh_before", "mh_after"} <= set(report)
        plan_lines = open(os.path.join(out, "rewire_plan.tsv")).read().strip().split("\n")
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

    def test_missing_model_is_data_error(self, dataset, tmp_path):
        assert main(["rewire", dataset, "--model", str(tmp_path / "nope.msl"),
                     "--out", str(tmp_path / "o")]) == 2


class TestDiag:
    def test_report_schema(self, dataset, tmp_path):
        report = str(tmp_path / "diag.json")
        assert main(["diag", dataset, "--report", report, "--max-path-len", "1"]) == 0
        doc = json.load(open(report))
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

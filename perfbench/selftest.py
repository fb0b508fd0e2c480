"""Self-test of the output checks: every check must reject a corrupted copy.

    python3 perfbench/selftest.py

Runs one small pipeline (150 target nodes with an auxiliary type, two-hop
candidates and pruning, so every check has something to look at) through
``hgrw.cli.main``, asserts that its outputs pass every check, then makes one
corrupted copy per case below and asserts that the named check rejects it.
It also asserts that ``BENCHMARK.json`` lists exactly the workloads and
metrics the benchmark emits. Takes a few seconds; exits 1 on any failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from run import END_TO_END_UNITS, OUT, SRC  # noqa: E402  (run.py fixes the BLAS threads)
from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SEED = 3
SMALL = Workload(
    name="selftest",
    why="",
    synth=("--target-nodes", "150", "--p-self", "0.3", "--aux-size", "100",
           "--p-aux", "0.2", "--mean-degree", "4"),
    train=("--max-path-len", "2", "--epochs-attr", "6", "--epochs-label", "2"),
    diag=("--max-path-len", "1"),
    epochs=8,
    paths=3,
    gamma=0.0,
    two_hop_only=True,
)


def _edit(path: Path, fn) -> None:
    path.write_text(fn(path.read_text(encoding="utf-8")), encoding="utf-8")


def _edit_json(path: Path, fn) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    fn(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def _plan_line(o: checks.RoundOutputs, op: str, i: int, j: int, score: float) -> str:
    return f"{o.paths[0].label}\t{op}\t{i}\t{j}\t{score!r}"


def _add_plan_lines(work: Path, lines: list[str]) -> None:
    _edit(work / "rw" / "rewire_plan.tsv", lambda t: t + "\n".join(lines) + "\n")


def _drop_plan_line(work: Path, op: str) -> None:
    def drop(text):
        lines = text.splitlines()
        k = next(k for k, line in enumerate(lines) if line.split("\t")[1] == op)
        return "\n".join(lines[:k] + lines[k + 1:]) + "\n"

    _edit(work / "rw" / "rewire_plan.tsv", drop)


def _rw_edge_file(work: Path) -> Path:
    man = json.loads((work / "rw" / "manifest.json").read_text(encoding="utf-8"))
    rel = next(r for r in man["relations"] if r["name"].startswith("rw:"))
    return work / "rw" / rel["edge_file"]


def _free_pair(o: checks.RoundOutputs, want) -> tuple[int, int, float]:
    """A non-edge (i, j), i != j, of path 0 whose recomputed score satisfies ``want``."""
    po = o.paths[0]
    n = po.sub.shape[0]
    for i in range(n):
        s = checks.pair_scores(po.units, np.full(n, i), np.arange(n))
        for j in np.flatnonzero(want(s, i)):
            if j != i and not po.sub[i, j]:
                return i, int(j), float(s[j])
    raise AssertionError("no such pair in the self-test graph")


def _beyond_two_hops(s, i, o):
    reach = checks._within_two_hops(o.paths[0].sub, np.full(len(s), i), np.arange(len(s)))
    return ~reach


def cases(o: checks.RoundOutputs) -> dict[str, tuple[str, callable]]:
    """Case name -> (check that must reject it, corruption of a copy)."""
    add = o.paths[0].add
    src = int(add[0, 0])
    low = _free_pair(o, lambda s, i: s < SMALL.epsilon)
    far = _free_pair(o, lambda s, i: _beyond_two_hops(s, i, o))
    existing = o.paths[0].sub[src].indices[0]
    return {
        "dataset: dropped edge line": ("check_dataset", lambda w: _edit(
            w / "ds" / "edges_r0.tsv", lambda t: t.split("\n", 1)[1])),
        "inspect: wrong mh line": ("check_inspect", lambda w: None),  # see _corrupt_stdout
        "checkpoint: trailing bytes": ("check_checkpoint", lambda w: (
            w / "model.msl").open("ab").write(b"\0" * 8)),
        "loss CSV: lambda row off the simplex": ("check_loss_csv", lambda w: _edit(
            w / "model.msl.loss.csv", lambda t: _set_cell(t, 1, -1, "0.5"))),
        "loss CSV: dropped row": ("check_loss_csv", lambda w: _edit(
            w / "model.msl.loss.csv", lambda t: t.rsplit("\n", 2)[0] + "\n")),
        "loss CSV: NaN loss": ("check_loss_csv", lambda w: _edit(
            w / "model.msl.loss.csv", lambda t: _set_cell(t, 1, 2, "nan"))),
        "report: perturbed hr_after": ("check_report", lambda w: _edit_json(
            w / "rw" / "homophily_report.json",
            lambda d: d["paths"][0].update(hr_after=d["paths"][0]["hr_after"] + 1e-3))),
        "report: mh_after not raised": ("check_mh_gain", lambda w: _edit_json(
            w / "rw" / "homophily_report.json", lambda d: d.update(mh_after=d["mh_before"]))),
        "rw: flipped edge": ("check_rw_relations", lambda w: _edit(
            _rw_edge_file(w), lambda t: t.split("\n", 1)[1])),
        "rw: self loop": ("check_rw_relations", lambda w: _edit(
            _rw_edge_file(w), lambda t: t + "0\t0\n")),
        "plan: pair below epsilon": ("check_additions", lambda w: _add_plan_lines(
            w, [_plan_line(o, "add", low[0], low[1], 0.95)])),
        "plan: perturbed score": ("check_additions", lambda w: _edit(
            w / "rw" / "rewire_plan.tsv", lambda t: _perturb_first_add(t))),
        "plan: over budget": ("check_additions", lambda w: _add_plan_lines(
            w, [_plan_line(o, "add", src, j, 0.99) for j in range(SMALL.edge_budget + 1)])),
        "plan: existing edge added": ("check_additions", lambda w: _add_plan_lines(
            w, [_plan_line(o, "add", src, int(existing), 0.99)])),
        "plan: addition beyond two hops": ("check_additions", lambda w: _add_plan_lines(
            w, [_plan_line(o, "add", far[0], far[1], far[2])])),
        "plan: dropped addition": ("check_topk", lambda w: _drop_plan_line(w, "add")),
        "plan: dropped removal": ("check_pruning", lambda w: _drop_plan_line(w, "del")),
        "diag: perturbed hr": ("check_diag", lambda w: _edit_json(
            w / "diag.json", lambda d: d["paths"][0].update(hr=d["paths"][0]["hr"] + 1e-3))),
    }


def _set_cell(text: str, row: int, col: int, value: str) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _perturb_first_add(text: str) -> str:
    lines = text.splitlines()
    k = next(k for k, line in enumerate(lines) if line.split("\t")[1] == "add")
    cells = lines[k].split("\t")
    cells[4] = repr(float(cells[4]) + 1e-6)
    lines[k] = "\t".join(cells)
    return "\n".join(lines) + "\n"


def _corrupt_stdout(stdout: dict[str, str], check: str) -> dict[str, str]:
    """The inspect case corrupts what the command printed: an mh line naming
    a value the table does not hold."""
    if check != "check_inspect":
        return stdout
    lines = stdout["inspect"].rstrip("\n").split("\n")
    return dict(stdout, inspect="\n".join(lines[:-1] + ["mh 0.0001 (N)"]) + "\n")


def check_benchmark_json() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bad = []
    if [(w["name"], w["why"]) for w in spec["workloads"]] != [(w.name, w.why) for w in WORKLOADS.values()]:
        bad.append("BENCHMARK.json workloads differ from workloads.py")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != END_TO_END_UNITS:
        bad.append("BENCHMARK.json end_to_end metrics differ from run.py")
    if {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} != {
        m: (unit, better) for m, (unit, better, _) in LAYER_METRICS.items()
    }:
        bad.append("BENCHMARK.json per_layer metrics differ from tracer.py")
    return bad


def main() -> int:
    sys.path.insert(0, str(SRC))
    from hgrw.cli import main as hgrw_main

    base = OUT / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    pristine = base / "pristine"
    pristine.mkdir(parents=True)
    stdout = {}
    for argv in SMALL.commands(str(pristine), SEED):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = hgrw_main(argv)
        if rc != 0:
            print(f"FAIL: {argv[0]} exited {rc}")
            return 1
        stdout[argv[0]] = buf.getvalue()

    failures = check_benchmark_json()
    try:
        clean = checks.run_checks(pristine, SMALL, SEED, stdout)
        failures += [f"clean outputs fail {name}: {p[:2]}" for name, p in clean.items() if p]
        o = checks.RoundOutputs(pristine, SMALL, SEED, stdout)
        if not len(o.paths[0].add) or not len(o.paths[0].rem):
            failures.append("the self-test run has no additions or no removals on path 0")
        else:
            for k, (case, (check, corrupt)) in enumerate(cases(o).items()):
                work = base / f"case-{k}"
                shutil.copytree(pristine, work)
                corrupt(work)
                found = checks.run_checks(work, SMALL, SEED, _corrupt_stdout(stdout, check))[check]
                print(f"{'PASS' if found else 'FAIL'}: {case}: {check} "
                      + (f"rejects ({found[0][:90]})" if found else "accepts it"))
                if not found:
                    failures.append(case)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for f in failures:
        print(f"FAIL: {f}")
    print(f"{'ok' if not failures else 'FAILED'}: clean run passes all {len(checks.CHECKS)} checks"
          if not failures else f"FAILED: {len(failures)} problems")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

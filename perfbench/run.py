"""Benchmark of the hgrw pipeline: synth -> inspect -> train -> rewire -> diag.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan10k --seed 0 --seconds 25 --trace 0

One round runs the five CLI commands of the workload in two copies at once,
each on its own input (``input_seed``), in a fresh interpreter (``worker.py``)
pinned to its own core and on its own scratch directory under
``perfbench/out``. The round then checks every output with ``checks.py``,
which shares no code with ``hgrw``. Rounds repeat until ``--seconds`` have
passed; each metric is the median over every copy of every round. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs the
rounds with spans around every ``hgrw`` layer and reports the per-layer
metrics instead. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the run record, with
the environment and every round, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Fixed before numpy loads here and inherited by every worker: one BLAS
# thread, so a process never runs more threads than the machine has cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# hgrw's default sequential candidate scan is what gets measured.
os.environ.pop("HGRW_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import CHECKS, run_checks  # noqa: E402
from tracer import LAYER_METRICS, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
ROUND_TIMEOUT_S = 120  # a round that hangs fails; the run still ends inside 180 s
# The cores a round runs its copies on, one worker each. This host slows its
# cores separately, so two copies side by side are seldom both slowed.
CPUS = sorted(os.sched_getaffinity(0))[:2]


def input_seed(seed: int, copy: int) -> int:
    """The synth and train seed of one copy. The copies of a run work on
    different inputs, since how long the candidate scan takes depends on how
    many partners the trained model scores above epsilon; each round repeats
    the same inputs."""
    return 2 * seed + copy


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False).stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpus": CPUS,
        "blas_threads": int(BLAS_THREADS),
    }


def run_round(wl: Workload, seed: int, work: Path, trace: str | None) -> dict:
    """Run one round: a copy of the workload on each core of ``CPUS``, both at
    once, each in a worker pinned to its core; then check every copy's
    outputs. ``trace`` is None, "spans" or "memory" (see ``tracer.MEMORY``)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = []
    try:
        for k, cpu in enumerate(CPUS):
            copy = work / f"cpu{cpu}"
            copy.mkdir(parents=True)
            cmd = [sys.executable, str(HERE / "worker.py"), "--workload", wl.name,
                   "--seed", str(input_seed(seed, k)), "--work", str(copy), "--result", str(copy / "result.json"),
                   "--cpu", str(cpu)] + (["--trace", trace] if trace else [])
            with open(copy / "stderr.txt", "w", encoding="utf-8") as err:
                started.append((copy, time.perf_counter(),
                                subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)))
        deadline = time.perf_counter() + ROUND_TIMEOUT_S
        for _, _, proc in started:
            try:
                proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                proc.kill()
    finally:
        for _, _, proc in started:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    copies = [check_copy(wl, input_seed(seed, k), copy, launch, trace)
              for k, (copy, launch, _) in enumerate(started)]
    return {
        "calls": sum(c["calls"] for c in copies),
        "failed": sum(c["failed"] for c in copies),
        "problems": {f"cpu{cpu} {name}": lines for cpu, c in zip(CPUS, copies)
                     for name, lines in c["problems"].items()},
        "copies": copies,
    }


def check_copy(wl: Workload, seed: int, work: Path, launch: float, trace: str | None) -> dict:
    """Read one copy's worker result and check its outputs; ``seed`` is the
    copy's input seed."""
    result_file = work / "result.json"
    stderr = (work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
    if not result_file.exists():
        calls = len(wl.calls(str(work), seed, traced=trace is not None))
        return {"calls": calls, "failed": calls,
                "problems": {"worker": [stderr.strip()[-2000:] or "no result; timed out or killed"]}}
    record = json.loads(result_file.read_text(encoding="utf-8"))
    calls = record["commands"]
    failed = {c["argv"][0] for c in calls if c["rc"] != 0}
    problems = {c["argv"][0]: [c["error"] or f"exit code {c['rc']}", stderr.strip()[-2000:]]
                for c in calls if c["rc"] != 0}
    check_start = time.perf_counter()
    checked = run_checks(work, wl, seed, {c["argv"][0]: c["stdout"] for c in calls})
    check_s = time.perf_counter() - check_start
    for check, command in CHECKS.items():
        if checked[check.__name__]:
            failed.add(command)
            problems[check.__name__] = checked[check.__name__]
    # A failed check fails every call of its command in the copy.
    out = {"seed": seed, "calls": len(calls), "failed": sum(c["argv"][0] in failed for c in calls),
           "problems": problems, "check_s": check_s}
    if failed:
        return out
    report = json.loads((work / "rw" / "homophily_report.json").read_text(encoding="utf-8"))
    samples = {f"{name}_s": [c["seconds"] for c in calls if c["argv"][0] == name]
               for name in ("inspect", "train", "rewire", "diag")}
    samples.update({
        "setup_s": [record["setup_end"] - launch],
        "peak_rss_mb": [record["peak_rss_mb"]],
        "mh_after": [report["mh_after"]],
        "hr_gain_mean": [statistics.fmean(p["hr_after"] - p["hr_before"] for p in report["paths"])],
    })
    out["samples"] = samples
    if trace == "spans":
        out["layers"] = layer_metrics(record["trace"]["spans"], record["trace"]["counts"])
        out["spans"] = record["trace"]["spans"]
    elif trace == "memory":
        out["layers"] = record["trace"]["peaks_mb"]
    return out


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    """Medians over every sample of the clean copies; pipeline_s is the sum of
    the inspect, train, rewire and diag medians."""
    clean = [c["samples"] for r in rounds for c in r["copies"] if not c["failed"]]
    out = {m: statistics.median(v for s in clean for v in s[m]) for m in clean[0]}
    out["pipeline_s"] = sum(out.pop(f"{c}_s") if c == "inspect" else out[f"{c}_s"]
                            for c in ("inspect", "train", "rewire", "diag"))
    return out


END_TO_END_UNITS = {
    "setup_s": "s", "train_s": "s", "rewire_s": "s", "diag_s": "s", "pipeline_s": "s",
    "peak_rss_mb": "MB", "mh_after": "ratio", "hr_gain_mean": "ratio",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hgrw" / "cli.py").is_file():
        print(f"perfbench: no hgrw sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    # A traced run alternates span rounds and memory rounds, at least one each.
    kinds = ("spans", "memory") if args.trace else (None,)

    base = OUT / f"work-{os.getpid()}"
    rounds = []
    begin = time.perf_counter()
    try:
        # Whole rounds only; the next one starts while the run is short of
        # --seconds and would still end inside the per-run time limit.
        while len(rounds) < len(kinds) or (
            time.perf_counter() - begin < args.seconds
            and time.perf_counter() - begin + rounds[-1]["wall_s"] < ROUND_TIMEOUT_S
        ):
            kind, work = kinds[len(rounds) % len(kinds)], base / f"round-{len(rounds)}"
            start = time.perf_counter()
            r = run_round(wl, args.seed, work, kind)
            r["kind"], r["wall_s"] = kind, time.perf_counter() - start
            rounds.append(r)
            shutil.rmtree(work, ignore_errors=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    for k, r in enumerate(rounds):
        for name, lines in r["problems"].items():
            print(f"round {k}: {name}: " + " | ".join(lines[:3]), file=sys.stderr)
    if set(kinds) - {r["kind"] for r in rounds for c in r["copies"] if not c["failed"]}:
        print("perfbench: no clean copy of every kind", file=sys.stderr)
        return 1
    if args.trace:
        metrics = {
            m: {"value": statistics.median(c["layers"][m] for r in rounds for c in r["copies"]
                                           if not c["failed"] and m in c["layers"]),
                "unit": unit}
            for m, (unit, _, _) in LAYER_METRICS.items()
        }
    else:
        values = end_to_end(rounds)
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END_UNITS.items()}

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "metrics": metrics,
        "rounds": [dict(r, copies=[{k: v for k, v in c.items() if k != "spans"} for c in r["copies"]])
                   for r in rounds],
        "spans_round0": rounds[0]["copies"][0].get("spans"),
    }
    record_file = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    failed = sum(r["failed"] for r in rounds)
    print(f"{wl.name} seed {args.seed}: {len(rounds)} rounds, {failed} failed operations; "
          f"record in {record_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["calls"] for r in rounds),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One copy of a round in a fresh interpreter pinned to the core ``--cpu``:
synth, inspect, train, rewire and diag through ``hgrw.cli.main``, each call
timed on the monotonic clock. Untraced rounds repeat the calls named in the
workload's ``repeats``.

Run by ``run.py``, which sets ``PYTHONPATH`` to the checkout's ``src`` and
fixes the BLAS thread count in the environment before this process starts.
The result, and with ``--trace`` the spans (and in memory rounds the peak
allocations), go to the ``--result`` JSON file when the copy ends.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import WORKLOADS  # noqa: E402


def peak_rss_mb() -> float:
    """This process's peak resident memory since its exec (``VmHWM``). Not
    ``ru_maxrss``: that also counts the parent's resident memory at fork,
    which is the checker's once ``run.py`` has checked a round."""
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", choices=("spans", "memory"))
    parser.add_argument("--cpu", type=int, required=True, help="the one core this worker runs on")
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.cpu})

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(memory=args.trace == "memory")
        tracer.install()
    cli = importlib.import_module("hgrw.cli")

    record = {"commands": [], "setup_end": None}
    for argv in WORKLOADS[args.workload].calls(args.work, args.seed, traced=tracer is not None):
        out = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                if tracer:
                    rc = tracer.call(f"cli.{argv[0]}", cli.main, argv)
                else:
                    rc = cli.main(argv)
        except Exception:  # a raising command is a failed operation, not a crashed round
            rc, error = None, traceback.format_exc()
        end = time.perf_counter()
        if argv[0] == "synth" and record["setup_end"] is None:
            record["setup_end"] = end
        record["commands"].append(
            {"argv": argv, "rc": rc, "seconds": end - start, "stdout": out.getvalue(), "error": error}
        )
    record["peak_rss_mb"] = peak_rss_mb()
    if tracer:
        record["trace"] = {"spans": tracer.spans, "counts": dict(tracer.counts), "peaks_mb": tracer.peaks_mb}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()

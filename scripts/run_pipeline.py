#!/usr/bin/env python3
"""End-to-end demo on a planted heterophilous graph.

Generates a dataset, trains the similarity learner, rewires the meta-path
subgraphs and prints the before/after homophily table.
"""

import argparse
import json
import os
import sys

from hgrw.cli import main as hgrw_main


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", default="pipeline_out")
    ap.add_argument("--nodes", type=int, default=500)
    ap.add_argument("--homophily", type=float, default=0.3)
    ap.add_argument("--epochs-attr", type=int, default=200)
    ap.add_argument("--epochs-label", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    ds = os.path.join(args.workdir, "dataset")
    model = os.path.join(args.workdir, "model.msl")
    out = os.path.join(args.workdir, "rewired")

    steps = [
        ["synth", "--out", ds, "--target-nodes", str(args.nodes),
         "--p-self", str(args.homophily), "--p-self", str(args.homophily),
         "--seed", str(args.seed)],
        ["inspect", ds],
        ["train", ds, "--out", model, "--epochs-attr", str(args.epochs_attr),
         "--epochs-label", str(args.epochs_label), "--seed", str(args.seed)],
        ["rewire", ds, "--model", model, "--out", out],
    ]
    for step in steps:
        print(f"\n$ hgrw {' '.join(step)}")
        rc = hgrw_main(step)
        if rc != 0:
            return rc

    with open(os.path.join(out, "homophily_report.json")) as fh:
        report = json.load(fh)
    print("\nper-path homophily:")
    for row in report["paths"]:
        print(f"  {row['metapath']:<16} {row['hr_before']:.3f} -> {row['hr_after']:.3f}")
    print(f"max ratio: {report['mh_before']:.3f} -> {report['mh_after']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(run())

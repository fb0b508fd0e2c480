#!/usr/bin/env python3
"""Sweep planted edge homophily and report the class-geometry complexity of a
one-layer mean aggregation, averaged over seeds. Lower is better; the value
should fall as homophily rises."""

import argparse
import sys

import numpy as np

from hgrw import (
    MetaPath,
    SynthConfig,
    complexity_measure,
    compose_metapath,
    mean_aggregation,
    synth_generate,
)


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, default=300)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--levels", type=float, nargs="+", default=[0.6, 0.7, 0.8, 0.9, 1.0])
    args = ap.parse_args(argv)

    print(f"{'homophily':>10} {'complexity':>12} {'std':>10}")
    for p in args.levels:
        vals = []
        for seed in range(args.seeds):
            g = synth_generate(
                SynthConfig(target_nodes=args.nodes, num_classes=2,
                            self_homophily=(p,), mean_degree=8.0, seed=seed)
            )
            reps = mean_aggregation(compose_metapath(g, MetaPath((0,))), g)
            vals.append(complexity_measure(reps, g.labels))
        print(f"{p:>10.2f} {np.mean(vals):>12.4f} {np.std(vals):>10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(run())

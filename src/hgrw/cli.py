"""Command-line pipeline: inspect | synth | train | rewire | diag.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .diagnostics import complexity_measure, homophily_report, mean_aggregation
from .dataio import atomic_write, load_graph, save_graph
from .errors import DataError, NumericError, UndefinedMeasureError, UsageError
from .graph import HeteroGraph
from .learner import LearnerConfig, read_checkpoint, save_history_csv, save_model, train
from .metapath import MetaPath, compose_metapath, enumerate_metapaths, max_homophily, measure_paths, path_label
from .rewire import RewireConfig, merge_into_graph, rewire_metapath, save_plan_tsv, score_candidates
from .synth import SynthConfig, synth_generate
from .targets import TargetsConfig


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage failures are code 1
        raise UsageError(message)


def _config(cls, args):
    """Build a config dataclass from the fields that ``args`` holds (a flag
    left out is absent, so the dataclass default applies); a field its checks
    reject is a usage error."""
    given = {}
    for f in dataclasses.fields(cls):
        if hasattr(args, f.name):
            value = getattr(args, f.name)
            given[f.name] = tuple(value) if isinstance(value, list) else value
    try:
        return cls(**given)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _resolve_paths(g: HeteroGraph, max_len: int, whitelist: list[str] | None) -> list[MetaPath]:
    if whitelist:
        paths = []
        for text in whitelist:
            names = [s.strip() for s in text.split(",") if s.strip()]
            if not names:
                raise UsageError(f"empty --path value {text!r}")
            try:
                ids = tuple(g.schema.relation_named(nm).rel_id for nm in names)
            except KeyError as exc:
                raise DataError(str(exc)) from None
            paths.append(MetaPath(ids))
        return paths
    try:
        return enumerate_metapaths(g.schema, g.target_type, max_len)
    except ValueError as exc:
        raise UsageError(f"--max-path-len: {exc}") from None


def _cmd_inspect(args) -> int:
    g = load_graph(args.dataset)
    paths = _resolve_paths(g, args.max_path_len, args.path)
    print(f"{'metapath':<24}{'hr':>10}{'edges':>10}{'coverage':>10}")
    by_label = []
    for path, sub, h in measure_paths(g, paths):
        label = path_label(g.schema, path)
        if h is None:
            print(f"{label:<24}{'n/a':>10}{sub.adjacency.nnz:>10}{'n/a':>10}")
        else:
            print(f"{label:<24}{h.ratio:>10.4f}{h.edges:>10}{h.coverage:>10.4f}")
        by_label.append((h, label))
    mh, best = max_homophily(by_label)
    print(f"mh {mh:.4f} ({best})")
    return 0


def _cmd_synth(args) -> int:
    g = synth_generate(_config(SynthConfig, args))
    save_graph(g, args.out)
    print(f"wrote {args.out}: {g.target_count} target nodes, {len(g.schema.relations)} relations")
    return 0


def _cmd_train(args) -> int:
    g = load_graph(args.dataset)
    paths = _resolve_paths(g, args.max_path_len, args.path)
    if not paths:
        raise DataError("no meta-path to train on (raise --max-path-len or pass --path)")
    tcfg = _config(TargetsConfig, args)
    cfg = _config(LearnerConfig, args)
    model, history = train(g, paths, tcfg, cfg)
    save_model(model, args.out, extra_meta={"targets": {"alpha": tcfg.alpha, "num_hops": cfg.num_hops}})
    labels = [path_label(g.schema, p) for p in paths]
    loss_csv = args.loss_csv or args.out + ".loss.csv"
    save_history_csv(history, labels, loss_csv)
    final = history[-1]
    print(f"trained {len(paths)} meta-paths, {final.epoch} epochs; final losses "
          + " ".join(f"{lbl}={ls:.4g}" for lbl, ls in zip(labels, final.losses)))
    print(f"wrote {args.out} and {loss_csv}")
    return 0


def _cmd_rewire(args) -> int:
    cfg = _config(RewireConfig, args)
    g = load_graph(args.dataset)
    model = read_checkpoint(args.model).model(g)

    plans, pairs, changed = [], [], []
    for path in model.paths:
        sub = compose_metapath(g, path)
        rewired, plan = rewire_metapath(sub, score_candidates(model, sub, cfg), cfg)
        plans.append(plan)
        pairs.append((sub, rewired))
        if not plan.empty:
            changed.append(rewired)

    report = homophily_report(g.schema, pairs, g.labels)  # before any write: it can fail
    save_graph(merge_into_graph(g, changed), args.out)
    save_plan_tsv(plans, g.schema, os.path.join(args.out, "rewire_plan.tsv"))
    with atomic_write(os.path.join(args.out, "homophily_report.json"), "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    with atomic_write(os.path.join(args.out, "homophily_report.tsv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(report.tsv_lines()) + "\n")
    n_add = sum(len(p.additions) for p in plans)
    n_del = sum(len(p.removals) for p in plans)
    print(f"rewired {len(changed)}/{len(plans)} meta-paths (+{n_add} proposals, -{n_del} prunes)")
    print(f"mh {report.mh_before:.4f} -> {report.mh_after:.4f}; wrote {args.out}")
    return 0


def _cmd_diag(args) -> int:
    g = load_graph(args.dataset)
    paths = _resolve_paths(g, args.max_path_len, args.path)
    rows, measured = [], []
    labeled = g.labels >= 0
    for path, sub, h in measure_paths(g, paths):
        measured.append((h, path))
        if h is None:
            continue
        reps = mean_aggregation(sub, g)
        try:
            complexity = complexity_measure(reps[labeled], g.labels[labeled])
        except UndefinedMeasureError:
            complexity = None
        rows.append(
            {
                "metapath": path_label(g.schema, path),
                "hr": h.ratio,
                "coverage": h.coverage,
                "edges": h.edges,
                "complexity": complexity,
            }
        )
    mh, _ = max_homophily(measured)
    doc = {"paths": rows, "mh": mh}
    with atomic_write(args.report, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.report} ({len(rows)} meta-paths, mh {mh:.4f})")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="hgrw", description="Homophily-oriented heterogeneous graph rewiring")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        # a flag left out stays out of the namespace, so _config falls back
        # to its dataclass default
        return sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)

    def add_path_args(p):
        p.add_argument("--max-path-len", type=int, default=2, help="meta-path length bound")
        p.add_argument("--path", action="append", default=None, metavar="REL[,REL...]",
                       help="explicit meta-path as comma-separated relation names (repeatable)")

    p = command("inspect", "per-meta-path homophily table")
    p.add_argument("dataset")
    add_path_args(p)
    p.set_defaults(func=_cmd_inspect)

    p = command("synth", "generate a planted-homophily dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--target-nodes", type=int)
    p.add_argument("--classes", dest="num_classes", type=int)
    p.add_argument("--feature-dim", type=int)
    p.add_argument("--p-self", dest="self_homophily", type=float, action="append",
                   help="per self-relation edge homophily (repeatable)")
    p.add_argument("--aux-size", dest="aux_sizes", type=int, action="append")
    p.add_argument("--p-aux", dest="aux_homophily", type=float, action="append")
    p.add_argument("--mean-degree", type=float)
    p.add_argument("--mu", dest="mean_separation", type=float, help="class mean separation")
    p.add_argument("--sigma", dest="noise_scale", type=float, help="feature noise scale")
    p.add_argument("--train-ratio", type=float)
    p.add_argument("--val-ratio", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_synth)

    p = command("train", "fit the meta-path similarity learner")
    p.add_argument("dataset")
    p.add_argument("--out", required=True, help="checkpoint file")
    add_path_args(p)
    p.add_argument("--num-hops", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--epochs-attr", type=int)
    p.add_argument("--epochs-label", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--k1", dest="batch_rows", type=int)
    p.add_argument("--k2", dest="batch_cols", type=int)
    p.add_argument("--hidden-dim", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--concat-dist", dest="concat_distribution_features", action="store_true",
                   help="concatenate distribution features onto the hop encodings")
    p.add_argument("--label-only-finetune", dest="keep_attr_in_finetune", action="store_false",
                   help="drop the attribute loss during the fine-tune phase")
    p.add_argument("--loss-csv", default=None, help="loss history path (default: <out>.loss.csv)")
    p.set_defaults(func=_cmd_train)

    p = command("rewire", "rewire meta-path subgraphs with a trained model")
    p.add_argument("dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--edge-budget", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--two-hop-only", dest="restrict_two_hop", action="store_true",
                   help="restrict candidates to two-hop neighborhoods of the subgraph")
    p.set_defaults(func=_cmd_rewire)

    p = command("diag", "homophily and complexity report")
    p.add_argument("dataset")
    p.add_argument("--report", required=True, help="output JSON path")
    add_path_args(p)
    p.set_defaults(func=_cmd_diag)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"hgrw: usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:  # OSError: a path that cannot be read or written
        print(f"hgrw: data error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, MemoryError) as exc:
        print(f"hgrw: numeric failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

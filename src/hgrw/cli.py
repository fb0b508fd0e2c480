"""Command-line pipeline: inspect | synth | train | rewire | diag.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .diagnostics import ComplexityInputs, complexity_measure, homophily_report, mean_aggregation
from .dataio import atomic_write, load_graph, save_graph
from .errors import DataError, NumericError, UndefinedMeasureError, UsageError
from .graph import HeteroGraph
from .learner import LearnerConfig, read_checkpoint, save_history_csv, save_model, train
from .metapath import MetaPath, compose_metapath, enumerate_metapaths, max_homophily, measure_paths, path_label
from .rewire import RewireConfig, merge_into_graph, rewire_metapath, save_plan_tsv, score_candidates
from .synth import SynthConfig, synth_generate
from .targets import TargetsConfig, similarity_targets


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage failures are code 1
        raise UsageError(message)


def _config(cls, **fields):
    """Build a config dataclass; a field its checks reject is a usage error."""
    try:
        return cls(**fields)
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
    cfg = SynthConfig(
        target_nodes=args.target_nodes,
        num_classes=args.classes,
        feature_dim=args.feature_dim,
        self_homophily=tuple(args.p_self) if args.p_self else (0.3, 0.3),
        aux_sizes=tuple(args.aux_size or ()),
        aux_homophily=tuple(args.p_aux or ()),
        mean_degree=args.mean_degree,
        mean_separation=args.mu,
        noise_scale=args.sigma,
        train_ratio=args.train_ratio,
        val_ratio=args.val_ratio,
        seed=args.seed,
    )
    try:
        g = synth_generate(cfg)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    save_graph(g, args.out)
    print(f"wrote {args.out}: {g.target_count} target nodes, {len(g.schema.relations)} relations")
    return 0


def _build_targets(g: HeteroGraph, paths: list[MetaPath], tcfg: TargetsConfig):
    out = []
    for path in paths:
        sub = compose_metapath(g, path, symmetrize=True)
        out.append(similarity_targets(sub, g, tcfg)[1])
    return out


def _cmd_train(args) -> int:
    g = load_graph(args.dataset)
    paths = _resolve_paths(g, args.max_path_len, args.path)
    if not paths:
        raise DataError("no meta-path to train on (raise --max-path-len or pass --path)")
    tcfg = _config(TargetsConfig, num_hops=args.num_hops, alpha=args.alpha)
    cfg = _config(
        LearnerConfig,
        hidden_dim=args.hidden_dim,
        num_hops=args.num_hops,
        epochs_attr=args.epochs_attr,
        epochs_label=args.epochs_label,
        learning_rate=args.lr,
        weight_decay=args.weight_decay,
        batch_rows=args.k1,
        batch_cols=args.k2,
        concat_distribution_features=args.concat_dist,
        keep_attr_in_finetune=not args.label_only_finetune,
        seed=args.seed,
    )
    targets = _build_targets(g, paths, tcfg)
    model, history = train(g, paths, targets, cfg)
    save_model(model, args.out, extra_meta={"targets": dataclasses.asdict(tcfg)})
    labels = [path_label(g.schema, p) for p in paths]
    loss_csv = args.loss_csv or args.out + ".loss.csv"
    save_history_csv(history, labels, loss_csv)
    final = history[-1]
    print(f"trained {len(paths)} meta-paths, {final.epoch} epochs; final losses "
          + " ".join(f"{lbl}={ls:.4g}" for lbl, ls in zip(labels, final.losses)))
    print(f"wrote {args.out} and {loss_csv}")
    return 0


def _cmd_rewire(args) -> int:
    cfg = _config(
        RewireConfig,
        edge_budget=args.edge_budget,
        epsilon=args.epsilon,
        gamma=args.gamma,
        block_size=args.block_size,
        restrict_two_hop=args.two_hop_only,
    )
    g = load_graph(args.dataset)
    ckpt = read_checkpoint(args.model)
    targets = None
    if ckpt.cfg.concat_distribution_features:
        ckpt.check_graph(g)  # the targets compose the checkpoint's paths on g
        try:
            tmeta = ckpt.header.get("meta", {}).get("targets", {})
            tcfg = TargetsConfig(
                num_hops=tmeta.get("num_hops", ckpt.cfg.num_hops), alpha=tmeta.get("alpha", 0.6)
            )
        except (AttributeError, TypeError, ValueError) as exc:
            raise DataError(f"{args.model}: bad targets metadata ({exc})") from None
        targets = _build_targets(g, ckpt.paths, tcfg)
    model = ckpt.model(g, targets)

    plans, changed = [], []
    for path in model.paths:
        sub = compose_metapath(g, path, symmetrize=True)
        cands = score_candidates(model, path, cfg, sub=sub)
        rewired, plan = rewire_metapath(sub, cands, model, cfg)
        plans.append(plan)
        if not plan.empty:
            changed.append(rewired)

    merged = merge_into_graph(g, changed)
    save_graph(merged, args.out)
    save_plan_tsv(plans, g.schema, os.path.join(args.out, "rewire_plan.tsv"))
    report = homophily_report(g, merged, list(model.paths), g.labels)
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
        complexity = None
        if np.unique(g.labels[labeled]).size >= 2:
            reps = mean_aggregation(sub, g)
            try:
                complexity = complexity_measure(
                    ComplexityInputs(reps[labeled], g.labels[labeled])
                )
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

    def add_path_args(p):
        p.add_argument("--max-path-len", type=int, default=2, help="meta-path length bound")
        p.add_argument("--path", action="append", metavar="REL[,REL...]",
                       help="explicit meta-path as comma-separated relation names (repeatable)")

    p = sub.add_parser("inspect", help="per-meta-path homophily table")
    p.add_argument("dataset")
    add_path_args(p)
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("synth", help="generate a planted-homophily dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--target-nodes", type=int, default=500)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--feature-dim", type=int, default=8)
    p.add_argument("--p-self", type=float, action="append",
                   help="per self-relation edge homophily (repeatable; default two at 0.3)")
    p.add_argument("--aux-size", type=int, action="append")
    p.add_argument("--p-aux", type=float, action="append")
    p.add_argument("--mean-degree", type=float, default=8.0)
    p.add_argument("--mu", type=float, default=2.0, help="class mean separation")
    p.add_argument("--sigma", type=float, default=1.0, help="feature noise scale")
    p.add_argument("--train-ratio", type=float, default=0.5)
    p.add_argument("--val-ratio", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="fit the meta-path similarity learner")
    p.add_argument("dataset")
    p.add_argument("--out", required=True, help="checkpoint file")
    add_path_args(p)
    p.add_argument("--num-hops", type=int, default=1)
    p.add_argument("--alpha", type=float, default=0.6)
    p.add_argument("--epochs-attr", type=int, default=200)
    p.add_argument("--epochs-label", type=int, default=30)
    p.add_argument("--lr", type=float, default=5e-4)
    p.add_argument("--weight-decay", type=float, default=1e-4)
    p.add_argument("--k1", type=int, default=1000)
    p.add_argument("--k2", type=int, default=1000)
    p.add_argument("--hidden-dim", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--concat-dist", action="store_true",
                   help="concatenate distribution features onto the hop encodings")
    p.add_argument("--label-only-finetune", action="store_true",
                   help="drop the attribute loss during the fine-tune phase")
    p.add_argument("--loss-csv", help="loss history path (default: <out>.loss.csv)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("rewire", help="rewire meta-path subgraphs with a trained model")
    p.add_argument("dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--edge-budget", type=int, default=6)
    p.add_argument("--epsilon", type=float, default=0.6)
    p.add_argument("--gamma", type=float, default=-1.0)
    p.add_argument("--block-size", type=int, default=512)
    p.add_argument("--two-hop-only", action="store_true",
                   help="restrict candidates to two-hop neighborhoods of the subgraph")
    p.set_defaults(func=_cmd_rewire)

    p = sub.add_parser("diag", help="homophily and complexity report")
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
    except DataError as exc:
        print(f"hgrw: data error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, MemoryError) as exc:
        print(f"hgrw: numeric failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

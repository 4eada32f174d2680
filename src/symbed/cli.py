"""Command-line front end: stats, rank, embed, eval, reproduce.

Exit status: 0 on success, 1 on usage errors, 2 on data errors.
Flag defaults are read from the library's configs; the loaders check input files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import reference
from .embedding import (METRICS, EmbeddingConfig, EmbeddingFormatError, _embed,
                        load_embedding, save_embedding)
from .evaluation import (ProtocolConfig, ProtocolError,
                         random_embedding, run_protocol, run_protocol_lp)
from .graph import (GraphFormatError, LabelError, dataset_stats,
                    load_edge_list, load_labels)
from .ranking import PageRankConfig, pagerank, rank_nodes
from .walks import WalkConfig, _uniform_lengths, dump_hashes

_DATA_ERRORS = (GraphFormatError, LabelError, EmbeddingFormatError,
                ProtocolError, FileNotFoundError, IsADirectoryError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _walk_config(args) -> WalkConfig:
    if args.max_len < 1:
        raise ValueError(f"--max-len must be >= 1, got {args.max_len}")
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    return WalkConfig(length_probs=_uniform_lengths(args.max_len),
                      num_walks=args.num_walks, epsilon=args.epsilon,
                      seed=args.seed, weighted=args.weighted)


def _pagerank_config(args) -> PageRankConfig:
    return PageRankConfig(damping=args.damping, pure_power=args.pure_power)


def _embedding_config(args, mode: str) -> EmbeddingConfig:
    return EmbeddingConfig(mode=mode, d=args.dim, budget_dim=args.budget_dim,
                           bins=args.bins, metric=args.metric,
                           walk=_walk_config(args), pagerank=_pagerank_config(args))


def _add_walk_flags(p):
    p.add_argument("--seed", type=int, default=WalkConfig.seed,
                   help="global random seed")
    p.add_argument("--workers", type=int, default=1,
                   help="threads for hashing and for scoring pivot column "
                        "chunks (outputs are the same for any count)")
    p.add_argument("--epsilon", type=float, default=WalkConfig.epsilon,
                   help="hash pruning threshold")
    p.add_argument("--max-len", type=int, default=WalkConfig().max_len,
                   help="maximum walk length (lengths drawn uniformly)")
    p.add_argument("--num-walks", type=int, default=WalkConfig.num_walks,
                   help="walks per node")
    p.add_argument("--weighted", action="store_true",
                   help="sample neighbors proportionally to arc weight")


def _add_embed_flags(p):
    p.add_argument("--dim", type=int, default=EmbeddingConfig.d,
                   help="pivot columns (fixed mode)")
    p.add_argument("--sdf", action="store_true",
                   help="size-budgeted mode: add columns until the value budget runs out")
    p.add_argument("--budget-dim", type=int, default=EmbeddingConfig.budget_dim,
                   help="sdf budget in equivalent dense columns")
    p.add_argument("--bins", type=int, default=EmbeddingConfig.bins,
                   help="quantization bins (0 disables; default: 0 fixed / 256 sdf)")
    p.add_argument("--metric", default=EmbeddingConfig.metric, choices=METRICS)


def _add_pagerank_flags(p):
    p.add_argument("--damping", type=float, default=PageRankConfig.damping)
    p.add_argument("--pure-power", action="store_true",
                   help="literal undamped iteration, no dangling handling")


def _add_protocol_flags(p):
    p.add_argument("--fractions", default=",".join(map(str, ProtocolConfig.train_fractions)),
                   help="comma-separated train fractions in (0,1)")
    p.add_argument("--shuffles", type=int, default=ProtocolConfig.shuffles)
    p.add_argument("--reps", type=int, default=ProtocolConfig.repetitions)


def _protocol_config(args) -> ProtocolConfig:
    try:
        fractions = tuple(float(f) for f in args.fractions.split(","))
    except ValueError as exc:
        raise ValueError(f"--fractions: {exc}") from None
    return ProtocolConfig(train_fractions=fractions, shuffles=args.shuffles,
                          repetitions=args.reps, seed=args.seed)


def _load_graph(args):
    return load_edge_list(args.edges, directed=args.directed)


def cmd_stats(args) -> int:
    g = _load_graph(args)
    labels = load_labels(args.labels, g.num_nodes) if args.labels else None
    print(dataset_stats(g, labels).to_json())
    return 0


def cmd_rank(args) -> int:
    g = _load_graph(args)
    scores = pagerank(g, _pagerank_config(args))
    for node in rank_nodes(scores):
        print(f"{node}\t{scores[node]:.10f}")
    return 0


def cmd_embed(args) -> int:
    g = _load_graph(args)
    cfg = _embedding_config(args, "sdf" if args.sdf else "fixed")
    emb, hashes, seconds = _embed(g, cfg, args.workers)
    if args.dump_hashes:
        dump_hashes(hashes, args.dump_hashes)
    del hashes
    save_embedding(emb, args.out)
    for stage, t in seconds.items():
        print(f"{stage}\t{t:.3f}", file=sys.stderr)
    print(f"embedding: {emb.num_nodes} x {emb.num_columns}, "
          f"{emb.nnz} stored values ({emb.value_bits}-bit)")
    return 0


def cmd_eval(args) -> int:
    emb = load_embedding(args.embedding)
    labels = load_labels(args.labels, emb.num_nodes)
    cfg = _protocol_config(args)
    if args.baseline == "lp":
        if not args.edges:
            raise ProtocolError("--baseline lp requires --edges")
        report = run_protocol_lp(_load_graph(args), labels, cfg, alpha=args.alpha)
    else:
        if args.baseline == "random":
            emb = random_embedding(emb.num_nodes, seed=args.seed)
        report = run_protocol(emb, labels, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    (out / "report.tsv").write_text(report.to_tsv(), encoding="utf-8")
    print(f"aggregate micro F1 {report.aggregate_micro:.4f}, "
          f"macro F1 {report.aggregate_macro:.4f}")
    return 0


def _reproduce_rows(args, g, labels, cfg):
    rows = []
    for mode in ("fixed", "sdf"):
        ecfg = _embedding_config(args, mode)

        def build(rep, ecfg=ecfg):
            walk = dataclasses.replace(ecfg.walk, seed=args.seed + rep)
            return _embed(g, dataclasses.replace(ecfg, walk=walk), args.workers)[0]

        if args.reuse_embedding:
            report = run_protocol(build(0), labels, cfg)
        else:
            report = run_protocol(None, labels, cfg, embedding_factory=build)
        rows.append((mode, report))
    rows.append(("random",
                 run_protocol(random_embedding(g.num_nodes, seed=args.seed), labels, cfg)))
    rows.append(("label_propagation", run_protocol_lp(g, labels, cfg, alpha=args.alpha)))
    return rows


def cmd_reproduce(args) -> int:
    name = args.dataset
    if name not in reference.DATASET_NAMES:
        print(f"unknown dataset {name!r}; bundled references: "
              f"{', '.join(reference.DATASET_NAMES)}", file=sys.stderr)
        return 1
    base = Path(args.data_dir) / name
    args.edges = base / "edges.tsv"
    args.labels = base / "labels.tsv"
    g = _load_graph(args)
    labels = load_labels(args.labels, g.num_nodes)

    stats = dataset_stats(g, labels)
    ref = reference.DATASET_STATS[name]
    print(f"# {name}: nodes {stats.nodes} (ref {ref[0]}), edges {stats.edges} "
          f"(ref {ref[1]}), components {stats.components} (ref {ref[2]}), "
          f"classes {stats.classes} (ref {ref[3]})")

    cfg = _protocol_config(args)
    rows = _reproduce_rows(args, g, labels, cfg)
    print("method\tmicro_f1\tref_micro\tdelta_micro\tmacro_f1\tref_macro\tdelta_macro")
    for method, report in rows:
        rmic = reference.REFERENCE_MICRO_F1[name][method][0]
        rmac = reference.REFERENCE_MACRO_F1[name][method][0]
        print(f"{method}\t{report.aggregate_micro:.3f}\t{rmic:.3f}"
              f"\t{report.aggregate_micro - rmic:+.3f}"
              f"\t{report.aggregate_macro:.3f}\t{rmac:.3f}"
              f"\t{report.aggregate_macro - rmac:+.3f}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        payload = {m: json.loads(r.to_json()) for m, r in rows}
        (out / f"{name}_reproduce.json").write_text(
            json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="symbed",
                     description="Sparse symbolic node embeddings and their evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="dataset statistics as single-line JSON")
    p.add_argument("--edges", required=True)
    p.add_argument("--labels")
    p.add_argument("--directed", action="store_true")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("rank", help="PageRank scores, descending")
    p.add_argument("--edges", required=True)
    p.add_argument("--directed", action="store_true")
    _add_pagerank_flags(p)
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("embed", help="build and save an embedding triple")
    p.add_argument("--edges", required=True)
    p.add_argument("--out", required=True, help="output directory for the triple")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--dump-hashes", help="also dump hash vectors to this path")
    _add_walk_flags(p)
    _add_embed_flags(p)
    _add_pagerank_flags(p)
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("eval", help="run the classification protocol on an embedding")
    p.add_argument("embedding", help="directory holding the embedding triple")
    p.add_argument("--labels", required=True)
    p.add_argument("--edges", help="edge list (needed for --baseline lp)")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=ProtocolConfig.seed)
    p.add_argument("--baseline", choices=["lp", "random"])
    p.add_argument("--alpha", type=float, default=0.9)
    _add_protocol_flags(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("reproduce",
                       help="embed + evaluate a bundled dataset and compare to references")
    p.add_argument("dataset")
    p.add_argument("--data-dir", default="data")
    p.add_argument("--out")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--alpha", type=float, default=0.9)
    p.add_argument("--reuse-embedding", action="store_true",
                   help="build one embedding instead of one per repetition")
    _add_walk_flags(p)
    _add_embed_flags(p)
    _add_pagerank_flags(p)
    _add_protocol_flags(p)
    p.set_defaults(fn=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.fn(args)
    except (*_DATA_ERRORS, ValueError) as exc:
        print(f"symbed {args.command}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _DATA_ERRORS) else 1


if __name__ == "__main__":
    sys.exit(main())

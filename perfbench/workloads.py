"""Workloads of the symbed benchmark: inputs, one timed iteration, checks.

A workload is a pipeline and an input size.  ``generate`` builds the input
files from the seed with ``symbed.synth``; ``setup`` loads them, and an
iteration runs the pipeline on the loaded graph only.  Every iteration checks
its own outputs and returns the failed checks with its measurements.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from symbed import (EmbeddingConfig, ProtocolConfig, WalkConfig, embed_fixed,
                    embed_sdf, load_edge_list, load_embedding, load_labels,
                    planted_partition, random_embedding, random_graph,
                    run_protocol, run_protocol_lp, save_embedding,
                    write_edge_list)

EDGES = "edges.tsv"
LABELS = "labels.tsv"
META = "meta.json"

# The program's own seed (walks, splits, random baseline), as the CLI
# default.  The workload seed makes only the input files: varying the shared
# walk-length sample with it would move embedding_nnz by about 6%.
PROGRAM_SEED = 0

# Protocol: repetitions (one shuffle each) and the random baseline's width.
REPS, RANDOM_DIM = 2, 64
# The fixed embedding must beat the random baseline by this much micro F1 on
# a planted partition; the gap is about 0.7 at cora size.
MIN_F1_GAIN = 0.3


@dataclass(frozen=True)
class Spec:
    """One workload at one scale.

    ``kind`` is "embed" (embed, save, load back) or "protocol" (the
    shuffled-split protocol for the fixed embedding, the random baseline
    and label propagation).  Embed inputs come from ``random_graph``,
    protocol inputs from ``planted_partition``.
    """

    kind: str
    nodes: int
    arcs_per_node: int = 0
    blocks: int = 0
    p_in: float = 0.0
    p_out: float = 0.0
    mode: str = "fixed"
    num_walks: int = 1024
    d: int = 2048
    budget_dim: int = 256
    bins: int | None = None
    workers: int = 1

    def embedding_config(self, walk_seed: int) -> EmbeddingConfig:
        return EmbeddingConfig(mode=self.mode, d=self.d,
                               budget_dim=self.budget_dim, bins=self.bins,
                               walk=WalkConfig(num_walks=self.num_walks,
                                               seed=walk_seed))


# "full" is what the benchmark measures; "tiny" runs the same code and
# checks in a second or two, for the benchmark's own test.
WORKLOADS = {
    "full": {
        "embed-fixed-20k": Spec("embed", 20_000, arcs_per_node=2),
        "embed-sdf-40k": Spec("embed", 40_000, arcs_per_node=8, mode="sdf",
                              num_walks=128, budget_dim=128, bins=256,
                              workers=2),
        "protocol-cora": Spec("protocol", 2708, blocks=7, p_in=0.004,
                              p_out=0.0008),
    },
    "tiny": {
        "embed-fixed-20k": Spec("embed", 400, arcs_per_node=2, num_walks=64,
                                d=64),
        "embed-sdf-40k": Spec("embed", 800, arcs_per_node=8, mode="sdf",
                              num_walks=32, budget_dim=16, bins=256,
                              workers=2),
        "protocol-cora": Spec("protocol", 350, blocks=7, p_in=0.08,
                              p_out=0.004, num_walks=64, d=64),
    },
}


def _targets_sha256(g) -> str:
    return hashlib.sha256(g.targets.astype(np.int64).tobytes()).hexdigest()


def _files_digest(directory: Path) -> tuple[str, int]:
    """Digest over the names and bytes of every file, and their total size."""
    h = hashlib.sha256()
    size = 0
    for p in sorted(directory.iterdir()):
        data = p.read_bytes()
        h.update(p.name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def generate(spec: Spec, seed: int, out_dir: Path) -> None:
    """Write the workload's input files and what loading them must give."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if spec.kind == "embed":
        g = random_graph(spec.nodes, spec.arcs_per_node, seed=seed)
        labels = None
    else:
        g, labels = planted_partition(spec.nodes, spec.blocks, spec.p_in,
                                      spec.p_out, seed=seed)
    write_edge_list(g, out_dir / EDGES)
    # the loaded graph spans ids 0..max id, so a trailing isolated node drops
    n = int(np.flatnonzero(g.out_degrees)[-1]) + 1
    meta = {"num_nodes": n, "arcs": g.num_edges,
            "targets_sha256": _targets_sha256(g)}
    if labels is not None:
        with open(out_dir / LABELS, "w", encoding="utf-8") as fh:
            for i, s in enumerate(labels.labels):
                fh.write(f"{i}\t{','.join(str(c) for c in sorted(s))}\n")
        meta["num_classes"] = labels.num_classes
    (out_dir / META).write_text(json.dumps(meta), encoding="utf-8")


def setup(in_dir: Path, tracer) -> tuple:
    """Load the input files; return (graph, labels or None, failed checks)."""
    with tracer.span("graph.load_edge_list"):
        g = load_edge_list(in_dir / EDGES)
    labels = None
    if (in_dir / LABELS).exists():
        with tracer.span("graph.load_labels"):
            labels = load_labels(in_dir / LABELS, g.num_nodes)
    meta = json.loads((in_dir / META).read_text(encoding="utf-8"))
    failures = []
    got = {"num_nodes": g.num_nodes, "arcs": g.num_edges,
           "targets_sha256": _targets_sha256(g)}
    if labels is not None:
        got["num_classes"] = labels.num_classes
        if len(labels.labeled_nodes()) != g.num_nodes:
            failures.append("labels: some nodes are unlabeled")
    if got != meta:
        failures.append(f"load: got {got}, expected {meta}")
    return g, labels, failures


def _same_embedding(a, b) -> bool:
    ma, mb = a.matrix.tocsr(), b.matrix.tocsr()
    ma.sort_indices()
    mb.sort_indices()
    return (ma.shape == mb.shape and np.array_equal(ma.indptr, mb.indptr)
            and np.array_equal(ma.indices, mb.indices)
            and np.array_equal(ma.data, mb.data)
            and np.array_equal(a.ind, b.ind) and a.config == b.config
            and a.value_bits == b.value_bits)


def _embedding_checks(spec: Spec, e, n: int) -> list[str]:
    failures = []
    if spec.mode == "fixed" and e.matrix.shape != (n, spec.d):
        failures.append(f"fixed embedding shape {e.matrix.shape} != {(n, spec.d)}")
    if spec.mode == "sdf":
        # documented rule: the column that crosses the budget is kept, so
        # the values before the last column fit n * budget_dim
        m = e.matrix.tocsc()
        last = int(m.indptr[-1] - m.indptr[-2]) if m.shape[1] else 0
        if e.nnz - last > n * spec.budget_dim:
            failures.append(f"sdf nnz {e.nnz} minus last column {last} "
                            f"exceeds budget {n * spec.budget_dim}")
    return failures


def _embedding_facts(spec: Spec, e, n: int) -> dict:
    return {"nnz": e.nnz, "columns": e.num_columns,
            "value_bytes": e.value_payload_bytes,
            "budget_left": n * spec.budget_dim - e.nnz if spec.mode == "sdf" else 0}


def run_embed(spec: Spec, g, labels, workers: int, out_dir: Path,
              tracer) -> dict:
    """Embed, save, and load back; wall time covers all three."""
    n = g.num_nodes
    cfg = spec.embedding_config(PROGRAM_SEED)
    embed = embed_fixed if spec.mode == "fixed" else embed_sdf
    t0 = time.perf_counter()
    with tracer.span(f"embedding.{embed.__name__}"):
        e = embed(g, cfg, workers=workers)
    t1 = time.perf_counter()
    with tracer.span("embedding.save_embedding"):
        save_embedding(e, out_dir)
    with tracer.span("embedding.load_embedding"):
        back = load_embedding(out_dir)
    t2 = time.perf_counter()
    digest, size = _files_digest(out_dir)
    failures = _embedding_checks(spec, e, n)
    if not _same_embedding(e, back):
        failures.append("save_embedding -> load_embedding is not exact")
    return {"wall_s": t2 - t0, "embed_s": t1 - t0, "nodes_embedded": n,
            "output_bytes": size, "digest": digest, "failures": failures,
            **_embedding_facts(spec, e, n)}


def run_protocols(spec: Spec, g, labels, workers: int, out_dir: Path,
                  tracer) -> dict:
    """Fixed embedding, random baseline and LP under one split schedule.

    The fixed embedding is rebuilt per repetition with walk seed
    PROGRAM_SEED + rep, as ``symbed reproduce`` does; the three reports are
    written as JSON.
    """
    n = g.num_nodes
    pcfg = ProtocolConfig(shuffles=1, repetitions=REPS, seed=PROGRAM_SEED)
    embeds = []

    def factory(rep):
        t = time.perf_counter()
        with tracer.span("embedding.embed_fixed"):
            e = embed_fixed(g, spec.embedding_config(PROGRAM_SEED + rep),
                            workers=workers)
        embeds.append((e, time.perf_counter() - t))
        return e

    t0 = time.perf_counter()
    with tracer.span("evaluation.run_protocol"):
        fixed = run_protocol(None, labels, pcfg, embedding_factory=factory)
    rand_emb = random_embedding(n, RANDOM_DIM, seed=PROGRAM_SEED)
    with tracer.span("evaluation.run_protocol"):
        rand = run_protocol(rand_emb, labels, pcfg)
    t1 = time.perf_counter()
    with tracer.span("evaluation.run_protocol_lp"):
        lp = run_protocol_lp(g, labels, pcfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, report in (("fixed", fixed), ("random", rand), ("lp", lp)):
        (out_dir / f"report_{name}.json").write_text(report.to_json(),
                                                     encoding="utf-8")
    t2 = time.perf_counter()

    digest, size = _files_digest(out_dir)
    failures = [f for e, _ in embeds for f in _embedding_checks(spec, e, n)]
    if len(embeds) != REPS:
        failures.append(f"{len(embeds)} embeddings built for {REPS} repetitions")
    gain = fixed.aggregate_micro - rand.aggregate_micro
    if not gain >= MIN_F1_GAIN:
        failures.append(f"fixed micro F1 {fixed.aggregate_micro:.4f} beats random "
                        f"{rand.aggregate_micro:.4f} by less than {MIN_F1_GAIN}")
    facts = [_embedding_facts(spec, e, n) for e, _ in embeds]
    fits = 2 * pcfg.repetitions * pcfg.shuffles * len(pcfg.train_fractions)
    return {"wall_s": t2 - t0, "embed_s": sum(t for _, t in embeds),
            "nodes_embedded": n * len(embeds), "output_bytes": size,
            "digest": digest, "failures": failures,
            **{k: float(np.mean([f[k] for f in facts])) for k in facts[0]},
            "fits": fits, "protocol_s": t1 - t0,
            "micro_f1": fixed.aggregate_micro, "macro_f1": fixed.aggregate_macro,
            "random_micro_f1": rand.aggregate_micro,
            "lp_micro_f1": lp.aggregate_micro,
            "empty_class_runs": (fixed.flags["runs_with_empty_train_class"]
                                 + rand.flags["runs_with_empty_train_class"])}


RUNNERS = {"embed": run_embed, "protocol": run_protocols}

"""The symbed benchmark: one workload, timed, checked, optionally traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it imports ``symbed`` from the
checkout's ``src`` and exits with code 2 if that is absent.  A child process
writes the workload's input files, made from ``--seed``; this process loads
them (set-up, repeated and timed) and then starts iterations of the workload
until ``--seconds`` have passed, at least three.  ``--trace 0`` prints the
end-to-end metrics named in ``BENCHMARK.json``; ``--trace 1`` runs one
warm-up iteration, then alternates untraced and traced ones, and prints the
per-layer metrics.  Every iteration checks its outputs.  The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  Outputs go to a temporary directory inside the checkout that is
removed before exit.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread in every run, whatever the machine: identical settings make
# runs comparable, and no measured path does dense BLAS work worth threading.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is repeated at least SETUP_REPEATS times and until it has taken
# SETUP_SECONDS, at most SETUP_MAX times; setup_s is the median.
SETUP_REPEATS, SETUP_SECONDS, SETUP_MAX = 5, 1.0, 50
# Untraced runs start iterations until --seconds have passed, at least this
# many, so that each end-to-end time is a median of three or more.
MIN_ITERATIONS = 3
LAYERS = ("graph", "walks", "ranking", "embedding", "evaluation")

# Spans each kind of workload must show in its traced iteration.
COMMON_SPANS = {"walks.hash_all", "ranking.pagerank", "ranking.rank_nodes"}
EXPECTED_SPANS = {
    "embed": COMMON_SPANS | {"embedding.save_embedding",
                             "embedding.load_embedding"},
    "protocol": COMMON_SPANS | {
        "embedding.embed_fixed", "evaluation.run_protocol",
        "evaluation.run_protocol_lp", "evaluation.train_logreg",
        "evaluation.logreg_loss_grad", "evaluation.topk_sets",
        "evaluation.micro_macro_f1", "evaluation.label_propagation"},
}

# Per-layer metric -> the spans it is measured on (a self time also needs its
# children).  When one of those spans should have run but did not, the metric
# is reported as null (missing).
METRIC_SPANS = {
    "walks.hash_s": ("walks.hash_all",),
    "walks.hash_nnz_per_row": ("walks.hash_all",),
    "ranking.pagerank_s": ("ranking.pagerank",),
    "ranking.converged": ("ranking.pagerank",),
    "embedding.columns_self_s": ("embedding.embed_fixed", "embedding.embed_sdf",
                                 *COMMON_SPANS),
    "embedding.save_s": ("embedding.save_embedding",),
    "embedding.load_s": ("embedding.load_embedding",),
    "evaluation.fit_s": ("evaluation.train_logreg",),
    "evaluation.fits": ("evaluation.train_logreg",),
    "evaluation.loss_grad_calls": ("evaluation.logreg_loss_grad",),
    "evaluation.loss_grad_s": ("evaluation.logreg_loss_grad",),
    "evaluation.evals_per_fit": ("evaluation.train_logreg",
                                 "evaluation.logreg_loss_grad"),
    "evaluation.topk_s": ("evaluation.topk_sets",),
    "evaluation.f1_s": ("evaluation.micro_macro_f1",),
    "evaluation.lp_s": ("evaluation.label_propagation",),
    "evaluation.protocol_self_s": ("evaluation.run_protocol",
                                   "evaluation.run_protocol_lp",
                                   "embedding.embed_fixed",
                                   "evaluation.train_logreg",
                                   "evaluation.topk_sets",
                                   "evaluation.micro_macro_f1",
                                   "evaluation.label_propagation"),
}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _commit(root: Path) -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "symbed").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports, if numpy bundles an OpenBLAS."""
    import numpy
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        cdll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(cdll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment(args, workers: int) -> dict:
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "scale": args.scale,
            "seconds": args.seconds, "trace": args.trace,
            "commit": _commit(ROOT), "src_sha256": _src_sha256(),
            "nproc": os.cpu_count(), "workers": workers,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": _blas_threads(),
            "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
            "machine": platform.machine()}


def _layer_metrics(kind: str, tracer, outcome: dict) -> tuple[dict, list[str]]:
    """Per-layer numbers of one traced iteration, and its failed checks."""
    from tracing import self_times
    spans = tracer.spans
    own = self_times(spans)
    total, self_s, count = defaultdict(float), defaultdict(float), Counter()
    for s in spans:
        total[s.name] += s.duration
        self_s[s.name] += own[s]
        count[s.name] += 1
    c = tracer.counters
    lg, fit = "evaluation.logreg_loss_grad", "evaluation.train_logreg"
    m = {
        "walks.hash_s": total["walks.hash_all"],
        "walks.hash_nnz_per_row": _ratio(c["walks.hash_nnz"], c["walks.hash_rows"]),
        "ranking.pagerank_s": total["ranking.pagerank"],
        "ranking.converged": _ratio(c["ranking.converged"], count["ranking.pagerank"]),
        "embedding.columns_self_s": self_s["embedding.embed_fixed"] + self_s["embedding.embed_sdf"],
        "embedding.columns": outcome["columns"],
        "embedding.sdf_budget_left": outcome["budget_left"],
        "embedding.value_bytes": outcome["value_bytes"],
        "embedding.save_s": total["embedding.save_embedding"],
        "embedding.load_s": total["embedding.load_embedding"],
        "evaluation.fit_s": total[fit],
        "evaluation.fits": count[fit],
        "evaluation.loss_grad_calls": count[lg],
        "evaluation.loss_grad_s": total[lg],
        "evaluation.evals_per_fit": _ratio(count[lg], count[fit]),
        "evaluation.topk_s": total["evaluation.topk_sets"],
        "evaluation.f1_s": total["evaluation.micro_macro_f1"],
        "evaluation.lp_s": total["evaluation.label_propagation"],
        "evaluation.protocol_self_s": (self_s["evaluation.run_protocol"]
                                       + self_s["evaluation.run_protocol_lp"]),
        "evaluation.empty_class_runs": outcome.get("empty_class_runs", 0),
        "trace.wall_s": outcome["wall_s"],
        "trace.self_sum_s": sum(own.values()),
    }
    layer_spans = Counter(s.layer for s in spans)
    for layer in LAYERS[1:]:
        m[f"{layer}.spans"] = layer_spans[layer]

    failures = []
    missing = sorted(n for n in EXPECTED_SPANS[kind] if count[n] == 0)
    for name in missing:
        failures.append(f"trace: span {name} should run but shows zero calls")
    for metric, names in METRIC_SPANS.items():
        if any(n in missing for n in names):
            m[metric] = None
    negative = sorted({s.name for s, t in own.items() if t < -1e-9})
    if negative:
        failures.append(f"trace: negative self time in {negative}")
    if m["trace.self_sum_s"] > outcome["wall_s"] + 1e-9:
        failures.append(f"trace: self times sum to {m['trace.self_sum_s']} s, "
                        f"more than the traced wall time {outcome['wall_s']} s")
    return m, failures


def _layer_shares(metrics: dict) -> dict:
    """Self-time share of the traced wall time per layer, for the report."""
    wall = metrics["trace.wall_s"]
    parts = {
        "walks": metrics["walks.hash_s"],
        "ranking": metrics["ranking.pagerank_s"],
        "embedding": sum(metrics[k] for k in ("embedding.columns_self_s",
                                              "embedding.save_s", "embedding.load_s")),
        "evaluation": sum(metrics[k] for k in ("evaluation.fit_s", "evaluation.topk_s",
                                               "evaluation.f1_s", "evaluation.lp_s",
                                               "evaluation.protocol_self_s")),
    }
    return {k: _ratio(v, wall) for k, v in parts.items()}


def _median(values):
    return statistics.median(values) if values else None


def run(args) -> dict:
    import workloads
    from tracing import NullTracer, Tracer

    spec = workloads.WORKLOADS[args.scale][args.workload]
    runner = workloads.RUNNERS[spec.kind]
    workers = min(spec.workers, os.cpu_count() or 1)
    env = _environment(args, workers)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        tmp = Path(tmp)
        inputs = tmp / "inputs"
        child_env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
        subprocess.run([sys.executable, str(HERE / "generate.py"), args.workload,
                        args.scale, str(args.seed), str(inputs)],
                       env=child_env, check=True, timeout=170)

        ops = []                                 # failed checks per operation
        setup_s, setup_tracer = [], None
        while len(setup_s) < SETUP_REPEATS or (
                sum(setup_s) < SETUP_SECONDS and len(setup_s) < SETUP_MAX):
            setup_tracer = Tracer() if args.trace else NullTracer()
            t = time.perf_counter()
            g, labels, failures = workloads.setup(inputs, setup_tracer)
            setup_s.append(time.perf_counter() - t)
            ops.append(failures)

        first = None

        def iterate(tracer):
            """One checked iteration; its outputs must equal the first one's."""
            nonlocal first
            out_dir = tmp / f"out{len(ops)}"
            with tracer.patched():
                outcome = runner(spec, g, labels, workers, out_dir, tracer)
            shutil.rmtree(out_dir, ignore_errors=True)
            first = first or outcome
            for key in ("digest", "micro_f1", "macro_f1"):
                if outcome.get(key) != first.get(key):
                    outcome["failures"].append(
                        f"{key} {outcome.get(key)} differs from the first "
                        f"iteration's {first.get(key)} for the same code and seed")
            ops.append(outcome["failures"])
            return outcome

        plain, traced = [], []          # outcomes; (outcome, layer metrics)
        start = time.perf_counter()
        if args.trace:
            # The first iteration in a process is slower; keep it out of the
            # traced/untraced comparison that gives trace.overhead_s.
            iterate(NullTracer())
            while not traced or time.perf_counter() - start < args.seconds:
                plain.append(iterate(NullTracer()))
                tracer = Tracer()
                outcome = iterate(tracer)
                layer, failures = _layer_metrics(spec.kind, tracer, outcome)
                outcome["failures"] += failures
                traced.append((outcome, layer))
        else:
            while len(plain) < MIN_ITERATIONS or time.perf_counter() - start < args.seconds:
                plain.append(iterate(NullTracer()))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def med(key):
        return _median([o[key] for o in plain])

    wall = [o["wall_s"] for o in plain]
    values = {
        "setup_s": _median(setup_s),
        "wall_s": med("wall_s"),
        "peak_rss_mb": peak_rss_mb,
        "nodes_per_s": _median([o["nodes_embedded"] / o["embed_s"] for o in plain]),
        "embedding_nnz": med("nnz"),
        "output_mb": med("output_bytes") / 1e6,
    }
    protocol = {}
    if spec.kind == "protocol":
        protocol = {"fits_per_s": _median([o["fits"] / o["protocol_s"] for o in plain]),
                    "micro_f1": med("micro_f1"), "macro_f1": med("macro_f1"),
                    "random_micro_f1": med("random_micro_f1"),
                    "lp_micro_f1": med("lp_micro_f1")}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    print(f"iterations {len(plain)} untraced, {len(traced)} traced; wall_s "
          f"{' '.join(f'{w:.4f}' for w in wall)}")
    for name, v in {**values, **protocol}.items():
        print(f"  {name:<16} {v:.6g} {units.get(name, '')}")
    print(f"digest {plain[0]['digest']}")

    if args.trace:
        layer_rows = [m for _, m in traced]
        for name in layer_rows[0]:
            col = [m[name] for m in layer_rows]
            values[name] = None if None in col else _median(col)
        values.update({"graph.load_s": _median(setup_s),
                       "graph.arcs": g.num_edges,
                       "graph.spans": len(setup_tracer.spans),
                       "trace.overhead_s": values["trace.wall_s"] - values["wall_s"],
                       "evaluation.fits_per_s": protocol.get("fits_per_s", 0.0),
                       "evaluation.micro_f1": protocol.get("micro_f1", 0.0),
                       "evaluation.macro_f1": protocol.get("macro_f1", 0.0)})
        shares = _layer_shares(values) if None not in values.values() else {}
        print("self-time share of traced wall_s: "
              + " ".join(f"{k} {v:.3f}" for k, v in shares.items()))
        for name, v in sorted(values.items()):
            print(f"  {name:<28} {'missing' if v is None else f'{v:.6g}'}")

    for i, failures in enumerate(ops):
        for f in failures:
            print(f"FAIL op {i}: {f}")
    failed = sum(1 for f in ops if f)
    names = bench["per_layer"] if args.trace else bench["end_to_end"]
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in names}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: same code and checks on small inputs, for tests")
    args = p.parse_args(argv)
    if not (SRC / "symbed" / "__init__.py").is_file():
        print(f"perfbench: no symbed package under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT / 'BENCHMARK.json'} not found", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS[args.scale]:
        p.error(f"unknown workload {args.workload!r}; choose from "
                f"{', '.join(workloads.WORKLOADS[args.scale])}")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

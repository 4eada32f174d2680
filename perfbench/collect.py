"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--trace-seed N]
                                 [--label NAME]

For each workload, runs ``run.py`` once per seed with ``--trace 0`` and
prints, for every end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median next to the metric's bound.  ``--trace-seed`` adds one traced run per
workload.  ``--label`` writes everything, with the environment of the first
run, to ``perfbench/trajectory/BENCH_<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, str]:
    """One benchmark run: (environment, result, per-iteration wall times)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {out.returncode}")
    lines = out.stdout.splitlines()
    env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
    walls = next(l for l in lines if l.startswith("iterations "))
    return env, json.loads(lines[-1]), walls


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--workloads", help="comma-separated; default all")
    p.add_argument("--trace-seed", type=int)
    p.add_argument("--label")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    record = {"label": args.label, "run_seconds": seconds, "env": None, "workloads": {}}
    for name in names:
        runs = []
        for seed in _seeds(args.seeds):
            env, res, walls = run_once(name, seed, seconds, 0)
            record["env"] = record["env"] or env
            print(f"{name} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}; {walls}",
                  flush=True)
            runs.append(res)
        entry = {"seeds": args.seeds,
                 "correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        for m in bench["end_to_end"]:
            s = summarise([r["metrics"][m["name"]]["value"] for r in runs])
            s["unit"], s["bound"] = m["unit"], m["bound"]
            entry["end_to_end"][m["name"]] = s
            print(f"  {m['name']:<14} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} bound {m['bound']}"
                  f"{'' if m['name'] == 'setup_s' or s['spread'] <= m['bound'] / 3 else '  WIDE'}")
        if args.trace_seed is not None:
            _, res, _ = run_once(name, args.trace_seed, seconds, 1)
            entry["per_layer"] = {"seed": args.trace_seed, "correct": res["correct"],
                                  "metrics": res["metrics"]}
            print(f"  traced seed {args.trace_seed}: correct={res['correct']}")
        record["workloads"][name] = entry
    if args.label:
        out = HERE / "trajectory" / f"BENCH_{args.label}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
        print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

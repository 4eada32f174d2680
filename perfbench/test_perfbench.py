"""Fast test of the benchmark: every workload at tiny scale, same code and checks.

    python3 -m pytest -q -p no:cacheprovider perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(HERE))
from tracing import Span, self_times  # noqa: E402


def bench(root, workload, seed=3, trace=0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_checks_and_reports_every_metric(workload, trace):
    before = set(ROOT.iterdir())
    res = result(bench(ROOT, workload, trace=trace))
    assert set(ROOT.iterdir()) == before
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {n: m["unit"] for n, m in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    values = {n: m["value"] for n, m in res["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values()), values
        return
    assert None not in values.values()
    assert values["trace.self_sum_s"] <= values["trace.wall_s"]
    for layer in ("graph", "walks", "ranking", "embedding"):
        assert values[f"{layer}.spans"] > 0
    protocol = workload.startswith("protocol")
    assert (values["evaluation.fits"] > 0) == protocol
    assert (values["embedding.save_s"] > 0) == (not protocol)


def test_same_seed_same_digest_other_seed_other_digest():
    def digest(seed):
        proc = bench(ROOT, "embed-sdf-40k", seed=seed)
        result(proc)
        return next(l for l in proc.stdout.splitlines() if l.startswith("digest "))
    assert digest(5) == digest(5) != digest(6)


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for p in HERE.glob("*.py"):
        shutil.copy(p, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, WORKLOADS[0])
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_direct_children_only():
    root = Span("a.root", 0.0, None, 10.0)
    child = Span("b.child", 1.0, root, 5.0)
    grandchild = Span("c.leaf", 2.0, child, 3.0)
    own = self_times([root, child, grandchild])
    assert own == {root: 6.0, child: 3.0, grandchild: 1.0}

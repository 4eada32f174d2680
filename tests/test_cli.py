import json

import numpy as np
import pytest

from symbed.cli import main
from symbed.graph import write_edge_list
from symbed.synth import planted_partition


@pytest.fixture
def dataset(tmp_path):
    g, labels = planted_partition(70, 3, 0.25, 0.02, seed=8)
    edges = tmp_path / "edges.tsv"
    write_edge_list(g, edges)
    label_file = tmp_path / "labels.tsv"
    with open(label_file, "w") as fh:
        for i, s in enumerate(labels.labels):
            fh.write(f"{i}\t{','.join(str(c) for c in sorted(s))}\n")
    return edges, label_file


def run(argv):
    return main([str(a) for a in argv])


class TestStats:
    def test_json_output(self, dataset, capsys):
        edges, labels = dataset
        assert run(["stats", "--edges", edges, "--labels", labels]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["nodes"] == 70 and out["classes"] == 3

    def test_missing_file_is_data_error(self, tmp_path):
        assert run(["stats", "--edges", tmp_path / "nope.tsv"]) == 2

    def test_missing_flag_is_usage_error(self):
        assert run(["stats"]) == 1


class TestRank:
    def test_descending_scores_ten_decimals(self, dataset, capsys):
        edges, _ = dataset
        assert run(["rank", "--edges", edges]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 70
        scores = []
        for line in lines:
            node, score = line.split("\t")
            int(node)
            assert len(score.split(".")[1]) == 10
            scores.append(float(score))
        assert all(a >= b for a, b in zip(scores, scores[1:]))


class TestEmbed:
    def test_writes_triple_and_timings(self, dataset, tmp_path, capsys):
        edges, _ = dataset
        out = tmp_path / "emb"
        code = run(["embed", "--edges", edges, "--out", out,
                    "--num-walks", 32, "--dim", 20])
        assert code == 0
        captured = capsys.readouterr()
        for name in ("embedding.mtx", "feature_map.tsv", "config.json"):
            assert (out / name).is_file()
        stages = dict(line.split("\t") for line in captured.err.splitlines())
        assert set(stages) == {"walks+hash", "pagerank", "similarity"}
        for v in stages.values():
            float(v)

    def test_sdf_flag(self, dataset, tmp_path, capsys):
        edges, _ = dataset
        out = tmp_path / "emb_sdf"
        assert run(["embed", "--edges", edges, "--out", out,
                    "--num-walks", 32, "--sdf", "--budget-dim", 4]) == 0
        meta = json.loads((out / "config.json").read_text())
        assert meta["config"]["mode"] == "sdf"
        assert meta["value_bits"] == 16

    def test_missing_input_no_partial_output(self, tmp_path):
        out = tmp_path / "never"
        assert run(["embed", "--edges", tmp_path / "absent.tsv", "--out", out]) == 2
        assert not out.exists()

    def test_byte_identical_across_runs_and_workers(self, dataset, tmp_path):
        edges, _ = dataset
        blobs = []
        for name, workers in (("a", 1), ("b", 1), ("c", 3)):
            out = tmp_path / name
            assert run(["embed", "--edges", edges, "--out", out, "--seed", 5,
                        "--num-walks", 32, "--dim", 16, "--workers", workers]) == 0
            blobs.append(tuple((out / f).read_bytes()
                               for f in ("embedding.mtx", "feature_map.tsv",
                                         "config.json")))
        assert blobs[0] == blobs[1] == blobs[2]

    def test_dump_hashes(self, dataset, tmp_path):
        edges, _ = dataset
        dump = tmp_path / "hashes.tsv"
        assert run(["embed", "--edges", edges, "--out", tmp_path / "e",
                    "--num-walks", 16, "--dim", 8, "--dump-hashes", dump]) == 0
        assert len(dump.read_text().splitlines()) == 70


class TestEval:
    def _embed(self, edges, tmp_path):
        out = tmp_path / "emb"
        assert run(["embed", "--edges", edges, "--out", out,
                    "--num-walks", 32, "--dim", 20]) == 0
        return out

    def test_eval_reports(self, dataset, tmp_path, capsys):
        edges, labels = dataset
        emb = self._embed(edges, tmp_path)
        out = tmp_path / "report"
        code = run(["eval", emb, "--labels", labels, "--out", out,
                    "--fractions", "0.3,0.6", "--shuffles", 2, "--reps", 1])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["fractions"]) == 2
        tsv = (out / "report.tsv").read_text().splitlines()
        assert tsv[0].startswith("fraction\t")

    def test_random_baseline(self, dataset, tmp_path):
        edges, labels = dataset
        emb = self._embed(edges, tmp_path)
        out = tmp_path / "rep_rand"
        assert run(["eval", emb, "--labels", labels, "--out", out,
                    "--baseline", "random", "--fractions", "0.5",
                    "--shuffles", 2, "--reps", 1]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["baseline"] == "random"
        assert report["config"]["dim"] == 64

    def test_malformed_feature_map_is_data_error(self, dataset, tmp_path):
        edges, labels = dataset
        emb = self._embed(edges, tmp_path)
        (emb / "feature_map.tsv").write_text("0 5\n")
        assert run(["eval", emb, "--labels", labels, "--out", tmp_path / "x",
                    "--fractions", "0.5", "--shuffles", 1, "--reps", 1]) == 2

    def test_lp_baseline_needs_edges(self, dataset, tmp_path):
        edges, labels = dataset
        emb = self._embed(edges, tmp_path)
        assert run(["eval", emb, "--labels", labels, "--out", tmp_path / "x",
                    "--baseline", "lp", "--fractions", "0.5",
                    "--shuffles", 1, "--reps", 1]) == 2

    def test_lp_baseline(self, dataset, tmp_path):
        edges, labels = dataset
        emb = self._embed(edges, tmp_path)
        out = tmp_path / "rep_lp"
        assert run(["eval", emb, "--labels", labels, "--edges", edges,
                    "--out", out, "--baseline", "lp", "--alpha", 0.9,
                    "--fractions", "0.5", "--shuffles", 1, "--reps", 1]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["alpha"] == 0.9


class TestReproduce:
    def test_unknown_dataset_lists_references(self, capsys):
        assert run(["reproduce", "unknown-net"]) == 1
        assert "cora" in capsys.readouterr().err

    def test_missing_files_data_error(self, tmp_path):
        assert run(["reproduce", "cora", "--data-dir", tmp_path]) == 2

    def test_reproduce_on_stand_in_data(self, dataset, tmp_path, capsys):
        # functional check with a small stand-in network published under a
        # bundled name; deltas against the reference are informational
        edges, labels = dataset
        data = tmp_path / "data" / "cora"
        data.mkdir(parents=True)
        (data / "edges.tsv").write_bytes(edges.read_bytes())
        (data / "labels.tsv").write_bytes(labels.read_bytes())
        out = tmp_path / "out"
        code = run(["reproduce", "cora", "--data-dir", tmp_path / "data",
                    "--out", out, "--dim", 20, "--num-walks", 32,
                    "--budget-dim", 4, "--fractions", "0.5",
                    "--shuffles", 1, "--reps", 1])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        methods = [line.split("\t")[0] for line in lines if "\t" in line]
        assert {"fixed", "sdf", "random", "label_propagation"} <= set(methods)
        assert (out / "cora_reproduce.json").is_file()

    def test_single_fraction_flag(self, dataset, tmp_path, capsys):
        edges, labels = dataset
        data = tmp_path / "data" / "citeseer"
        data.mkdir(parents=True)
        (data / "edges.tsv").write_bytes(edges.read_bytes())
        (data / "labels.tsv").write_bytes(labels.read_bytes())
        code = run(["reproduce", "citeseer", "--data-dir", tmp_path / "data",
                    "--dim", 10, "--num-walks", 16, "--budget-dim", 2,
                    "--fractions", "0.9", "--shuffles", 1, "--reps", 1,
                    "--reuse-embedding"])
        assert code == 0

import io
import json

import numpy as np
import pytest

import symbed.cli
import symbed.embedding
import symbed.walks
from symbed.cli import main
from symbed.embedding import EmbeddingConfig, embed_sdf
from symbed.evaluation import ProtocolConfig, run_protocol
from symbed.graph import load_edge_list, load_labels, write_edge_list
from symbed.synth import planted_partition
from symbed.walks import WalkConfig, dump_hashes, hash_all


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

    def test_reports_dead_ends(self, tmp_path, capsys):
        edges = tmp_path / "path.tsv"
        edges.write_text("0\t1\n1\t2\n")
        assert run(["stats", "--edges", edges, "--directed"]) == 0
        assert json.loads(capsys.readouterr().out)["dead_ends"] == 1
        assert run(["stats", "--edges", edges]) == 0
        assert json.loads(capsys.readouterr().out)["dead_ends"] == 0

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
        assert sorted(p.name for p in out.iterdir()) == [
            "config.json", "embedding.npz", "feature_map.tsv"]
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

    def test_weighted_on_unweighted_edges_is_usage_error(self, dataset, tmp_path,
                                                          capsys):
        edges, _ = dataset
        out = tmp_path / "never"
        assert run(["embed", "--edges", edges, "--out", out,
                    "--num-walks", 8, "--dim", 4, "--weighted"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("symbed embed: ") and "arc weights" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--max-len", 0), ("--max-len", -2),
                                             ("--workers", 0), ("--workers", -1)])
    def test_walk_flag_that_cannot_run_is_usage_error(self, dataset, tmp_path,
                                                      capsys, flag, value):
        edges, _ = dataset
        out = tmp_path / "never"
        assert run(["embed", "--edges", edges, "--out", out,
                    "--num-walks", 8, "--dim", 4, flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("symbed embed: ") and flag in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_byte_identical_across_runs_and_workers(self, dataset, tmp_path):
        edges, _ = dataset
        for mode in ([], ["--sdf", "--budget-dim", 4]):
            blobs = []
            for workers in (1, 1, 3):
                out = tmp_path / f"{len(mode)}-{len(blobs)}"
                assert run(["embed", "--edges", edges, "--out", out, "--seed", 5,
                            "--num-walks", 32, "--dim", 16, "--workers", workers,
                            *mode]) == 0
                blobs.append(tuple((out / f).read_bytes()
                                   for f in ("embedding.npz", "feature_map.tsv",
                                             "config.json")))
            assert blobs[0] == blobs[1] == blobs[2]
            with np.load(io.BytesIO(blobs[0][0])) as stored:
                assert stored["data"].dtype == (np.uint16 if mode else np.float64)

    def test_dump_hashes(self, dataset, tmp_path):
        edges, _ = dataset
        dump = tmp_path / "hashes.tsv"
        assert run(["embed", "--edges", edges, "--out", tmp_path / "e",
                    "--num-walks", 16, "--dim", 8, "--dump-hashes", dump]) == 0
        assert len(dump.read_text().splitlines()) == 70

    @pytest.mark.parametrize("mode", [[], ["--sdf", "--budget-dim", "4"]])
    def test_dump_hashes_hashes_once(self, dataset, tmp_path, monkeypatch, mode):
        edges, _ = dataset
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return hash_all(*args, **kwargs)

        for mod in (symbed.cli, symbed.embedding, symbed.walks):
            monkeypatch.setattr(mod, "hash_all", counted, raising=False)
        dump = tmp_path / "hashes.tsv"
        assert run(["embed", "--edges", edges, "--out", tmp_path / "e", "--seed", 3,
                    "--num-walks", 16, "--dim", 8, "--workers", 2,
                    "--dump-hashes", dump, *mode]) == 0
        assert len(calls) == 1
        want = tmp_path / "want.tsv"
        dump_hashes(hash_all(load_edge_list(edges),
                             WalkConfig(length_probs=np.full(5, 0.2), num_walks=16,
                                        seed=3)), want)
        assert dump.read_bytes() == want.read_bytes()


class TestEval:
    def _embed(self, edges, tmp_path, *flags):
        out = tmp_path / "emb"
        assert run(["embed", "--edges", edges, "--out", out,
                    "--num-walks", 32, "--dim", 20, *flags]) == 0
        return out

    def test_sdf_report_matches_in_memory_embedding(self, dataset, tmp_path):
        edges, labels = dataset
        emb = self._embed(edges, tmp_path, "--sdf", "--budget-dim", 4)
        out = tmp_path / "report"
        assert run(["eval", emb, "--labels", labels, "--out", out,
                    "--fractions", "0.3,0.6", "--shuffles", 2, "--reps", 1]) == 0
        g = load_edge_list(edges)
        cfg = EmbeddingConfig(mode="sdf", d=20, budget_dim=4,
                              walk=WalkConfig(length_probs=np.full(5, 0.2),
                                              num_walks=32))
        in_memory = embed_sdf(g, cfg)
        assert json.loads((emb / "config.json").read_text())["value_bits"] == 16
        expected = run_protocol(in_memory, load_labels(labels, g.num_nodes),
                                ProtocolConfig(train_fractions=(0.3, 0.6),
                                               shuffles=2, repetitions=1))
        assert (out / "report.json").read_text() == expected.to_json() + "\n"

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

    def test_lp_alpha_outside_unit_interval_is_usage_error(self, dataset, tmp_path, capsys):
        edges, labels = dataset
        emb = self._embed(edges, tmp_path)
        assert run(["eval", emb, "--labels", labels, "--edges", edges,
                    "--out", tmp_path / "x", "--baseline", "lp", "--alpha", 1.5,
                    "--fractions", "0.5", "--shuffles", 1, "--reps", 1]) == 1
        assert "alpha 1.5 outside [0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1]\n", '{"format_version": 1}\n'])
    def test_malformed_config_is_data_error(self, dataset, tmp_path, text):
        edges, labels = dataset
        emb = self._embed(edges, tmp_path)
        (emb / "config.json").write_text(text)
        assert run(["eval", emb, "--labels", labels, "--out", tmp_path / "x",
                    "--fractions", "0.5", "--shuffles", 1, "--reps", 1]) == 2

    @pytest.mark.parametrize("flags,key,value", [
        ((), "shape", 5),
        ((), "value_bits", "x"),
        (("--sdf", "--budget-dim", 4), "bins", 1),
        (("--sdf", "--budget-dim", 4), "bins", "256"),
    ])
    def test_mistyped_config_is_data_error(self, dataset, tmp_path, capsys,
                                           flags, key, value):
        edges, labels = dataset
        emb = self._embed(edges, tmp_path, *flags)
        cfg_file = emb / "config.json"
        meta = json.loads(cfg_file.read_text())
        (meta["config"] if key == "bins" else meta)[key] = value
        cfg_file.write_text(json.dumps(meta))
        assert run(["eval", emb, "--labels", labels, "--out", tmp_path / "x",
                    "--fractions", "0.5", "--shuffles", 1, "--reps", 1]) == 2
        err = capsys.readouterr().err
        assert "config.json: key '" in err and key in err
        assert "Traceback" not in err

    def test_16_bit_real_matrix_is_data_error(self, dataset, tmp_path, capsys):
        edges, labels = dataset
        emb = self._embed(edges, tmp_path)
        cfg_file = emb / "config.json"
        meta = json.loads(cfg_file.read_text())
        meta["value_bits"], meta["config"]["bins"] = 16, 256
        cfg_file.write_text(json.dumps(meta))
        assert run(["eval", emb, "--labels", labels, "--out", tmp_path / "x",
                    "--fractions", "0.5", "--shuffles", 1, "--reps", 1]) == 2
        err = capsys.readouterr().err
        assert "embedding.npz" in err and "integer bin codes" in err
        assert "Traceback" not in err

    def test_absurd_class_id_is_data_error(self, dataset, tmp_path, capsys):
        edges, labels = dataset
        emb = self._embed(edges, tmp_path)
        huge = tmp_path / "huge.tsv"
        huge.write_text(labels.read_text() + f"0\t{2**40}\n")
        assert run(["stats", "--edges", edges, "--labels", huge]) == 2
        assert run(["eval", emb, "--labels", huge, "--out", tmp_path / "x",
                    "--fractions", "0.5", "--shuffles", 1, "--reps", 1]) == 2
        assert "class id 1099511627776" in capsys.readouterr().err

    def test_lp_graph_of_other_node_count_is_data_error(self, dataset, tmp_path, capsys):
        edges, labels = dataset
        emb = self._embed(edges, tmp_path)
        other = tmp_path / "other.tsv"
        write_edge_list(planted_partition(90, 3, 0.25, 0.02, seed=8)[0], other)
        assert run(["eval", emb, "--labels", labels, "--edges", other,
                    "--out", tmp_path / "x", "--baseline", "lp", "--fractions", "0.5",
                    "--shuffles", 1, "--reps", 1]) == 2
        assert "graph has 90 nodes but the labels cover 70" in capsys.readouterr().err


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

import json

import numpy as np
import pytest
import scipy.sparse as sp

from symbed.embedding import (Embedding, EmbeddingConfig, EmbeddingFormatError,
                              digitize, embed_fixed, embed_sdf, load_embedding,
                              save_embedding)
from symbed.graph import from_arcs
from symbed.ranking import PageRankConfig
from symbed.similarity import compute_variances, similarity
from symbed.synth import planted_partition, random_graph
from symbed.walks import WalkConfig, hash_all, hash_row


def small_cfg(mode="fixed", **kw):
    walk = kw.pop("walk", WalkConfig(num_walks=32, epsilon=0.01, seed=7))
    return EmbeddingConfig(mode=mode, walk=walk, **kw)


def complete_graph(n):
    src = [i for i in range(n) for j in range(n) if i != j]
    dst = [j for i in range(n) for j in range(n) if i != j]
    return from_arcs(n, src, dst, directed=True)


class TestDigitize:
    def test_endpoints_preserved(self):
        for b in (2, 4, 16, 256):
            assert digitize(0.0, b) == 0.0
            assert digitize(1.0, b) == 1.0

    def test_rounds_to_nearest_bin(self):
        assert digitize(0.6, 4) == 0.5

    def test_half_rounds_away_from_zero(self):
        assert digitize(0.125, 4) == 0.25
        assert digitize(0.375, 4) == 0.5

    def test_output_is_multiple_of_inverse_bins(self):
        rng = np.random.default_rng(0)
        for s in rng.random(200):
            q = digitize(float(s), 256)
            assert q == round(q * 256) / 256

    def test_bins_256_exact_in_float16(self):
        rng = np.random.default_rng(1)
        for s in rng.random(200):
            q = digitize(float(s), 256)
            assert float(np.float16(q)) == q

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            digitize(1.5, 4)
        with pytest.raises(ValueError):
            digitize(0.5, 1)


class TestFixedMode:
    def test_two_cycle_all_ones(self, two_cycle):
        # length-1 walks make both hashes {0: 0.5, 1: 0.5}
        walk = WalkConfig(length_probs=np.array([1.0]), num_walks=8, seed=1)
        emb = embed_fixed(two_cycle, EmbeddingConfig(d=2, walk=walk))
        np.testing.assert_allclose(emb.matrix.toarray(), 1.0, atol=1e-12)

    def test_self_similarity_diagonal_exact(self):
        g = random_graph(40, 5, seed=3)
        emb = embed_fixed(g, small_cfg(d=40))
        dense = emb.matrix.toarray()
        for j, node in enumerate(emb.ind):
            assert dense[node, j] == 1.0

    def test_d_larger_than_n_rejected(self):
        g = random_graph(10, 3, seed=0)
        with pytest.raises(ValueError):
            embed_fixed(g, small_cfg(d=11))

    def test_shape_and_ind(self):
        g = random_graph(30, 4, seed=1)
        emb = embed_fixed(g, small_cfg(d=12))
        assert emb.matrix.shape == (30, 12)
        assert len(emb.ind) == 12
        assert len(set(emb.ind.tolist())) == 12
        assert emb.value_bits == 32

    @pytest.mark.parametrize("metric", ["cosine", "euclidean", "seuclidean",
                                        "canberra", "jaccard"])
    def test_columns_match_scalar_similarity(self, metric):
        g = random_graph(50, 5, seed=11)
        cfg = small_cfg(d=20, metric=metric)
        emb = embed_fixed(g, cfg)
        H = hash_all(g, cfg.walk)
        variances = compute_variances(H) if metric == "seuclidean" else None
        dense = emb.matrix.toarray()
        # the vectorized euclidean path uses the norm decomposition, whose
        # cancellation near zero costs ~sqrt(ulp) of the value scale
        if metric in ("euclidean", "seuclidean"):
            tol = 1e-7 * (1.0 + float(dense.max()))
        else:
            tol = 1e-9
        for j, pivot in enumerate(emb.ind):
            hp = hash_row(H, pivot)
            for i in range(g.num_nodes):
                want = similarity(hash_row(H, i), hp, metric, variances)
                if metric == "cosine" and i == pivot:
                    want = 1.0
                assert dense[i, j] == pytest.approx(want, abs=tol), (i, j)

    def test_values_clipped_to_unit_interval(self):
        g = random_graph(60, 6, seed=5)
        emb = embed_fixed(g, small_cfg(d=30))
        assert emb.matrix.data.min() >= 0.0
        assert emb.matrix.data.max() <= 1.0

    def test_digitized_fixed_mode(self):
        g = random_graph(40, 5, seed=9)
        emb = embed_fixed(g, small_cfg(d=10, bins=4))
        assert emb.value_bits == 16
        scaled = emb.matrix.data * 4
        np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-12)

    def test_sdf_config_rejected(self):
        g = random_graph(20, 4, seed=1)
        with pytest.raises(ValueError, match="mode"):
            embed_fixed(g, small_cfg("sdf", d=10))

    def test_pivots_are_top_ranked(self):
        from symbed.ranking import pagerank, rank_nodes
        g = random_graph(40, 4, seed=13)
        cfg = small_cfg(d=8)
        emb = embed_fixed(g, cfg)
        order = rank_nodes(pagerank(g, cfg.pagerank)).order
        assert emb.ind.tolist() == order[:8].tolist()


class TestSdfMode:
    def test_generous_budget_uses_all_nodes(self):
        g = random_graph(25, 4, seed=2)
        emb = embed_sdf(g, small_cfg("sdf", budget_dim=25, bins=0))
        assert emb.num_columns == 25

    def test_fixed_config_rejected(self):
        g = random_graph(20, 4, seed=1)
        with pytest.raises(ValueError, match="mode"):
            embed_sdf(g, small_cfg("fixed", budget_dim=4))

    @pytest.mark.parametrize("metric", ["cosine", "euclidean", "seuclidean",
                                        "canberra", "jaccard"])
    def test_fixed_is_prefix_of_generous_sdf(self, metric):
        # k spans more than one 128-column chunk of the column path
        g = random_graph(300, 4, seed=17)
        k = 200
        fixed = embed_fixed(g, small_cfg(d=k, bins=0, metric=metric))
        sdf = embed_sdf(g, small_cfg("sdf", budget_dim=300, bins=0, metric=metric))
        assert sdf.num_columns == g.num_nodes
        head = sdf.matrix[:, :k]
        np.testing.assert_array_equal(fixed.matrix.indptr, head.indptr)
        np.testing.assert_array_equal(fixed.matrix.indices, head.indices)
        np.testing.assert_array_equal(fixed.matrix.data, head.data)
        np.testing.assert_array_equal(fixed.ind, sdf.ind[:k])

    def test_budget_dim_zero_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingConfig(mode="sdf", budget_dim=0)

    def test_budget_dim_one_returns_at_least_one_column(self):
        g = random_graph(25, 4, seed=2)
        emb = embed_sdf(g, small_cfg("sdf", budget_dim=1, bins=0))
        assert emb.num_columns >= 1

    def test_budget_arithmetic_retains_crossing_column(self):
        # complete graph: every column has exactly n nonzero values
        n = 10
        g = complete_graph(n)
        cfg = small_cfg("sdf", budget_dim=2, bins=0,
                        walk=WalkConfig(num_walks=64, epsilon=0.0, seed=3))
        emb = embed_sdf(g, cfg)
        per_col = np.diff(emb.matrix.tocsc().indptr)
        assert per_col.tolist()[:1] == [n]
        # budget 20 -> 10 -> 0 -> -10: the third column is kept
        assert emb.num_columns == 3
        assert emb.nnz == 30

    def test_budget_exhausts_before_crossing(self):
        n = 10
        g = complete_graph(n)
        cfg = small_cfg("sdf", budget_dim=3, bins=0,
                        walk=WalkConfig(num_walks=64, epsilon=0.0, seed=3))
        emb = embed_sdf(g, cfg)
        # budget 30 -> 20 -> 10 -> 0 -> -10: four columns
        assert emb.num_columns == 4
        assert emb.nnz == 40

    def test_nonzero_law(self):
        for g, label in [(random_graph(60, 5, seed=1), "sparse"),
                         (complete_graph(40), "dense"),
                         (planted_partition(80, 4, 0.2, 0.02, seed=2)[0], "blocks")]:
            for budget_dim in (1, 2, 8):
                cfg = small_cfg("sdf", budget_dim=budget_dim)
                emb = embed_sdf(g, cfg)
                tau = g.num_nodes * budget_dim
                assert emb.nnz <= tau + g.num_nodes, label

    def test_prefix_property(self):
        g = random_graph(50, 5, seed=21)
        small = embed_sdf(g, small_cfg("sdf", budget_dim=2))
        large = embed_sdf(g, small_cfg("sdf", budget_dim=10))
        k = small.num_columns
        assert large.num_columns >= k
        assert large.ind[:k].tolist() == small.ind.tolist()
        a = small.matrix.toarray()
        b = large.matrix.toarray()[:, :k]
        np.testing.assert_array_equal(a, b)

    def test_sdf_defaults_digitize_on(self):
        g = random_graph(30, 4, seed=4)
        emb = embed_sdf(g, small_cfg("sdf", budget_dim=4))
        assert emb.value_bits == 16
        scaled = emb.matrix.data * 256
        np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-9)
        assert np.all(np.abs(emb.matrix.data.astype(np.float16).astype(np.float64)
                             - emb.matrix.data) == 0.0)

    def test_byte_parity_with_16bit_values(self):
        # 256-column budget at 16 bits fits within a dense 128-column
        # 32-bit matrix on graphs whose similarity columns stay sparse
        for seed in (0, 1):
            g, _ = planted_partition(300, 5, 0.05, 0.002, seed=seed)
            emb = embed_sdf(g, small_cfg("sdf", budget_dim=256, bins=256))
            assert emb.value_bits == 16
            assert emb.value_payload_bytes <= g.num_nodes * 128 * 4

    def test_dense_metric_column_count_near_budget_dim(self):
        # distance columns are dense, so the budget buys about budget_dim of them
        g = random_graph(60, 6, seed=8)
        emb = embed_sdf(g, small_cfg("sdf", budget_dim=5, bins=0, metric="euclidean"))
        assert emb.num_columns <= 7


class TestPersistence:
    def test_round_trip(self, tmp_path):
        g = random_graph(35, 4, seed=6)
        emb = embed_fixed(g, small_cfg(d=9))
        save_embedding(emb, tmp_path / "emb")
        back = load_embedding(tmp_path / "emb")
        assert (back.matrix != emb.matrix).nnz == 0
        np.testing.assert_array_equal(back.matrix.toarray(), emb.matrix.toarray())
        assert back.ind.tolist() == emb.ind.tolist()
        assert back.config == emb.config
        assert back.value_bits == emb.value_bits

    def test_round_trip_digitized(self, tmp_path):
        g = random_graph(35, 4, seed=6)
        emb = embed_sdf(g, small_cfg("sdf", budget_dim=3))
        save_embedding(emb, tmp_path / "emb")
        back = load_embedding(tmp_path / "emb")
        np.testing.assert_array_equal(back.matrix.toarray(), emb.matrix.toarray())

    def test_matrix_market_header(self, tmp_path):
        g = random_graph(20, 4, seed=1)
        save_embedding(embed_fixed(g, small_cfg(d=5)), tmp_path / "e")
        head = (tmp_path / "e" / "embedding.mtx").read_text().splitlines()[0]
        assert head.startswith("%%MatrixMarket matrix coordinate real general")

    def test_feature_map_line_count(self, tmp_path):
        g = random_graph(20, 4, seed=1)
        emb = embed_fixed(g, small_cfg(d=7))
        save_embedding(emb, tmp_path / "e")
        lines = (tmp_path / "e" / "feature_map.tsv").read_text().splitlines()
        assert len(lines) == emb.num_columns
        assert lines[0].split("\t")[0] == "0"

    def test_version_mismatch_rejected(self, tmp_path):
        g = random_graph(20, 4, seed=1)
        save_embedding(embed_fixed(g, small_cfg(d=3)), tmp_path / "e")
        cfg_file = tmp_path / "e" / "config.json"
        meta = json.loads(cfg_file.read_text())
        meta["format_version"] = 999
        cfg_file.write_text(json.dumps(meta))
        with pytest.raises(EmbeddingFormatError, match="version"):
            load_embedding(tmp_path / "e")

    def test_bad_matrix_magic_rejected(self, tmp_path):
        g = random_graph(20, 4, seed=1)
        save_embedding(embed_fixed(g, small_cfg(d=3)), tmp_path / "e")
        (tmp_path / "e" / "embedding.mtx").write_text("not a matrix\n1 2 3\n")
        with pytest.raises(EmbeddingFormatError):
            load_embedding(tmp_path / "e")

    def _saved(self, tmp_path, d=10):
        g = random_graph(20, 4, seed=1)
        save_embedding(embed_fixed(g, small_cfg(d=d)), tmp_path / "e")
        return tmp_path / "e"

    def test_truncated_feature_map_rejected(self, tmp_path):
        path = self._saved(tmp_path) / "feature_map.tsv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:4]))
        with pytest.raises(EmbeddingFormatError, match="4 columns"):
            load_embedding(tmp_path / "e")

    @pytest.mark.parametrize("line", ["0 5", "0\t5\t7", "0\tfive", "3\t5"])
    def test_malformed_feature_map_line_rejected(self, tmp_path, line):
        path = self._saved(tmp_path) / "feature_map.tsv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(line + "\n" + "".join(lines[1:]))
        with pytest.raises(EmbeddingFormatError, match="feature_map.tsv:1"):
            load_embedding(tmp_path / "e")

    def test_missing_feature_map_rejected(self, tmp_path):
        (self._saved(tmp_path) / "feature_map.tsv").unlink()
        with pytest.raises(EmbeddingFormatError, match="not found"):
            load_embedding(tmp_path / "e")

    def test_missing_directory(self, tmp_path):
        with pytest.raises(EmbeddingFormatError, match="not found"):
            load_embedding(tmp_path / "nope")

    def test_config_snapshot_records_seed(self, tmp_path):
        g = random_graph(20, 4, seed=1)
        emb = embed_fixed(g, small_cfg(d=3))
        save_embedding(emb, tmp_path / "e")
        meta = json.loads((tmp_path / "e" / "config.json").read_text())
        assert meta["config"]["walk"]["seed"] == 7

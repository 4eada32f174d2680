"""Acceptance suite: one test per release criterion.

Each test prints ``CRITERION <name>: PASS/FAIL/SKIP`` so the run log reads
as a checklist.  The benchmark-dataset criteria need the citation datasets
on disk as ``data/<name>/edges.tsv`` and ``data/<name>/labels.tsv`` (or under
``$SYMBED_DATA_DIR/<name>/``); without them those tests skip with an
explanatory message rather than silently passing.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp

import symbed
from symbed.embedding import EmbeddingConfig, _metric_columns, _prepare_metric
from symbed.evaluation import (ProtocolConfig, logreg_loss_grad, micro_macro_f1,
                               random_embedding, run_protocol, run_protocol_lp,
                               topk_sets)
from symbed.graph import load_edge_list, load_labels
from symbed.ranking import PageRankConfig, pagerank, rank_nodes
from symbed.synth import planted_partition, random_graph
from symbed.walks import WalkConfig, hash_all

from conftest import require_dataset
from oracles import similarity
from test_evaluation import (class_rows, f1_confusion_oracle, finite_difference_grad,
                             label_table)
from test_ranking import dense_pagerank, random_small_graph
from test_similarity import dense_metric, random_pair


@contextmanager
def criterion(name):
    try:
        yield
    except pytest.skip.Exception:
        print(f"\nCRITERION {name}: SKIP")
        raise
    except BaseException:
        print(f"\nCRITERION {name}: FAIL")
        raise
    print(f"\nCRITERION {name}: PASS")


def paper_default_config(seed=0):
    """epsilon 0.005, walk lengths 1..5, 1024 walks, 2048 pivots, cosine."""
    return EmbeddingConfig(
        mode="fixed", d=2048, metric="cosine",
        walk=WalkConfig(num_walks=1024, epsilon=0.005, seed=seed))


def load_dataset(name):
    edges, labels_path = require_dataset(name)
    g = load_edge_list(edges, directed=False)
    return g, load_labels(labels_path, g.num_nodes)


def full_protocol(seed=0):
    return ProtocolConfig(shuffles=10, repetitions=10, seed=seed)


class TestDatasetReproduction:
    def test_cora_reproduction(self):
        with criterion("cora-reproduction"):
            g, labels = load_dataset("cora")
            start = time.perf_counter()

            def build(rep):
                return symbed.embed_fixed(g, paper_default_config(seed=rep))

            report = run_protocol(None, labels, full_protocol(), embedding_factory=build)
            elapsed = time.perf_counter() - start
            print(f"cora micro {report.aggregate_micro:.3f} "
                  f"macro {report.aggregate_macro:.3f} in {elapsed:.0f}s")
            assert 0.74 <= report.aggregate_micro <= 0.90
            assert 0.73 <= report.aggregate_macro <= 0.89
            assert elapsed < 600.0

    def test_citeseer_reproduction(self):
        with criterion("citeseer-reproduction"):
            g, labels = load_dataset("citeseer")

            def build(rep):
                return symbed.embed_fixed(g, paper_default_config(seed=rep))

            report = run_protocol(None, labels, full_protocol(), embedding_factory=build)
            print(f"citeseer micro {report.aggregate_micro:.3f}")
            assert 0.58 <= report.aggregate_micro <= 0.75

    def test_random_baseline_cora(self):
        with criterion("random-baseline-cora"):
            g, labels = load_dataset("cora")
            emb = random_embedding(g.num_nodes, dim=64, seed=0)
            report = run_protocol(emb, labels, full_protocol())
            print(f"cora random micro {report.aggregate_micro:.3f}")
            assert 0.20 <= report.aggregate_micro <= 0.30

    def test_label_propagation_cora(self):
        with criterion("label-propagation-cora"):
            g, labels = load_dataset("cora")
            report = run_protocol_lp(g, labels, full_protocol(), alpha=0.9)
            print(f"cora lp micro {report.aggregate_micro:.3f}")
            # a miss of the band by <= 0.05 would point at a different
            # spreading variant; the implemented one is documented in README
            assert 0.76 <= report.aggregate_micro <= 0.90


class TestSdfBudgetLaw:
    def _graphs(self):
        dense_n = 40
        src = [i for i in range(dense_n) for j in range(dense_n) if i != j]
        dst = [j for i in range(dense_n) for j in range(dense_n) if i != j]
        from symbed.graph import from_arcs
        return [
            ("sparse-random", random_graph(400, 4, seed=0)),
            ("blocks", planted_partition(300, 5, 0.05, 0.002, seed=1)[0]),
            ("dense", from_arcs(dense_n, src, dst, directed=True)),
        ]

    def test_sdf_budget_law(self):
        with criterion("sdf-budget-law"):
            walk = WalkConfig(num_walks=64, epsilon=0.005, seed=3)
            for name, g in self._graphs():
                for budget_dim in (1, 4, 256):
                    cfg = EmbeddingConfig(mode="sdf", budget_dim=budget_dim, walk=walk)
                    emb = symbed.embed_sdf(g, cfg)
                    tau = g.num_nodes * budget_dim
                    assert emb.nnz <= tau + g.num_nodes, (name, budget_dim)
            # 16-bit parity: with budget 256 at 16 bits, the columns before the
            # crossing one fit the byte size of a dense 128-column 32-bit
            # embedding; the kept crossing column may overshoot it.  When
            # fewer than n columns were taken the budget was spent, so the
            # full payload exceeds that size.
            for name, g in self._graphs()[:2]:
                cfg = EmbeddingConfig(mode="sdf", budget_dim=256, bins=256, walk=walk)
                emb = symbed.embed_sdf(g, cfg)
                assert emb.value_bits == 16
                dense_bytes = g.num_nodes * 128 * 4
                per_col = np.diff(emb.matrix.tocsc().indptr)
                prefix_bytes = int(per_col[:-1].sum()) * emb.value_bits // 8
                assert prefix_bytes <= dense_bytes, name
                if emb.num_columns < g.num_nodes:
                    assert emb.value_payload_bytes > dense_bytes, name


class TestOracleEquivalences:
    def test_pagerank_matches_dense_oracle(self):
        with criterion("oracle-pagerank-dense"):
            rng = np.random.default_rng(2024)
            for _ in range(100):
                g = random_small_graph(rng, max_nodes=10)
                got = pagerank(g, PageRankConfig())
                want = dense_pagerank(g)
                np.testing.assert_allclose(got, want, atol=1e-8)

    def test_sparse_cosine_matches_dense_oracle(self):
        with criterion("oracle-cosine-dense"):
            rng = np.random.default_rng(77)
            for _ in range(1000):
                a, b = random_pair(rng)
                assert abs(similarity(a, b, "cosine")
                           - dense_metric(a, b, "cosine", 200)) < 1e-10

    def test_f1_matches_confusion_oracle(self):
        with criterion("oracle-f1-confusion"):
            rng = np.random.default_rng(55)
            for _ in range(1000):
                k = int(rng.integers(2, 6))
                n = int(rng.integers(1, 10))
                truth_sets, pred_sets = [], []
                for _ in range(n):
                    ki = int(rng.integers(1, k + 1))
                    truth_sets.append(set(rng.choice(k, ki, replace=False).tolist()))
                    pred_sets.append(frozenset(rng.choice(k, ki, replace=False).tolist()))
                truth = label_table(truth_sets, k)
                nodes = list(range(n))
                assert micro_macro_f1(class_rows(pred_sets, k), class_rows(truth_sets, k)) \
                    == f1_confusion_oracle(pred_sets, truth, nodes)

    def test_logreg_gradient_matches_finite_differences(self):
        with criterion("oracle-logreg-gradient"):
            rng = np.random.default_rng(66)
            for _ in range(10):
                n, d, k = int(rng.integers(3, 8)), int(rng.integers(2, 5)), 2
                X = rng.random((n, d))
                Y = (rng.random((n, k)) > 0.5).astype(float)
                theta = rng.normal(size=d * k + k)
                mu = X.mean(axis=0)   # the training means train_logreg centers at
                _, grad = logreg_loss_grad(theta, X, Y, 1.0, mu)
                fd = finite_difference_grad(theta, X, Y, 1.0, mu)
                rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)
                assert rel.max() < 1e-5


class TestStructuralInvariants:
    def test_structural_invariants(self):
        with criterion("structural-invariants"):
            g = random_graph(300, 5, seed=9)
            eps = 0.005
            walk = WalkConfig(num_walks=256, epsilon=eps, seed=4)
            H = hash_all(g, walk)
            sums = np.asarray(H.sum(axis=1)).ravel()
            np.testing.assert_allclose(sums, 1.0, atol=1e-6)
            assert np.diff(H.indptr).max() <= int(1 / eps)

            cfg = EmbeddingConfig(d=120, walk=walk)
            emb = symbed.embed_fixed(g, cfg)
            dense = emb.matrix.toarray()
            for j, node in enumerate(emb.ind):
                assert dense[node, j] == 1.0

            bins = 256
            qcfg = EmbeddingConfig(mode="sdf", budget_dim=8, bins=bins, walk=walk)
            qemb = symbed.embed_sdf(g, qcfg)
            scaled = qemb.matrix.data * bins
            np.testing.assert_array_equal(scaled, np.round(scaled))

            e1 = symbed.embed_fixed(g, cfg, workers=1)
            e4 = symbed.embed_fixed(g, cfg, workers=4)
            assert np.array_equal(e1.matrix.indptr, e4.matrix.indptr)
            assert np.array_equal(e1.matrix.indices, e4.matrix.indices)
            assert np.array_equal(e1.matrix.data, e4.matrix.data)
            assert np.array_equal(e1.ind, e4.ind)


class TestScaling:
    @staticmethod
    def _ratio(fn, small, large, reps=11):
        """Median CPU time of fn(large) over that of fn(small).

        CPU time leaves out the waits a shared machine adds to wall time; a
        warm-up call of each size and alternating the sizes keep first-call
        costs and drift out of the ratio.  Single walk-stage pairs read
        1.3-2.4 on a shared 2-vCPU machine, and medians of five pairs fell
        below the 1.6 floor in some runs; eleven keep the median near 1.75.
        """
        times = {small: [], large: []}
        for rep in range(reps + 1):
            for size in (small, large):
                t0 = time.process_time()
                fn(size)
                if rep:
                    times[size].append(time.process_time() - t0)
        t1, t2 = np.median(times[small]), np.median(times[large])
        return t2 / t1, t1, t2

    def test_walk_stage_scales_linearly_in_num_walks(self):
        with criterion("scaling-walks-linear-in-nw"):
            g = random_graph(10_000, 5, seed=42)
            ratio, t1, t2 = self._ratio(
                lambda nw: hash_all(g, WalkConfig(num_walks=nw, epsilon=0.005,
                                                  seed=1)), 256, 512)
            print(f"walk+hash ratio {ratio:.2f} ({t1:.2f}s -> {t2:.2f}s)")
            assert 1.6 <= ratio <= 2.6

    def test_similarity_stage_scales_linearly_in_d(self):
        with criterion("scaling-similarity-linear-in-d"):
            g = random_graph(10_000, 5, seed=42)
            H = hash_all(g, WalkConfig(num_walks=256, epsilon=0.005, seed=1))
            prepared = _prepare_metric(H, "cosine")
            order = rank_nodes(pagerank(g))
            ratio, t1, t2 = self._ratio(
                lambda d: [_metric_columns(prepared, order[:d])
                           for _ in range(20)], 1024, 2048)
            print(f"similarity ratio {ratio:.2f} ({t1:.3f}s -> {t2:.3f}s)")
            assert 1.6 <= ratio <= 2.6

    def test_cosine_cost_grows_linearly_in_support(self):
        # the library cosine path on two hash rows: doubling their nnz
        # should not blow up the cost
        with criterion("scaling-cosine-linear-in-support"):
            rng = np.random.default_rng(3)

            def two_rows(k):
                cols = [np.sort(rng.choice(4 * k, k, replace=False)) for _ in range(2)]
                return sp.csr_matrix((np.full(2 * k, 1.0 / k), np.concatenate(cols),
                                      [0, k, 2 * k]), shape=(2, 4 * k))

            hashes = {k: two_rows(k) for k in (100_000, 200_000)}

            def cosine(k):
                for _ in range(5):
                    _metric_columns(_prepare_metric(hashes[k], "cosine"),
                                    np.array([0]))

            ratio, t1, t2 = self._ratio(cosine, 100_000, 200_000)
            print(f"cosine ratio {ratio:.2f} ({t1:.3f}s -> {t2:.3f}s)")
            assert ratio < 4.0


class TestEndToEndSanity:
    """Supplementary harness check on synthetic data (not a numbered
    criterion): the embedding must far outperform the random baseline when
    communities drive the labels."""

    def test_embedding_beats_random_on_planted_partition(self):
        with criterion("end-to-end-sanity-synthetic"):
            g, labels = planted_partition(600, 5, 0.05, 0.004, seed=12)
            cfg = ProtocolConfig(train_fractions=(0.1, 0.5, 0.9), shuffles=3,
                                 repetitions=1, seed=7)
            emb = symbed.embed_fixed(
                g, EmbeddingConfig(d=256, walk=WalkConfig(num_walks=128, seed=3)))
            ours = run_protocol(emb, labels, cfg)
            rand = run_protocol(random_embedding(600, 64, 0), labels, cfg)
            print(f"synthetic micro: embedding {ours.aggregate_micro:.3f} "
                  f"vs random {rand.aggregate_micro:.3f}")
            assert ours.aggregate_micro > rand.aggregate_micro + 0.3
            assert ours.aggregate_micro > 0.8

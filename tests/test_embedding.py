import itertools
import json
import tempfile
import threading
import time
import tracemalloc
import zipfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.io import mmwrite

from symbed import embedding, walks
from symbed.embedding import (METRICS, Embedding, EmbeddingConfig,
                              EmbeddingFormatError, _quantize_array,
                              _read_feature_map,
                              compute_variances, embed_fixed, embed_sdf,
                              load_embedding, save_embedding)
from symbed.evaluation import ProtocolConfig, random_embedding, run_protocol
from symbed.graph import from_arcs
from symbed.ranking import PageRankConfig
from symbed.synth import planted_partition, random_graph
from symbed.walks import WalkConfig, hash_all

from oracles import digitize, hash_row, similarity


unpickled = []


def _unpickle_tripwire():
    unpickled.append(True)


class Tripwire:
    """An object whose unpickling is recorded in ``unpickled``."""

    def __reduce__(self):
        return _unpickle_tripwire, ()


def small_cfg(mode="fixed", **kw):
    walk = kw.pop("walk", WalkConfig(num_walks=32, epsilon=0.01, seed=7))
    return EmbeddingConfig(mode=mode, walk=walk, **kw)


def complete_graph(n):
    src = [i for i in range(n) for j in range(n) if i != j]
    dst = [j for i in range(n) for j in range(n) if i != j]
    return from_arcs(n, src, dst, directed=True)


class QuantizerCases:
    """Quantization cases for any scalar quantizer ``quantize(s, b)``."""

    def test_endpoints_preserved(self):
        for b in (2, 4, 16, 256):
            assert self.quantize(0.0, b) == 0.0
            assert self.quantize(1.0, b) == 1.0

    def test_rounds_to_nearest_bin(self):
        assert self.quantize(0.6, 4) == 0.5

    def test_half_rounds_away_from_zero(self):
        assert self.quantize(0.125, 4) == 0.25
        assert self.quantize(0.375, 4) == 0.5

    def test_output_is_multiple_of_inverse_bins(self):
        rng = np.random.default_rng(0)
        for s in rng.random(200):
            q = self.quantize(float(s), 256)
            assert q == round(q * 256) / 256

    def test_bins_256_exact_in_float16(self):
        rng = np.random.default_rng(1)
        for s in rng.random(200):
            q = self.quantize(float(s), 256)
            assert float(np.float16(q)) == q


class TestDigitize(QuantizerCases):
    """The scalar reference quantizer."""

    quantize = staticmethod(digitize)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            digitize(1.5, 4)
        with pytest.raises(ValueError):
            digitize(0.5, 1)


class TestQuantizeArray(QuantizerCases):
    """The quantizer the column path runs, applied elementwise."""

    quantize = staticmethod(lambda s, b: float(_quantize_array(np.array([s]), b)[0]))


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
        order = rank_nodes(pagerank(g, cfg.pagerank))
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
        # k spans more than one 128-column chunk of the distance metrics
        g = random_graph(300, 4, seed=17)
        k = 200
        fixed = embed_fixed(g, small_cfg(d=k, bins=0, metric=metric))
        sdf = embed_sdf(g, small_cfg("sdf", budget_dim=300, bins=0, metric=metric))
        assert sdf.num_columns == g.num_nodes
        for emb in (fixed, sdf):
            # canonical CSR: rows strictly increasing in column, no stored zeros
            m = emb.matrix
            assert isinstance(m, sp.csr_matrix)
            starts = np.zeros(m.nnz, dtype=bool)
            starts[m.indptr[:-1][np.diff(m.indptr) > 0]] = True
            assert np.all((np.diff(m.indices) > 0) | starts[1:])
            assert np.all(m.data != 0)
        head = sdf.matrix[:, :k]
        np.testing.assert_array_equal(fixed.matrix.indptr, head.indptr)
        np.testing.assert_array_equal(fixed.matrix.indices, head.indices)
        np.testing.assert_array_equal(fixed.matrix.data, head.data)
        np.testing.assert_array_equal(fixed.ind, sdf.ind[:k])

    def test_budget_dim_zero_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingConfig(mode="sdf", budget_dim=0)

    @pytest.mark.parametrize("kwargs,message", [
        ({"mode": "dense"}, "mode must be 'fixed' or 'sdf', got 'dense'"),
        ({"d": 0}, "d must be >= 1"),
        ({"bins": 1}, r"bins must be 0 \(disabled\) or >= 2"),
        ({"metric": "cityblock"}, "unknown metric 'cityblock'"),
        ({"d": float("nan")}, "d must be >= 1"),
        ({"budget_dim": float("nan")}, "budget_dim must be >= 1"),
        ({"bins": float("nan")}, r"bins must be 0 \(disabled\) or >= 2"),
        ({"bins": 2.5}, r"bins must be 0 \(disabled\) or >= 2, an integer"),
    ])
    def test_config_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            EmbeddingConfig(**kwargs)

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


WORKER_GRAPH = random_graph(40, 4, seed=5)


def _worker_cfg(mode, metric, bins, budget_dim=1, d=1):
    return small_cfg(mode, metric=metric, bins=bins, budget_dim=budget_dim, d=d)


@lru_cache(maxsize=None)
def _one_thread_embedding(mode, metric, bins, budget_dim=1, d=1):
    """The embedding of WORKER_GRAPH on the calling thread, default chunks."""
    embed = embed_sdf if mode == "sdf" else embed_fixed
    return embed(WORKER_GRAPH, _worker_cfg(mode, metric, bins, budget_dim, d))


def _embed_with(mode, workers, width, metric, bins, budget_dim=1, d=1):
    """The same embedding on `workers` threads, every chunk `width` columns
    wide (None: the defaults)."""
    embed = embed_sdf if mode == "sdf" else embed_fixed
    with pytest.MonkeyPatch.context() as mp:
        if width is not None:
            mp.setattr(embedding, "_COLUMN_CHUNK", width)
            mp.setattr(embedding, "_PRODUCT_CHUNK", width)
        return embed(WORKER_GRAPH, _worker_cfg(mode, metric, bins, budget_dim, d),
                     workers=workers)


def _all_columns(mode, workers):
    """WORKER_GRAPH's cosine embedding at 256 bins with every node a column."""
    n = WORKER_GRAPH.num_nodes
    embed = embed_sdf if mode == "sdf" else embed_fixed
    return embed(WORKER_GRAPH, _worker_cfg(mode, "cosine", 256, budget_dim=n, d=n),
                 workers=workers)


WORKER_RUNS = [lambda w: hash_all(WORKER_GRAPH, WalkConfig(), workers=w),
               lambda w: _all_columns("fixed", w), lambda w: _all_columns("sdf", w)]
WORKER_RUN_IDS = ["hash_all", "embed_fixed", "embed_sdf"]


def _assert_same_bits(a, b):
    for x, y in [(a.matrix.indptr, b.matrix.indptr), (a.matrix.indices, b.matrix.indices),
                 (a.matrix.data, b.matrix.data), (a.ind, b.ind)]:
        assert x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()
    assert a.matrix.shape == b.matrix.shape


class TestWorkerThreads:
    """Chunks scored on worker threads give the single thread's bits, really
    run at once, and leave no thread behind."""

    @settings(max_examples=60, deadline=None)
    @given(workers=st.sampled_from([1, 2, 3]), width=st.sampled_from([1, 3, None]),
           metric=st.sampled_from(METRICS), bins=st.sampled_from([0, 256]),
           budget_dim=st.sampled_from([1, 2, 7, 40]))
    @example(workers=3, width=1, metric="cosine", bins=256, budget_dim=1)
    @example(workers=2, width=3, metric="euclidean", bins=0, budget_dim=1)
    @example(workers=3, width=3, metric="jaccard", bins=256, budget_dim=40)
    def test_sdf_same_bits_for_any_workers_and_chunk_width(
            self, workers, width, metric, bins, budget_dim):
        want = _one_thread_embedding("sdf", metric, bins, budget_dim)
        if budget_dim == 1:
            # the budget crosses inside the first chunk of width 3, and at
            # width 1 with 3 workers later chunks are in flight and dropped
            assert want.num_columns < 3
        if budget_dim == 40:
            # a generous budget takes every node
            assert want.num_columns == WORKER_GRAPH.num_nodes
        _assert_same_bits(_embed_with("sdf", workers, width, metric, bins,
                                      budget_dim), want)

    @settings(max_examples=30, deadline=None)
    @given(workers=st.sampled_from([1, 2, 3]), width=st.sampled_from([1, 3, None]),
           metric=st.sampled_from(METRICS), bins=st.sampled_from([0, 256]),
           d=st.sampled_from([1, 5, 40]))
    @example(workers=2, width=3, metric="canberra", bins=0, d=5)
    def test_fixed_same_bits_for_any_workers(self, workers, width, metric, bins, d):
        want = _one_thread_embedding("fixed", metric, bins, d=d)
        _assert_same_bits(_embed_with("fixed", workers, width, metric, bins, d=d),
                          want)

    def _wrap_columns(self, monkeypatch, before_call):
        """Run before_call(k) ahead of the k-th (0-based) _metric_columns call,
        with cosine chunks of 4 columns."""
        calls = itertools.count()
        real = embedding._metric_columns

        def wrapped(*args):
            before_call(next(calls))
            return real(*args)

        monkeypatch.setattr(embedding, "_metric_columns", wrapped)
        monkeypatch.setattr(embedding, "_PRODUCT_CHUNK", 4)

    def _assert_chunks_run_concurrently(self, monkeypatch, mode):
        # one thread alone would wait at the barrier until it broke
        barrier = threading.Barrier(2, timeout=10)
        self._wrap_columns(monkeypatch, lambda k: k < 2 and barrier.wait())
        threads = threading.active_count()
        got = _all_columns(mode, workers=2)
        assert not barrier.broken
        assert got.num_columns == WORKER_GRAPH.num_nodes
        assert threading.active_count() == threads

    def test_chunks_run_concurrently(self, monkeypatch):
        self._assert_chunks_run_concurrently(monkeypatch, "sdf")

    def test_fixed_chunks_run_concurrently(self, monkeypatch):
        self._assert_chunks_run_concurrently(monkeypatch, "fixed")

    @pytest.mark.parametrize("workers", [0, -1])
    @pytest.mark.parametrize("run", WORKER_RUNS, ids=WORKER_RUN_IDS)
    def test_workers_below_one_rejected(self, monkeypatch, run, workers):
        def started(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(walks, "_sink_arcs", started)
        with pytest.raises(ValueError, match=f"workers must be >= 1, an integer, got {workers}"):
            run(workers)

    @pytest.mark.parametrize("workers", [2.5, True, "2"])
    @pytest.mark.parametrize("run", WORKER_RUNS, ids=WORKER_RUN_IDS)
    def test_non_integer_workers_rejected(self, monkeypatch, run, workers):
        def started(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(walks, "_sink_arcs", started)
        with pytest.raises(ValueError, match=f"workers must be >= 1, an integer, "
                                             f"got {workers!r}"):
            run(workers)

    @pytest.mark.parametrize("run, message", [
        (lambda g: hash_all(g, WalkConfig()), "graph must have at least one node"),
        (lambda g: embed_fixed(g, EmbeddingConfig(d=1)),
         "d=1 exceeds the number of nodes 0"),
        (lambda g: embed_sdf(g, EmbeddingConfig(mode="sdf")),
         "graph must have at least one node"),
    ], ids=["hash_all", "embed_fixed", "embed_sdf"])
    def test_zero_nodes_rejected(self, run, message):
        with pytest.raises(ValueError, match=message):
            run(from_arcs(0, [], []))

    def _assert_chunk_error_propagates(self, monkeypatch, mode, failing_call,
                                       workers):
        error = RuntimeError("chunk failed")

        def fail(k):
            if k == failing_call:
                raise error
            if k == failing_call + 1:
                # still running when the error arrives: its thread must end
                # before the embedding call returns
                time.sleep(0.2)

        self._wrap_columns(monkeypatch, fail)
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            _all_columns(mode, workers)
        assert info.value is error
        assert threading.active_count() == threads

    @pytest.mark.parametrize("failing_call", [0, 1, 4])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_chunk_error_propagates(self, monkeypatch, failing_call, workers):
        self._assert_chunk_error_propagates(monkeypatch, "sdf", failing_call, workers)

    @pytest.mark.parametrize("failing_call", [0, 4])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_fixed_chunk_error_propagates(self, monkeypatch, failing_call, workers):
        self._assert_chunk_error_propagates(monkeypatch, "fixed", failing_call,
                                            workers)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_at_most_workers_minus_one_chunks_discarded(self, monkeypatch, workers):
        # chunks of one column, and the budget crosses in the second: a chunk
        # starts only once the one `workers` places before it was taken
        calls = []
        self._wrap_columns(monkeypatch, calls.append)
        monkeypatch.setattr(embedding, "_PRODUCT_CHUNK", 1)
        got = embed_sdf(WORKER_GRAPH, _worker_cfg("sdf", "cosine", 256, budget_dim=1),
                        workers=workers)
        assert got.num_columns == 2
        assert len(calls) <= got.num_columns + workers - 1

    @pytest.mark.parametrize("metric", ["euclidean", "seuclidean", "canberra"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_dense_metric_memory_bounded_by_workers_chunks(
            self, monkeypatch, metric, workers):
        # distance columns are dense: a chunk of c columns builds n x c float64
        # arrays.  Each of the at most `workers` chunks in flight holds at most
        # seven n x 128 float64 arrays at once (the product or canberra's
        # shared-coordinate sums densified, the distances, the euclidean
        # roots, the coordinates and values of the CSC conversion); the rest
        # (the hash transpose, PageRank, a 3-column result) stays under the
        # stated constant.  Chunks of 512 columns, as cosine and jaccard
        # take, would be about four times this.
        n = 4000
        cfg = small_cfg("sdf", budget_dim=2, metric=metric)
        emb, peak = _traced_peak(monkeypatch, embed_sdf, n, cfg, workers)
        assert emb.num_columns <= 3
        chunk_bytes = 7 * n * 128 * 8
        constant = 2 * 2**20
        assert peak <= workers * chunk_bytes + constant, \
            f"peak {peak} above {workers} x {chunk_bytes} + {constant}"

    @pytest.mark.parametrize("metric", ["euclidean", "seuclidean", "canberra"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_fixed_dense_metric_memory_bounded_by_workers_chunks(
            self, monkeypatch, metric, workers):
        # fixed mode takes its d = 1024 columns in chunks of 128, the sdf
        # test's seven n x 128 float64 arrays each.  The kept chunks and
        # their stack, then the stack and its CSR copy, are two copies of the
        # output at 12 bytes a stored value (float64 data, int32 indices).
        # All d columns as one chunk would hold seven n x d arrays.
        n, d = 4000, 1024
        cfg = small_cfg(d=d, metric=metric)
        emb, peak = _traced_peak(monkeypatch, embed_fixed, n, cfg, workers)
        assert emb.matrix.shape == (n, d)
        chunk_bytes = 7 * n * 128 * 8
        output_bytes = 2 * 12 * emb.nnz
        constant = 2 * 2**20
        bound = workers * chunk_bytes + output_bytes + constant
        assert peak <= bound, \
            f"peak {peak} above {workers} x {chunk_bytes} + {output_bytes} + {constant}"


def _traced_peak(monkeypatch, embed, n, cfg, workers):
    """The embedding of ``random_graph(n, 4, seed=3)`` and the tracemalloc
    peak of making it, with hashing done beforehand."""
    g = random_graph(n, 4, seed=3)
    h = hash_all(g, cfg.walk)
    monkeypatch.setattr(embedding, "hash_all", lambda *args, **kwargs: h)
    tracemalloc.start()
    try:
        emb = embed(g, cfg, workers=workers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return emb, peak


class TestPersistence:
    def test_numpy_typed_settings_save_the_same_bytes(self, tmp_path):
        g = random_graph(50, 4, seed=6)
        python_typed = EmbeddingConfig(
            d=9, bins=256, walk=WalkConfig(num_walks=16, epsilon=0.0078125, weighted=False),
            pagerank=PageRankConfig(tolerance=2.0 ** -20, damping=0.875, pure_power=False))
        numpy_typed = EmbeddingConfig(
            d=np.int64(9), bins=np.int32(256),
            walk=WalkConfig(num_walks=np.int64(16), epsilon=np.float32(0.0078125),
                            weighted=np.bool_(False)),
            pagerank=PageRankConfig(tolerance=np.float32(2.0 ** -20),
                                    damping=np.float32(0.875), pure_power=np.bool_(False)))
        for name, cfg in (("python", python_typed), ("numpy", numpy_typed)):
            save_embedding(embed_fixed(g, cfg), tmp_path / name)
        for f in (embedding.MATRIX_FILE, embedding.FEATURE_MAP_FILE, embedding.CONFIG_FILE):
            assert (tmp_path / "numpy" / f).read_bytes() == (tmp_path / "python" / f).read_bytes()

    @pytest.mark.parametrize("fmt", ["coo", "csc", "lil"])
    def test_any_sparse_format_kept_as_csr(self, fmt):
        g, labels = planted_partition(300, 3, 0.05, 0.005, seed=1)
        emb = embed_fixed(g, small_cfg(d=32))
        other = Embedding(matrix=emb.matrix.asformat(fmt), ind=emb.ind, config=emb.config)
        assert other.matrix.format == "csr"
        _assert_same_bits(other, emb)
        cfg = ProtocolConfig(train_fractions=(0.5,), shuffles=2, repetitions=1)
        assert run_protocol(other, labels, cfg).to_json() == \
            run_protocol(emb, labels, cfg).to_json()

    def test_csr_matrix_kept_as_is(self):
        m = sp.csr_matrix(np.eye(3))
        assert Embedding(matrix=m, ind=np.arange(3), config={}).matrix is m

    @pytest.mark.parametrize("matrix", [np.eye(3), [[1.0]], None])
    def test_non_sparse_matrix_refused(self, matrix):
        with pytest.raises(TypeError, match="matrix must be scipy sparse"):
            Embedding(matrix=matrix, ind=np.arange(3), config={})

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

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([5e-324, -5e-324, 2.0 ** -1074 * 3,
                                   2.2250738585072009e-308, -0.0, 1 / 3,
                                   1 - 2.0 ** -53, -1e308]),
                  st.integers(0, 256).map(lambda k: k / 256)),
        min_size=1, max_size=60))
    def test_any_finite_float64_round_trips_exactly(self, values):
        # one value per row, spread over three columns; pivots name rows
        rows = np.arange(len(values))
        m = sp.csr_matrix((np.array(values), (rows, rows % 3)), shape=(len(values), 3))
        emb = Embedding(matrix=m, ind=np.arange(3) % len(values), config={})
        with tempfile.TemporaryDirectory() as tmp:
            save_embedding(emb, tmp)
            back = load_embedding(tmp).matrix
        np.testing.assert_array_equal(back.indptr, m.indptr)
        np.testing.assert_array_equal(back.indices, m.indices)
        assert back.data.dtype == np.float64
        assert back.data.tobytes() == m.data.tobytes()

    def test_round_trip_digitized(self, tmp_path):
        g = random_graph(35, 4, seed=6)
        emb = embed_sdf(g, small_cfg("sdf", budget_dim=3))
        save_embedding(emb, tmp_path / "emb")
        back = load_embedding(tmp_path / "emb")
        np.testing.assert_array_equal(back.matrix.indptr, emb.matrix.indptr)
        np.testing.assert_array_equal(back.matrix.indices, emb.matrix.indices)
        assert back.matrix.data.tobytes() == emb.matrix.data.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), bins=st.sampled_from([2, 3, 7, 255, 256, 1000]),
           rows=st.integers(1, 9), cols=st.integers(1, 9))
    def test_bin_codes_round_trip_exactly(self, data, bins, rows, cols):
        # codes up to 4 * bins: distance metrics give values above 1
        cells = data.draw(st.lists(st.integers(0, rows * cols - 1), unique=True,
                                   max_size=rows * cols))
        codes = data.draw(st.lists(st.integers(1, 4 * bins), min_size=len(cells),
                                   max_size=len(cells)))
        cells = np.array(cells, dtype=np.int64)
        m = sp.csr_matrix((np.array(codes, dtype=np.int64) / bins,
                           (cells // cols, cells % cols)), shape=(rows, cols))
        emb = Embedding(matrix=m, ind=np.arange(cols) % rows, config={"bins": bins})
        with tempfile.TemporaryDirectory() as tmp:
            save_embedding(emb, tmp)
            back = load_embedding(tmp).matrix
        assert back.indptr.tobytes() == m.indptr.tobytes()
        assert back.indices.tobytes() == m.indices.tobytes()
        assert back.data.tobytes() == m.data.tobytes()

    @staticmethod
    def stored(directory):
        """The arrays of ``embedding.npz``, read with pickles refused."""
        path = directory / "embedding.npz"
        with zipfile.ZipFile(path) as zf:
            assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_STORED}
        with np.load(path, allow_pickle=False) as npz:
            return {k: npz[k] for k in npz.files}

    def test_npz_layout(self, tmp_path):
        g = random_graph(20, 4, seed=1)
        emb = embed_fixed(g, small_cfg(d=5))
        save_embedding(emb, tmp_path / "e")
        stored = self.stored(tmp_path / "e")
        assert set(stored) == {"indptr", "indices", "data", "shape", "format"}
        assert stored["format"].item() == b"csr"
        assert stored["shape"].tolist() == [20, 5]
        assert stored["indptr"].tobytes() == emb.matrix.indptr.tobytes()
        assert stored["indices"].tobytes() == emb.matrix.indices.tobytes()
        assert stored["data"].dtype == np.float64
        assert stored["data"].tobytes() == emb.matrix.data.tobytes()

    def test_quantized_npz_codes(self, tmp_path):
        g = random_graph(35, 4, seed=6)
        emb = embed_sdf(g, small_cfg("sdf", budget_dim=3))
        save_embedding(emb, tmp_path / "e")
        stored = self.stored(tmp_path / "e")
        # cosine codes run 0..256: one past uint8
        assert stored["data"].dtype == np.uint16
        np.testing.assert_array_equal(stored["data"], np.rint(emb.matrix.data * 256))
        assert stored["indices"].tobytes() == emb.matrix.indices.tobytes()

    @pytest.mark.parametrize("codes,dtype", [
        ([0, 255], np.uint8), ([256], np.uint16), ([2**16], np.uint32),
        ([2**32], np.uint64), ([-1, 127], np.int8), ([-1, 128], np.int16),
        ([-(2**15) - 1], np.int32), ([-1, 2**31], np.int64), ([], np.uint8),
    ])
    def test_codes_take_narrowest_integer_dtype(self, tmp_path, codes, dtype):
        bins = 4
        m = sp.csr_matrix((np.array(codes, dtype=np.int64) / bins,
                           (np.zeros(len(codes), dtype=int), np.arange(len(codes)))),
                          shape=(1, max(len(codes), 1)))
        emb = Embedding(matrix=m, ind=np.zeros(m.shape[1], dtype=int),
                        config={"bins": bins})
        save_embedding(emb, tmp_path / "e")
        assert self.stored(tmp_path / "e")["data"].dtype == dtype
        assert load_embedding(tmp_path / "e").matrix.data.tobytes() == m.data.tobytes()

    @pytest.mark.parametrize("value_bits,dtype", [(32, np.float64), (16, np.uint16)])
    def test_non_canonical_matrix_saved_canonical(self, tmp_path, value_bits, dtype):
        # row 0 lists column 1 before column 0, and column 1 twice: the
        # codes 200 + 200 sum to 400, past uint8
        m = sp.csr_matrix((np.array([200, 100, 200, 3]) / 256, [1, 0, 1, 1],
                           [0, 3, 4]), shape=(2, 2))
        arrays = [a.copy() for a in (m.indptr, m.indices, m.data)]
        emb = Embedding(matrix=m, ind=np.arange(2),
                        config={"bins": 256} if value_bits == 16 else {})
        assert emb.value_bits == value_bits
        save_embedding(emb, tmp_path / "e")
        assert self.stored(tmp_path / "e")["data"].dtype == dtype
        back = load_embedding(tmp_path / "e").matrix
        assert back.indptr.tolist() == [0, 2, 3]
        assert back.indices.tolist() == [0, 1, 1]
        assert back.data.tolist() == [100 / 256, 400 / 256, 3 / 256]
        for a, b in zip(arrays, (m.indptr, m.indices, m.data)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("value_bits,field", [(32, "real"), (16, "integer")])
    def test_symmetric_matrix_written_general(self, tmp_path, value_bits, field):
        # a small symmetric matrix stores every entry, not one triangle
        m = sp.csr_matrix(np.array([[0.5, 0.25], [0.25, 1.0]]))
        emb = Embedding(matrix=m, ind=np.arange(2),
                        config={"bins": 256} if value_bits == 16 else {})
        assert emb.value_bits == value_bits
        save_embedding(emb, tmp_path / "e")
        stored = self.stored(tmp_path / "e")
        assert stored["data"].dtype.kind == {"real": "f", "integer": "u"}[field]
        assert stored["indptr"].tolist() == [0, 2, 4]
        assert stored["indices"].tolist() == [0, 1, 0, 1]
        assert len(stored["data"]) == 4
        back = load_embedding(tmp_path / "e").matrix
        assert back.data.tobytes() == m.data.tobytes()

    def test_version_1_directory_refused(self, tmp_path):
        g = random_graph(20, 4, seed=1)
        save_embedding(embed_fixed(g, small_cfg(d=3)), tmp_path / "e")
        cfg_file = tmp_path / "e" / "config.json"
        meta = json.loads(cfg_file.read_text())
        meta["format_version"] = 1
        cfg_file.write_text(json.dumps(meta))
        with pytest.raises(EmbeddingFormatError,
                           match=r"format version 1 unsupported.*re-run `symbed embed`"):
            load_embedding(tmp_path / "e")

    # ids fixed so that the cases keep their names
    @pytest.mark.parametrize("config,values", [
        ({"bins": 256}, [0.5, 0.3]),
        ({"bins": 256}, [0.5, float("nan")]),
        ({"bins": 256}, [float("inf")]),
        ({"bins": 256}, [-0.0]),
        ({"bins": 256}, [1e300]),
    ], ids=[f"config{i}-values{i}" for i in range(4, 9)])
    def test_unquantized_16_bit_save_writes_nothing(self, tmp_path, config, values):
        m = sp.csr_matrix((np.array(values), (np.arange(len(values)),
                                              np.zeros(len(values), dtype=int))),
                          shape=(len(values), 1))
        emb = Embedding(matrix=m, ind=np.zeros(1, dtype=int), config=config)
        assert emb.value_bits == 16
        out = tmp_path / "e"
        out.mkdir()
        with pytest.raises(ValueError):
            save_embedding(emb, out)
        assert list(out.iterdir()) == []

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
        (tmp_path / "e" / "embedding.npz").write_bytes(b"not a matrix\n1 2 3\n")
        with pytest.raises(EmbeddingFormatError, match="embedding.npz: "):
            load_embedding(tmp_path / "e")

    def _identity_with(self, tmp_path, **arrays):
        """A saved 3 x 3 identity embedding whose embedding.npz then holds
        the identity's CSR arrays with `arrays` put in their place."""
        save_embedding(Embedding(matrix=sp.csr_matrix(np.eye(3)), ind=np.arange(3),
                                 config={}), tmp_path / "e")
        base = {"format": np.array(b"csr"), "shape": np.array([3, 3]),
                "indptr": np.array([0, 1, 2, 3]), "indices": np.array([0, 1, 2]),
                "data": np.ones(3)}
        np.savez(tmp_path / "e" / "embedding.npz", **{**base, **arrays})
        return tmp_path / "e"

    def test_identity_arrays_load(self, tmp_path):
        # the base of the malformed cases below is itself accepted
        back = load_embedding(self._identity_with(tmp_path)).matrix
        assert (back != sp.eye(3)).nnz == 0

    @pytest.mark.parametrize("arrays,message", [
        ({"format": np.array(b"csc")}, "stored as csc, expected csr"),
        ({"format": np.array(b"coo"), "row": np.arange(3), "col": np.arange(3)},
         "stored as coo, expected csr"),
        ({"indices": np.array([0, 1, 3])}, "indices must be < 3"),
        ({"indices": np.array([0, -1, 2])}, "indices must be >= 0"),
        ({"indptr": np.array([0, 2, 1, 3])}, "indptr must be a non-decreasing"),
        ({"indptr": np.array([1, 2, 3, 3])}, "index pointer should start with 0"),
        ({"indptr": np.array([0, 1, 2])}, "index pointer size"),
        ({"data": np.ones(2)}, "same size"),
        ({"indptr": np.array([0, 2, 2, 3]), "indices": np.array([0, 0, 2])},
         "not sorted and unique"),
        ({"indptr": np.array([0, 2, 2, 3]), "indices": np.array([1, 0, 2])},
         "not sorted and unique"),
        ({"data": np.ones(3, dtype=np.float32)}, "stored as float64.*float32"),
        ({"data": np.ones(3, dtype=np.int64)}, "stored as float64.*int64"),
        # a cast to an index dtype would load 1.5 as 1 with no error
        ({"indices": np.array([0.0, 1.5, 2.0])}, "indices stored as float64, expected int"),
        ({"indices": np.array([0.0, 1.0, 2.0])}, "indices stored as float64, expected int"),
        ({"indices": np.arange(3, dtype=np.complex128)}, "indices stored as complex128"),
        ({"indptr": np.array([0.0, 1.0, 2.0, 3.0])}, "indptr stored as float64, expected int"),
        ({"indptr": np.array([False, True, True, True])}, "indptr stored as bool"),
    ])
    def test_malformed_matrix_refused(self, tmp_path, arrays, message):
        directory = self._identity_with(tmp_path, **arrays)
        with pytest.raises(EmbeddingFormatError, match=f"embedding.npz: .*{message}"):
            load_embedding(directory)

    def test_object_array_refused_without_unpickling(self, tmp_path):
        unpickled.clear()
        directory = self._identity_with(
            tmp_path, data=np.array([Tripwire()] * 3, dtype=object))
        with pytest.raises(EmbeddingFormatError, match="embedding.npz: .*pickle"):
            load_embedding(directory)
        assert unpickled == []
        # the file does hold a pickle that would run code when loaded
        with np.load(directory / "embedding.npz", allow_pickle=True) as npz:
            npz["data"]
        assert unpickled

    def test_version_2_directory_refused(self, tmp_path):
        # version 2 stored the matrix as Matrix Market text
        emb = Embedding(matrix=sp.csr_matrix(np.eye(3)), ind=np.arange(3), config={})
        save_embedding(emb, tmp_path / "e")
        (tmp_path / "e" / "embedding.npz").unlink()
        mmwrite(tmp_path / "e" / "embedding.mtx", emb.matrix.tocoo())
        cfg_file = tmp_path / "e" / "config.json"
        meta = json.loads(cfg_file.read_text())
        meta["format_version"] = 2
        cfg_file.write_text(json.dumps(meta))
        with pytest.raises(EmbeddingFormatError,
                           match=r"format version 2 unsupported.*re-run `symbed embed`"):
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

    @pytest.mark.parametrize("key", ["shape", "value_bits", "config"])
    def test_missing_config_key_rejected(self, tmp_path, key):
        cfg_file = self._saved(tmp_path) / "config.json"
        meta = json.loads(cfg_file.read_text())
        del meta[key]
        cfg_file.write_text(json.dumps(meta))
        with pytest.raises(EmbeddingFormatError, match=f"config.json: missing key '{key}'"):
            load_embedding(tmp_path / "e")

    @pytest.mark.parametrize("key,value", [
        ("shape", 5), ("shape", [20]), ("shape", [20, -1]), ("shape", [20.0, 10]),
        ("shape", "20x10"), ("value_bits", "x"), ("value_bits", 8),
        ("value_bits", 16.0), ("config", [1]),
    ])
    def test_malformed_config_value_rejected(self, tmp_path, key, value):
        cfg_file = self._saved(tmp_path) / "config.json"
        meta = json.loads(cfg_file.read_text())
        meta[key] = value
        cfg_file.write_text(json.dumps(meta))
        with pytest.raises(EmbeddingFormatError, match=f"config.json: key '{key}' must be"):
            load_embedding(tmp_path / "e")

    @pytest.mark.parametrize("bins", [None, 1, 0, "256", 256.0, True])
    def test_16_bit_without_valid_bins_rejected(self, tmp_path, bins):
        g = random_graph(35, 4, seed=6)
        save_embedding(embed_sdf(g, small_cfg("sdf", budget_dim=3)), tmp_path / "e")
        cfg_file = tmp_path / "e" / "config.json"
        meta = json.loads(cfg_file.read_text())
        if bins is None:
            del meta["config"]["bins"]
        else:
            meta["config"]["bins"] = bins
        cfg_file.write_text(json.dumps(meta))
        with pytest.raises(EmbeddingFormatError,
                           match="config.json: key 'config.bins' must be an integer >= 2"):
            load_embedding(tmp_path / "e")

    def test_32_bit_with_valid_bins_rejected(self, tmp_path):
        # bins 256 makes the embedding 16-bit, so a 32-bit record contradicts it
        cfg_file = self._saved(tmp_path) / "config.json"
        meta = json.loads(cfg_file.read_text())
        assert meta["value_bits"] == 32
        meta["config"]["bins"] = 256
        cfg_file.write_text(json.dumps(meta))
        with pytest.raises(EmbeddingFormatError,
                           match="config.json: key 'value_bits' must be 16 when "
                                 "'config.bins' is 256, got 32"):
            load_embedding(tmp_path / "e")

    def test_16_bit_real_field_rejected(self, tmp_path):
        cfg_file = self._saved(tmp_path) / "config.json"
        meta = json.loads(cfg_file.read_text())
        meta["value_bits"] = 16
        meta["config"]["bins"] = 256
        cfg_file.write_text(json.dumps(meta))
        with pytest.raises(EmbeddingFormatError,
                           match="embedding.npz: 16-bit values are stored as integer "
                                 "bin codes, this file holds float64"):
            load_embedding(tmp_path / "e")

    def test_invalid_json_config_rejected(self, tmp_path):
        (self._saved(tmp_path) / "config.json").write_text('{"shape": [20,\n')
        with pytest.raises(EmbeddingFormatError, match="config.json: not valid JSON"):
            load_embedding(tmp_path / "e")

    def test_recorded_shape_mismatch_rejected(self, tmp_path):
        cfg_file = self._saved(tmp_path) / "config.json"
        meta = json.loads(cfg_file.read_text())
        meta["shape"] = [20, 9]
        cfg_file.write_text(json.dumps(meta))
        with pytest.raises(EmbeddingFormatError,
                           match=r"matrix shape \(20, 10\) does not match recorded \[20, 9\]"):
            load_embedding(tmp_path / "e")

    def test_non_object_config_rejected(self, tmp_path):
        (self._saved(tmp_path) / "config.json").write_text("[1]\n")
        with pytest.raises(EmbeddingFormatError, match="config.json: expected a JSON object"):
            load_embedding(tmp_path / "e")

    @pytest.mark.parametrize("lineno,node", [(2, 7), (3, -4), (1, 3)])
    def test_pivot_outside_rows_rejected(self, tmp_path, lineno, node):
        m = sp.csr_matrix(np.eye(3))
        save_embedding(Embedding(matrix=m, ind=np.arange(3), config={}), tmp_path / "e")
        path = tmp_path / "e" / "feature_map.tsv"
        lines = path.read_text().splitlines(keepends=True)
        lines[lineno - 1] = f"{lineno - 1}\t{node}\n"
        path.write_text("".join(lines))
        with pytest.raises(EmbeddingFormatError,
                           match=rf"feature_map.tsv:{lineno}: pivot node {node} outside \[0, 3\)"):
            load_embedding(tmp_path / "e")

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), num_rows=st.integers(1, 50), num_columns=st.integers(0, 12))
    def test_canonical_feature_map_matches_line_parser(self, data, num_rows,
                                                       num_columns):
        # a leading blank line sends the same lines through the line parser
        nodes = data.draw(st.lists(st.integers(0, num_rows - 1),
                                   min_size=num_columns, max_size=num_columns))
        text = "".join(f"{j}\t{node}\n" for j, node in enumerate(nodes))
        with tempfile.TemporaryDirectory() as tmp:
            fast, slow = Path(tmp, "fast.tsv"), Path(tmp, "slow.tsv")
            fast.write_text(text)
            slow.write_text("\n" + text)
            a = _read_feature_map(fast, num_rows, num_columns)
            b = _read_feature_map(slow, num_rows, num_columns)
        assert a.dtype == b.dtype == np.int64
        assert a.tolist() == b.tolist() == nodes

    @pytest.mark.parametrize("text,message", [
        ("0\t1\n1\t3\n2\t0\n", r"feature_map\.tsv:2: pivot node 3 outside \[0, 3\)"),
        ("0\t1\n1\t999999999999999999\n2\t0\n",
         r"feature_map\.tsv:2: pivot node 999999999999999999 outside"),
        ("0\t1\n2\t2\n1\t0\n", r"feature_map\.tsv:2: column 2 out of order"),
        ("1\t1\n", r"feature_map\.tsv:1: column 1 out of order"),
        ("0\t1\n1\t2\n", r"feature_map\.tsv: 2 columns listed, the matrix has 3"),
        ("0\t1\n1\t2\n2\t0\n3\t0\n", r"feature_map\.tsv: 4 columns listed"),
    ])
    def test_bad_ids_in_canonical_feature_map_report_line(self, tmp_path, text,
                                                          message):
        save_embedding(Embedding(matrix=sp.csr_matrix(np.eye(3)), ind=np.arange(3),
                                 config={}), tmp_path / "e")
        (tmp_path / "e" / "feature_map.tsv").write_text(text)
        with pytest.raises(EmbeddingFormatError, match=message):
            load_embedding(tmp_path / "e")

    def test_missing_feature_map_rejected(self, tmp_path):
        (self._saved(tmp_path) / "feature_map.tsv").unlink()
        with pytest.raises(EmbeddingFormatError, match="not found"):
            load_embedding(tmp_path / "e")

    def test_unnamed_columns_not_saved(self, tmp_path):
        # random_embedding's columns name no pivot node; load would reject it
        with pytest.raises(ValueError, match="0 columns, the matrix has 8"):
            save_embedding(random_embedding(30, 8), tmp_path / "e")
        assert not (tmp_path / "e").exists()

    def test_missing_directory(self, tmp_path):
        with pytest.raises(EmbeddingFormatError, match="not found"):
            load_embedding(tmp_path / "nope")

    def test_config_snapshot_records_seed(self, tmp_path):
        g = random_graph(20, 4, seed=1)
        emb = embed_fixed(g, small_cfg(d=3))
        save_embedding(emb, tmp_path / "e")
        meta = json.loads((tmp_path / "e" / "config.json").read_text())
        assert meta["config"]["walk"]["seed"] == 7

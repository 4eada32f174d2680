
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from symbed.embedding import (METRICS, VARIANCE_FLOOR, _metric_columns,
                              _prepare_metric, compute_variances)
from symbed.ranking import pagerank, rank_nodes
from symbed.synth import random_graph
from symbed.walks import WalkConfig, hash_all

from oracles import HashVector, hash_row, similarity


def hv(d):
    idx = np.array(sorted(d), dtype=np.int64)
    return HashVector(indices=idx, values=np.array([d[i] for i in idx], dtype=float))


def dense_metric(a, b, metric, n, variances=None):
    """Oracle: evaluate each formula on full dense vectors."""
    av, bv = a.to_dense(n), b.to_dense(n)
    if metric == "cosine":
        na, nb = np.linalg.norm(av), np.linalg.norm(bv)
        if na == 0 or nb == 0:
            return 0.0
        return float(av @ bv / (na * nb))
    if metric == "euclidean":
        return float(np.linalg.norm(av - bv))
    if metric == "seuclidean":
        return float(np.sqrt(np.sum((av - bv) ** 2 / variances)))
    if metric == "canberra":
        num, den = np.abs(av - bv), np.abs(av) + np.abs(bv)
        return float(np.sum(num[den > 0] / den[den > 0]))
    if metric == "jaccard":
        sa, sb = av != 0, bv != 0
        union = np.sum(sa | sb)
        return float(np.sum(sa & sb) / union) if union else 0.0
    raise AssertionError(metric)


def random_pair(rng, n=200, max_nnz=25):
    out = []
    for _ in range(2):
        k = int(rng.integers(1, max_nnz))
        idx = rng.choice(n, size=k, replace=False)
        vals = rng.random(k) + 1e-3
        out.append(hv(dict(zip(idx.tolist(), (vals / vals.sum()).tolist()))))
    return out


class TestSpecificValues:
    def test_identical_vectors(self):
        a = hv({1: 0.25, 4: 0.5, 9: 0.25})
        b = hv({1: 0.25, 4: 0.5, 9: 0.25})
        assert similarity(a, b, "cosine") == 1.0  # exact
        assert similarity(a, b, "euclidean") == 0.0
        assert similarity(a, b, "jaccard") == 1.0

    def test_disjoint_supports(self):
        a, b = hv({0: 0.5, 1: 0.5}), hv({2: 0.5, 3: 0.5})
        assert similarity(a, b, "cosine") == 0.0
        assert similarity(a, b, "jaccard") == 0.0

    def test_half_overlap(self):
        # dot = 0.25, each norm = 0.5 * sqrt(2) -> cosine 0.5; union of 3
        a, b = hv({0: 0.5, 1: 0.5}), hv({0: 0.5, 2: 0.5})
        assert similarity(a, b, "cosine") == pytest.approx(0.5, abs=1e-12)
        assert similarity(a, b, "jaccard") == pytest.approx(1 / 3, abs=1e-12)

    def test_empty_conventions(self):
        e = hv({})
        a = hv({0: 1.0})
        v = np.full(4, 0.1)
        for metric in ("cosine", "jaccard", "euclidean", "seuclidean", "canberra"):
            assert similarity(e, e, metric, v) == 0.0
        assert similarity(e, a, "cosine") == 0.0
        assert similarity(e, a, "jaccard") == 0.0
        assert similarity(e, a, "euclidean") == 1.0

    def test_canberra_zero_terms_ignored(self):
        a, b = hv({0: 0.5, 1: 0.5}), hv({0: 0.5, 2: 0.5})
        # coordinate 0 contributes 0, coordinates 1 and 2 contribute 1 each
        assert similarity(a, b, "canberra") == pytest.approx(2.0, abs=1e-12)

    def test_seuclidean_divides_by_variance(self):
        a, b = hv({0: 0.8, 1: 0.2}), hv({0: 0.2, 1: 0.8})
        v = np.array([0.5, 0.25])
        want = np.sqrt(0.6 ** 2 / 0.5 + 0.6 ** 2 / 0.25)
        assert similarity(a, b, "seuclidean", v) == pytest.approx(want, abs=1e-12)

    def test_seuclidean_requires_variances(self):
        a = hv({0: 1.0})
        with pytest.raises(ValueError):
            similarity(a, a, "seuclidean")

    def test_unknown_metric(self):
        a = hv({0: 1.0})
        with pytest.raises(ValueError):
            similarity(a, a, "manhattan")


class TestOracle:
    def test_cosine_matches_dense_oracle_1000_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            a, b = random_pair(rng)
            got = similarity(a, b, "cosine")
            want = dense_metric(a, b, "cosine", 200)
            assert abs(got - want) < 1e-10

    @pytest.mark.parametrize("metric", ["euclidean", "seuclidean", "canberra",
                                        "jaccard"])
    def test_other_metrics_match_dense_oracle(self, metric):
        rng = np.random.default_rng(13)
        variances = rng.random(200) + 0.05
        for _ in range(300):
            a, b = random_pair(rng)
            got = similarity(a, b, metric, variances)
            want = dense_metric(a, b, metric, 200, variances)
            assert abs(got - want) < 1e-10


class TestProperties:
    def test_symmetry_and_ranges(self):
        rng = np.random.default_rng(21)
        variances = rng.random(200) + 0.05
        for _ in range(200):
            a, b = random_pair(rng)
            for metric in ("cosine", "jaccard"):
                x, y = similarity(a, b, metric), similarity(b, a, metric)
                assert x == pytest.approx(y, abs=1e-12)
                assert 0.0 <= x <= 1.0
            for metric in ("euclidean", "seuclidean", "canberra"):
                x = similarity(a, b, metric, variances)
                assert x == pytest.approx(similarity(b, a, metric, variances),
                                          abs=1e-9)
                assert x >= 0.0

    def test_self_cosine_is_exactly_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, _ = random_pair(rng)
            assert similarity(a, a, "cosine") == 1.0


class TestVariances:
    def test_identical_vectors_floored(self):
        rows = sp.csr_matrix(np.tile([[0.5, 0.5, 0.0]], (4, 1)))
        v = compute_variances(rows)
        np.testing.assert_allclose(v, VARIANCE_FLOOR)

    def test_population_variance_with_absent_coordinate(self):
        # {x: 1} and the empty vector: population variance of {1, 0} is 0.25
        rows = sp.csr_matrix(np.array([[1.0], [0.0]]))
        assert compute_variances(rows)[0] == pytest.approx(0.25)

    def test_never_seen_coordinate_floored(self):
        rows = sp.csr_matrix(np.array([[1.0, 0.0], [0.5, 0.0]]))
        assert compute_variances(rows)[1] == VARIANCE_FLOOR

    def test_requires_two_rows(self):
        with pytest.raises(ValueError):
            compute_variances(sp.csr_matrix(np.array([[1.0]])))

    def test_matches_numpy_var(self):
        rng = np.random.default_rng(9)
        dense = rng.random((20, 7)) * (rng.random((20, 7)) > 0.5)
        v = compute_variances(sp.csr_matrix(dense))
        np.testing.assert_allclose(v, np.maximum(dense.var(axis=0), VARIANCE_FLOOR),
                                   atol=1e-12)


class TestLibraryMatchesScipy:
    @pytest.mark.parametrize("metric", METRICS)
    def test_metric_columns_match_cdist(self, metric):
        h = hash_all(random_graph(60, 3, seed=2), WalkConfig(num_walks=64, seed=1))
        assert np.diff(h.indptr).min() > 0  # cosine and jaccard of empty rows differ
        pivots = np.array([5, 0, 59, 17, 33])
        got = _metric_columns(_prepare_metric(h, metric), pivots).toarray()
        a, p = h.toarray(), h[pivots].toarray()
        if metric == "cosine":
            want = 1.0 - cdist(a, p, "cosine")
        elif metric == "jaccard":
            want = 1.0 - cdist(a != 0, p != 0, "jaccard")
        elif metric == "seuclidean":
            want = cdist(a, p, "seuclidean", V=compute_variances(h))
        else:
            want = cdist(a, p, metric)
        # the euclidean paths expand |a - b|^2 as |a|^2 + |b|^2 - 2 a.b, whose
        # cancellation near zero costs about sqrt(ulp) of the value scale
        np.testing.assert_allclose(got, want, rtol=1e-9,
                                   atol=1e-7 * (1.0 + float(want.max())))


class TestEmptyRows:
    @pytest.mark.parametrize("metric", ["cosine", "jaccard"])
    def test_empty_pivot_column_stores_nothing(self, metric):
        # rows 5, 17 and 40 emptied: pivots 5 and 17 and nodes 40 and 17
        h = hash_all(random_graph(60, 3, seed=2), WalkConfig(num_walks=64, seed=1))
        empty = np.array([5, 17, 40])
        h.data[np.isin(np.repeat(np.arange(60), np.diff(h.indptr)), empty)] = 0.0
        h.eliminate_zeros()
        assert (np.diff(h.indptr) == 0).sum() == len(empty)
        pivots = np.array([5, 0, 59, 17, 33])
        got = _metric_columns(_prepare_metric(h, metric), pivots)
        per_col = np.diff(got.indptr)
        assert per_col[[0, 3]].tolist() == [0, 0]
        if metric == "cosine":
            dense = got.toarray()
            assert all(dense[p, j] == 1.0 for j, p in enumerate(pivots) if per_col[j])
        want = [[similarity(hash_row(h, i), hash_row(h, p), metric) for p in pivots]
                for i in range(60)]
        np.testing.assert_allclose(got.toarray(), want, rtol=1e-12, atol=1e-15)


@lru_cache(maxsize=None)
def _chunk_case():
    g = random_graph(4000, 4, seed=1)
    return hash_all(g, WalkConfig(num_walks=128)), rank_nodes(pagerank(g))[:128]


class TestChunkMemory:
    @pytest.mark.parametrize("metric, arrays", [
        ("euclidean", 3), ("seuclidean", 3), ("canberra", 4.5)])
    def test_distance_chunk_peak(self, metric, arrays):
        # a distance chunk fills one dense pivots x n block in place, whose
        # values become the CSC columns without another copy; canberra also
        # holds its sparse shared-coordinate sums
        h, pivots = _chunk_case()
        prepared = _prepare_metric(h, metric)
        tracemalloc.start()
        try:
            cols = _metric_columns(prepared, pivots)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cols.shape == (h.shape[0], len(pivots))
        unit = h.shape[0] * len(pivots) * 8
        assert peak <= arrays * unit, f"peak {peak / unit:.2f} n x 128 arrays"


@st.composite
def positive_rows_and_pivots(draw):
    """A small CSR matrix of positive values, as hash_all stores, and pivot
    rows: empty rows, disjoint and overlapping supports, values repeated
    across rows, duplicate rows, and copies of a row with every value nudged,
    whose small distance sums terms far below 1."""
    num_cols = draw(st.integers(1, 8))
    values = st.sampled_from([0.25, 0.5, 1.0]) | st.floats(
        1e-9, 1.0, allow_subnormal=False)
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["new", "copy", "nudged"]) if rows
                    else st.just("new"))
        if kind == "new":
            cols = draw(st.sets(st.integers(0, num_cols - 1)))
            rows.append({c: draw(values) for c in cols})
        else:
            row = draw(st.sampled_from(rows))
            nudge = st.just(0.0) if kind == "copy" else st.floats(1e-9, 1e-3)
            rows.append({c: v * (1.0 + draw(nudge)) for c, v in row.items()})
    dense = np.zeros((len(rows), num_cols))
    for i, row in enumerate(rows):
        dense[i, list(row)] = list(row.values())
    pivots = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=6))
    return sp.csr_matrix(dense), np.array(pivots)


class TestCanberraMatchesScipy:
    @settings(max_examples=200, deadline=None)
    @given(positive_rows_and_pivots())
    def test_canberra_columns_match_cdist(self, case):
        h, pivots = case
        got = _metric_columns(_prepare_metric(h, "canberra"), pivots).toarray()
        a, p = h.toarray(), h[pivots].toarray()
        want = cdist(a, p, "canberra")
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        # a coordinate held by one side only adds exactly 1
        apart = ((a != 0).astype(int) @ (p != 0).T.astype(int)) == 0
        np.testing.assert_array_equal(got[apart], want[apart])
        same = (a[:, None, :] == p[None, :, :]).all(axis=2)
        assert np.all(got[same] == 0.0) and not np.signbit(got[same]).any()

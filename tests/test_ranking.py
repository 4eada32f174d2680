import warnings

import numpy as np
import pytest

from symbed.graph import from_arcs
from symbed.ranking import (ConvergenceWarning, PageRankConfig, pagerank,
                            rank_nodes)

from oracles import neighbors


def dense_transition(g):
    """Oracle: explicit dense column-stochastic matrix."""
    n = g.num_nodes
    C = np.zeros((n, n))
    for u in range(n):
        nbrs = neighbors(g, u)
        if len(nbrs):
            for v in nbrs:
                C[v, u] += 1.0 / len(nbrs)
    return C


def dense_pagerank(g, damping=0.85, tol=1e-6, max_iters=100):
    """Oracle: the same update rule evaluated with dense numpy arrays."""
    n = g.num_nodes
    C = dense_transition(g)
    dangling = np.array([len(neighbors(g, u)) == 0 for u in range(n)])
    r = np.full(n, 1.0 / n)
    prev = None
    for _ in range(max_iters):
        nxt = damping * (C @ r + r[dangling].sum() / n) + (1 - damping) / n
        if np.abs(nxt - r).sum() < tol:
            r = nxt
            break
        if prev is not None and np.abs(nxt - prev).sum() < tol:
            r = 0.5 * (r + nxt)
            break
        prev, r = r, nxt
    return r / r.sum()


def random_small_graph(rng, max_nodes=10):
    n = int(rng.integers(2, max_nodes + 1))
    m = int(rng.integers(1, 4 * n))
    return from_arcs(n, rng.integers(0, n, m), rng.integers(0, n, m), directed=True)


class TestPageRank:
    def test_complete_graph_uniform(self):
        src = [i for i in range(3) for j in range(3) if i != j]
        dst = [j for i in range(3) for j in range(3) if i != j]
        g = from_arcs(3, src, dst, directed=True)
        r = pagerank(g, PageRankConfig(damping=1.0))
        np.testing.assert_allclose(r, 1 / 3, atol=1e-12)

    def test_path_stationary_distribution(self, path3):
        r = pagerank(path3, PageRankConfig(damping=1.0))
        # analytic stationary distribution: degree / total degree
        np.testing.assert_allclose(r, [0.25, 0.5, 0.25], atol=1e-9)
        # cross-check: dominant eigenvector of the dense transition matrix
        vals, vecs = np.linalg.eig(dense_transition(path3))
        lead = vecs[:, np.argmax(vals.real)].real
        lead = lead / lead.sum()
        np.testing.assert_allclose(r, lead, atol=1e-9)

    def test_matches_dense_oracle_on_random_graphs(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            g = random_small_graph(rng)
            got = pagerank(g, PageRankConfig())
            want = dense_pagerank(g)
            np.testing.assert_allclose(got, want, atol=1e-8)

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_small_graph(rng, max_nodes=30)
            r = pagerank(g)
            assert abs(r.sum() - 1.0) < 1e-9
            assert np.all(r >= 0)

    def test_near_fixed_point_on_aperiodic_strongly_connected(self):
        # triangle plus a chord makes the chain aperiodic
        src = [0, 1, 2, 0]
        dst = [1, 2, 0, 2]
        g = from_arcs(3, src, dst, directed=True)
        mu = 1e-9
        r = pagerank(g, PageRankConfig(damping=1.0, tolerance=mu, max_iters=500))
        C = dense_transition(g)
        assert np.abs(C @ r - r).sum() < 2 * mu

    def test_nonconvergence_warns_and_returns_iterate(self):
        g = from_arcs(2, [0, 1], [1, 0], directed=True)  # period-2 cycle
        cfg = PageRankConfig(damping=1.0, max_iters=3, tolerance=1e-15,
                             pure_power=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            r, converged = pagerank(g, cfg, return_converged=True)
        # the 2-cycle starts at its stationary point, so iterates stay uniform
        np.testing.assert_allclose(r, 0.5)
        assert converged or any(issubclass(w.category, ConvergenceWarning)
                                for w in caught)
        # the path 0 - 1 - 2 starts away from its stationary vector, so two
        # iterations cannot reach the tolerance
        path = from_arcs(3, [0, 1], [1, 2], directed=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            r, converged = pagerank(path, PageRankConfig(max_iters=2, tolerance=1e-15),
                                    return_converged=True)
        assert [w.category for w in caught] == [ConvergenceWarning]
        assert converged is False
        assert r.sum() == pytest.approx(1.0, abs=1e-12)

    def test_pure_power_leaks_on_dangling(self):
        # the literal iteration drains all mass through the dangling node;
        # this stall is why the default mode redistributes dangling mass
        g = from_arcs(2, [0], [1], directed=True)  # node 1 dangling
        r = pagerank(g, PageRankConfig(pure_power=True, max_iters=50))
        np.testing.assert_allclose(r, [0.0, 0.0], atol=1e-9)
        damped = pagerank(g, PageRankConfig(damping=0.85))
        assert abs(damped.sum() - 1.0) < 1e-9
        assert damped[1] > damped[0]

    def test_single_node(self):
        g = from_arcs(1, [], [], directed=True)
        np.testing.assert_allclose(pagerank(g), [1.0])

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError, match="graph must have at least one node"):
            pagerank(from_arcs(0, [], [], directed=True))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PageRankConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            PageRankConfig(max_iters=0)
        with pytest.raises(ValueError):
            PageRankConfig(damping=0.0)
        with pytest.raises(ValueError, match="tolerance must be positive"):
            PageRankConfig(tolerance=float("nan"))
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            PageRankConfig(max_iters=float("nan"))


class TestRankNodes:
    def test_descending_order(self):
        order = rank_nodes(np.array([0.2, 0.5, 0.3]))
        assert order.tolist() == [1, 2, 0]

    def test_ties_break_by_ascending_id(self):
        order = rank_nodes(np.array([0.25, 0.25, 0.25, 0.25]))
        assert order.tolist() == [0, 1, 2, 3]

    def test_k3_uniform(self):
        order = rank_nodes(np.full(3, 1 / 3))
        assert order.tolist() == [0, 1, 2]

    def test_order_is_permutation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            scores = rng.random(rng.integers(1, 40))
            order = rank_nodes(scores)
            assert sorted(order.tolist()) == list(range(len(scores)))
            sorted_scores = scores[order]
            assert np.all(np.diff(sorted_scores) <= 0)

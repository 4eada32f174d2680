import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from symbed import walks
from symbed.graph import from_arcs
from symbed.synth import random_graph
from symbed.walks import (WalkConfig, _hash_block, _sink_arcs, dump_hashes,
                          hash_all, walk_lengths)

from oracles import CounterStream, hash_node, hash_row, random_walk


def point_mass(length, max_len=None):
    """Distribution putting all probability on one walk length."""
    m = max_len or length
    w = np.zeros(m)
    w[length - 1] = 1.0
    return w


class TestWalkConfig:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WalkConfig(length_probs=np.array([0.5, 0.4]))

    def test_negative_prob_rejected(self):
        with pytest.raises(ValueError):
            WalkConfig(length_probs=np.array([1.5, -0.5]))

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            WalkConfig(epsilon=1.0)

    @pytest.mark.parametrize("kwargs,message", [
        ({"length_probs": np.array([[1.0]])}, "length_probs must be a nonempty 1-d"),
        ({"length_probs": np.array([])}, "length_probs must be a nonempty 1-d"),
        ({"num_walks": 0}, "num_walks must be >= 1"),
        ({"length_probs": np.full(3, np.nan)}, "length_probs must be nonnegative"),
        ({"num_walks": np.nan}, "num_walks must be >= 1"),
        ({"epsilon": np.nan}, r"epsilon must lie in \[0, 1\)"),
    ])
    def test_settings_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            WalkConfig(**kwargs)

    def test_defaults(self):
        cfg = WalkConfig()
        assert cfg.max_len == 5
        assert cfg.num_walks == 1024
        assert cfg.epsilon == 0.005
        mean_len = np.dot(cfg.length_probs, np.arange(1, cfg.max_len + 1))
        assert mean_len == pytest.approx(3.0)


class TestSampleWalkLength:
    """The shared walk-length array that hash_all (and hash_node) walk by."""

    def test_point_mass_on_five(self):
        cfg = WalkConfig(length_probs=point_mass(5), num_walks=50)
        assert np.all(walk_lengths(cfg) == 5)

    def test_single_length(self):
        cfg = WalkConfig(length_probs=np.array([1.0]), num_walks=50)
        assert np.all(walk_lengths(cfg) == 1)

    def test_uniform_empirical_frequencies(self):
        # multinomial: each count ~ Binomial(n, 0.2), sigma = sqrt(n p (1-p))
        n = 100_000
        draws = walk_lengths(WalkConfig(num_walks=n, seed=42))
        sigma = np.sqrt(n * 0.2 * 0.8)
        for length in range(1, 6):
            assert abs((draws == length).sum() - n * 0.2) < 3 * sigma

    def test_shared_length_array_is_deterministic(self):
        cfg = WalkConfig(num_walks=64, seed=9)
        assert np.array_equal(walk_lengths(cfg), walk_lengths(cfg))


class TestRandomWalk:
    def test_directed_path(self):
        g = from_arcs(3, [0, 1], [1, 2], directed=True)
        counts = random_walk(g, 0, 2, CounterStream(0, 0))
        assert counts == {0: 1, 1: 1, 2: 1}

    def test_dangling_start(self):
        g = from_arcs(8, [0], [1], directed=True)
        counts = random_walk(g, 7, 5, CounterStream(0, 7))
        assert counts == {7: 1}

    def test_two_cycle_alternation(self, two_cycle):
        counts = random_walk(two_cycle, 0, 3, CounterStream(0, 0))
        assert counts == {0: 2, 1: 2}

    def test_start_out_of_range(self, two_cycle):
        with pytest.raises(IndexError):
            random_walk(two_cycle, 2, 1, CounterStream(0, 2))

    def test_walk_visits_length_plus_one(self):
        g = random_graph(40, 6, seed=1)
        for wl in (1, 3, 5):
            counts = random_walk(g, 3, wl, CounterStream(5, 3))
            assert sum(counts.values()) == wl + 1


class TestHashNode:
    """Hand-computed hashes on the per-node reference; TestHashAllRows runs
    the same cases on the library's block path."""

    hash_of = staticmethod(hash_node)

    def test_threshold_strict_less(self):
        # 2-cycle, one walk of length 4 -> visits 0,1,0,1,0 -> counts {0:3, 1:2}
        g = from_arcs(2, [0, 1], [1, 0], directed=True)
        cfg = WalkConfig(length_probs=point_mass(4), num_walks=1, epsilon=0.4, seed=1)
        h = self.hash_of(g, 0, cfg)
        # threshold 5 * 0.4 = 2.0: count 2 is NOT dropped (strictly-less rule)
        assert h.to_dict() == {0: 0.6, 1: 0.4}

    def test_threshold_drops_minority(self):
        g = from_arcs(2, [0, 1], [1, 0], directed=True)
        cfg = WalkConfig(length_probs=point_mass(4), num_walks=1, epsilon=0.5, seed=1)
        h = self.hash_of(g, 0, cfg)
        # threshold 2.5 drops count 2, survivor renormalizes to 1
        assert h.to_dict() == {0: 1.0}

    def test_all_pruned_keeps_top_node(self):
        # deterministic chain: every node visited once, frequencies 1/5 < eps
        g = from_arcs(5, [0, 1, 2, 3], [1, 2, 3, 4], directed=True)
        cfg = WalkConfig(length_probs=point_mass(4), num_walks=1, epsilon=0.9, seed=0)
        h = self.hash_of(g, 0, cfg)
        assert h.to_dict() == {0: 1.0}  # tie broken by lowest node id

    def test_uniform_normalization_on_path(self):
        g = from_arcs(3, [0, 1], [1, 2], directed=True)
        cfg = WalkConfig(length_probs=point_mass(2), num_walks=8, epsilon=0.005, seed=3)
        h = self.hash_of(g, 0, cfg)
        assert h.indices.tolist() == [0, 1, 2]
        np.testing.assert_allclose(h.values, 1 / 3)

    def test_epsilon_zero_keeps_every_visited_node(self):
        g = random_graph(30, 5, seed=2)
        cfg = WalkConfig(num_walks=32, epsilon=0.0, seed=2)
        h = self.hash_of(g, 0, cfg)
        cfg_tiny = WalkConfig(num_walks=32, epsilon=1e-9, seed=2)
        h2 = self.hash_of(g, 0, cfg_tiny)
        assert np.array_equal(h.indices, h2.indices)

    def test_isolated_node_hashes_to_itself(self):
        g = from_arcs(4, [0], [1], directed=True)
        h = self.hash_of(g, 3, WalkConfig(num_walks=16, seed=0))
        assert h.to_dict() == {3: 1.0}


class TestHashAllRows(TestHashNode):
    """The same cases on row i of hash_all, which pins _hash_block's segment
    logic (threshold, fallback, renormalization) by hand-computed values."""

    hash_of = staticmethod(lambda g, i, cfg: hash_row(hash_all(g, cfg), i))


class TestHashAll:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_per_node_hashing(self, weighted):
        rng = np.random.default_rng(17)
        n = 50
        src = rng.integers(0, n, 300)
        dst = rng.integers(0, n, 300)
        w = rng.random(300) + 0.01 if weighted else None
        g = from_arcs(n, src, dst, w, directed=True)
        cfg = WalkConfig(num_walks=24, epsilon=0.01, seed=99, weighted=weighted)
        H = hash_all(g, cfg)
        for i in range(n):
            ref = hash_node(g, i, cfg)
            got = hash_row(H, i)
            assert np.array_equal(ref.indices, got.indices), f"node {i}"
            assert np.array_equal(ref.values, got.values), f"node {i}"

    def test_weighted_walks_need_weights(self, two_cycle):
        cfg = WalkConfig(num_walks=4, seed=1, weighted=True)
        with pytest.raises(ValueError, match="arc weights"):
            hash_all(two_cycle, cfg)
        with pytest.raises(ValueError, match="arc weights"):
            hash_node(two_cycle, 0, cfg)

    def test_two_cycle_support(self, two_cycle):
        H = hash_all(two_cycle, WalkConfig(num_walks=16, seed=1))
        assert H.shape == (2, 2)
        for i in range(2):
            h = hash_row(H, i)
            assert set(h.indices.tolist()) <= {0, 1}
            assert h.values.sum() == pytest.approx(1.0, abs=1e-6)

    def test_same_seed_bitwise_identical(self):
        g = random_graph(60, 4, seed=0)
        cfg = WalkConfig(num_walks=32, seed=7)
        a, b = hash_all(g, cfg), hash_all(g, cfg)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)

    def test_worker_count_invariant(self, monkeypatch):
        # 4,096 walks of up to 5 steps make blocks of 24 nodes: 4 blocks
        g = random_graph(80, 4, seed=3)
        cfg = WalkConfig(num_walks=4096, seed=5)
        blocks = []

        def counted(arcs, nodes, *args):
            blocks.append(len(nodes))
            return _hash_block(arcs, nodes, *args)

        monkeypatch.setattr(walks, "_hash_block", counted)
        base = hash_all(g, cfg, workers=1)
        assert blocks == [24, 24, 24, 8]
        for workers in (2, 5):
            blocks.clear()
            other = hash_all(g, cfg, workers=workers)
            assert sorted(blocks) == [8, 24, 24, 24]
            assert np.array_equal(base.indptr, other.indptr)
            assert np.array_equal(base.indices, other.indices)
            assert np.array_equal(base.data, other.data)

    def test_support_bound_and_normalization(self):
        g = random_graph(120, 8, seed=4)
        eps = 0.02
        H = hash_all(g, WalkConfig(num_walks=64, epsilon=eps, seed=11))
        nnz_per_row = np.diff(H.indptr)
        assert nnz_per_row.max() <= int(1 / eps)
        assert nnz_per_row.min() >= 1
        sums = np.asarray(H.sum(axis=1)).ravel()
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)
        assert H.data.min() > 0.0
        assert H.data.max() <= 1.0

    def test_peak_memory_scales_with_support_not_n_squared(self):
        n, eps, nw = 10_000, 0.01, 96
        g = random_graph(n, 5, seed=6)
        cfg = WalkConfig(num_walks=nw, epsilon=eps, seed=6)
        tracemalloc.start()
        H = hash_all(g, cfg)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # retained hashes are O(n / eps) entries; the walk accumulator is a
        # fixed-size per-worker buffer
        accumulator = 32 * 600_000
        budget = 48 * n * int(1 / eps) + 2 * accumulator
        dense = n * n * 8
        assert peak < budget, f"peak {peak} above O(n/eps) budget {budget}"
        assert peak < dense // 10, f"peak {peak} not far below dense {dense}"
        assert H.shape == (n, n)


def dead_end_graph(n, arcs, dead_share, weighted, seed):
    """Random directed graph whose nodes, with probability dead_share, have
    no out-arcs; the last node always has none.  Weighted graphs give about
    a third of their arcs weight 0."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, arcs)
    dst = rng.integers(0, n, arcs)
    dead = rng.random(n) < dead_share
    dead[-1] = True
    src, dst = src[~dead[src]], dst[~dead[src]]
    w = rng.choice([0.0, 0.5, 2.0], size=len(src)) if weighted else None
    return from_arcs(n, src, dst, w, directed=True)


def assert_rows_match_reference(H, g, cfg, rows):
    for i in rows:
        ref, got = hash_node(g, i, cfg), hash_row(H, i)
        assert np.array_equal(ref.indices, got.indices), f"node {i}"
        assert np.array_equal(ref.values, got.values), f"node {i}"


class TestSinkNode:
    """Walks cut short by a dead end step on into a sink node whose visits
    are never counted; every row still equals the per-node reference."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("graph", ["path", "random"])
    def test_last_node_dead_end(self, graph, weighted):
        # the last node's sink arc goes after every arc of the graph
        if graph == "path":
            w = [1.0, 0.5, 2.0, 1.0] if weighted else None
            g = from_arcs(5, [0, 1, 2, 3], [1, 2, 3, 4], w, directed=True)
        else:
            g = dead_end_graph(40, 160, 0.0, weighted, seed=2)
        assert g.out_degrees[-1] == 0
        cfg = WalkConfig(num_walks=40, epsilon=0.01, seed=4, weighted=weighted)
        H = hash_all(g, cfg)
        assert_rows_match_reference(H, g, cfg, range(g.num_nodes))
        assert H.shape == (g.num_nodes, g.num_nodes)
        assert hash_row(H, g.num_nodes - 1).to_dict() == {g.num_nodes - 1: 1.0}

    @pytest.mark.parametrize("weighted", [False, True])
    def test_many_dead_ends_and_zero_weights(self, weighted):
        g = dead_end_graph(60, 240, 0.6, weighted, seed=5)
        if weighted:
            assert (g.weights == 0).any()
        cfg = WalkConfig(num_walks=48, epsilon=0.005, seed=6, weighted=weighted)
        assert_rows_match_reference(hash_all(g, cfg), g, cfg, range(g.num_nodes))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_worker_counts_with_dead_ends(self, weighted):
        # 600 walks of up to 5 steps make blocks of 166 nodes: 3 blocks
        g = dead_end_graph(400, 1600, 0.3, weighted, seed=7)
        cfg = WalkConfig(num_walks=600, epsilon=0.005, seed=8, weighted=weighted)
        base = hash_all(g, cfg, workers=1)
        for workers in (2, 5):
            other = hash_all(g, cfg, workers=workers)
            assert np.array_equal(base.indptr, other.indptr)
            assert np.array_equal(base.indices, other.indices)
            assert np.array_equal(base.data, other.data)
        assert_rows_match_reference(base, g, cfg, [0, 1, 165, 166, 331, 332, 399])

    @pytest.mark.parametrize("weighted", [False, True])
    def test_both_key_widths(self, weighted):
        # one block of every node packs its keys in int64; hash_all's blocks
        # of 4096 nodes pack theirs in int32
        n = 50_000
        int32_max = np.iinfo(np.int32).max
        assert n * (n + 1) > int32_max >= 4096 * (n + 1)
        g = dead_end_graph(n, 4 * n, 0.2, weighted, seed=9)
        cfg = WalkConfig(length_probs=np.array([0.5, 0.5]), num_walks=1,
                         epsilon=0.2, seed=10, weighted=weighted)
        H = hash_all(g, cfg)
        wide = _hash_block(_sink_arcs(g, weighted), np.arange(n), walk_lengths(cfg), cfg)
        assert np.array_equal(wide.indptr, H.indptr)
        assert np.array_equal(wide.indices, H.indices)
        assert np.array_equal(wide.data, H.data)
        assert_rows_match_reference(H, g, cfg, [0, 1, 4095, 4096, n - 2, n - 1])


@st.composite
def walk_graphs(draw):
    """Small directed multigraphs with self-loops, parallel arcs and dead
    ends, optionally weighted with some zero-weight arcs."""
    n = draw(st.integers(1, 9))
    ids = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=25))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    src = np.array([u for u, _ in pairs], dtype=np.int64)
    dst = np.array([v for _, v in pairs], dtype=np.int64)
    weights = None
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(
            st.sampled_from([0.0, 0.25, 1.0, 3.5]),
            min_size=len(pairs), max_size=len(pairs))), dtype=np.float64)
    return from_arcs(n, src, dst, weights, directed=True)


class TestSortedCounting:
    """The sorted-key counting in hash_all, against the per-node reference."""

    @settings(max_examples=40, deadline=None)
    @given(g=walk_graphs(), eps=st.sampled_from([0.0, 0.005, 0.3, 0.9]),
           num_walks=st.integers(1, 12), seed=st.integers(0, 2**32),
           data=st.data())
    def test_rows_and_blocks_match_reference(self, g, eps, num_walks, seed, data):
        cfg = WalkConfig(num_walks=num_walks, epsilon=eps, seed=seed,
                         weighted=g.weights is not None)
        H = hash_all(g, cfg)
        for i in range(g.num_nodes):
            ref, got = hash_node(g, i, cfg), hash_row(H, i)
            assert np.array_equal(ref.indices, got.indices), f"node {i}"
            assert np.array_equal(ref.values, got.values), f"node {i}"
        # any split into consecutive node ranges stacks to the same matrix
        cuts = data.draw(st.sets(st.integers(1, g.num_nodes - 1))
                         if g.num_nodes > 1 else st.just(set()))
        bounds = [0, *sorted(cuts), g.num_nodes]
        arcs = _sink_arcs(g, cfg.weighted)
        parts = [_hash_block(arcs, np.arange(lo, hi), walk_lengths(cfg), cfg)
                 for lo, hi in zip(bounds, bounds[1:])]
        S = sp.vstack(parts, format="csr")
        assert np.array_equal(S.indptr, H.indptr)
        assert np.array_equal(S.indices, H.indices)
        assert np.array_equal(S.data, H.data)


def transition_matrix(g):
    """Dense row-stochastic P; rows of dead ends (and of zero total weight)
    stay zero, because a walk stops there."""
    w = g.weights if g.weights is not None else np.ones(g.num_edges)
    src = np.repeat(np.arange(g.num_nodes), g.out_degrees)
    P = np.zeros((g.num_nodes, g.num_nodes))
    np.add.at(P, (src, g.targets), w)
    rows = P.sum(axis=1, keepdims=True)
    return np.divide(P, rows, out=np.zeros_like(P), where=rows > 0)


def expected_hash(g, cfg):
    """Exact expected visit frequencies for epsilon = 0.

    E = I + sum_{t=1..max_len} Pr(L >= t) P^t, with Pr(L >= t) taken from the
    shared walk-length array, then each row normalized to sum 1.
    """
    P = transition_matrix(g)
    lengths = walk_lengths(cfg)
    E = np.eye(g.num_nodes)
    Pt = np.eye(g.num_nodes)
    for t in range(1, cfg.max_len + 1):
        Pt = Pt @ P
        E += np.mean(lengths >= t) * Pt
    return E / E.sum(axis=1, keepdims=True)


class TestExpectedVisits:
    """hash_all converges to the exact expectation at rate 1/sqrt(num_walks).

    Comparing hash_all with hash_node cannot catch a bias the two samplers
    share, such as an off-by-one neighbour pick; this oracle does.
    """

    @staticmethod
    def graph(dead_ends, weighted):
        rng = np.random.default_rng(8)
        n = 30
        src = rng.integers(0, n, 120)
        dst = rng.integers(0, n, 120)
        if dead_ends:  # every fifth node has no out-arcs
            src, dst = src[src % 5 != 0], dst[src % 5 != 0]
        w = None
        if weighted:
            w = rng.choice([0.0, 0.5, 1.0, 4.0], size=len(src))
        return from_arcs(n, src, dst, w, directed=True)

    @pytest.mark.parametrize("num_walks", [256, 4096])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("dead_ends", [False, True])
    def test_within_two_over_root_walks(self, dead_ends, weighted, seed, num_walks):
        g = self.graph(dead_ends, weighted)
        cfg = WalkConfig(num_walks=num_walks, epsilon=0.0, seed=seed,
                         weighted=weighted)
        err = np.abs(hash_all(g, cfg).toarray() - expected_hash(g, cfg)).max()
        assert err < 2 / np.sqrt(num_walks)


class TestPrunedExpectedVisits:
    """With epsilon > 0, hash_all keeps what the exact expectation keeps.

    Each empirical frequency lies within 2/sqrt(num_walks) of its exact
    expectation (TestExpectedVisits), so a node expected above epsilon by
    more than that margin must be kept, one expected below it by more than
    the margin must be dropped, and the kept values are the expectations
    renormalized over the kept nodes, within the same margin.
    """

    @pytest.mark.parametrize("num_walks", [1024, 4096])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("dead_ends", [False, True])
    def test_keeps_and_drops_by_expectation(self, dead_ends, weighted, seed,
                                            num_walks):
        eps = 0.08
        g = TestExpectedVisits.graph(dead_ends, weighted)
        cfg = WalkConfig(num_walks=num_walks, epsilon=eps, seed=seed,
                         weighted=weighted)
        H = hash_all(g, cfg).toarray()
        p = expected_hash(g, cfg)
        margin = 2 / np.sqrt(num_walks)
        above, below = p > eps + margin, p < eps - margin
        # neither side is vacuous: some visited nodes are expected to drop
        assert above.any() and (below & (p > 0)).any()
        assert (H[above] > 0).all()
        assert (H[below] == 0).all()
        kept = H > 0
        renormalized = p * kept / (p * kept).sum(axis=1, keepdims=True)
        assert np.abs(H - renormalized).max() < margin


class TestDump:
    def test_dump_format(self, tmp_path, two_cycle):
        H = hash_all(two_cycle, WalkConfig(num_walks=8, seed=2))
        out = tmp_path / "hashes.tsv"
        dump_hashes(H, out)
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        node, pairs = lines[0].split("\t")
        assert node == "0"
        for pair in pairs.split(","):
            idx, val = pair.split(":")
            int(idx)
            assert len(val.split(".")[1]) == 6

    def test_dump_matches_per_row_text(self, tmp_path):
        # the text the per-row HashVector formatting wrote, byte for byte
        H = hash_all(random_graph(300, 4, seed=12), WalkConfig(num_walks=32, seed=4))
        out = tmp_path / "hashes.tsv"
        dump_hashes(H, out)
        want = ""
        for i in range(H.shape[0]):
            h = hash_row(H, i)
            pairs = ",".join(f"{int(j)}:{v:.6f}" for j, v in zip(h.indices, h.values))
            want += f"{i}\t{pairs}\n"
        assert out.read_bytes() == want.encode("utf-8")

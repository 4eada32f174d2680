"""Random-walk generation and incremental neighborhood hashing.

Each node is described by a sparse "hash vector": the frequency of every
node visited by short random walks started there, pruned by a relative
threshold epsilon and re-normalized to sum 1.  Walk generation and hashing
are fused so walks are never stored: `hash_all` steps the walks of a block of
start nodes together, records each visit as one packed ``row * n + node``
key, and counts the block's visits with one sort of those keys.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .graph import Graph
from .rng import skip_ahead, stream_key, uniform_at


def _uniform_lengths(max_len: int = 5) -> np.ndarray:
    return np.full(max_len, 1.0 / max_len)


@dataclass(frozen=True, eq=False)
class WalkConfig:
    """Parameters of the walk sampler and hasher.

    length_probs[i] is the probability that a walk has length i+1, so the
    maximum walk length is ``len(length_probs)``.  num_walks walks start at
    every node; nodes visited less than (total visits * epsilon) times are
    pruned from the hash.
    """

    length_probs: np.ndarray = field(default_factory=_uniform_lengths)
    num_walks: int = 1024
    epsilon: float = 0.005
    seed: int = 0
    weighted: bool = False

    def __post_init__(self):
        w = np.asarray(self.length_probs, dtype=np.float64)
        object.__setattr__(self, "length_probs", w)
        if w.ndim != 1 or len(w) == 0:
            raise ValueError("length_probs must be a nonempty 1-d vector")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("length_probs must be nonnegative and sum to 1")
        if self.num_walks < 1:
            raise ValueError("num_walks must be >= 1")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")
        w.setflags(write=False)

    @property
    def max_len(self) -> int:
        return len(self.length_probs)

    @property
    def mean_len(self) -> float:
        return float(np.dot(self.length_probs, np.arange(1, self.max_len + 1)))


def walk_lengths(cfg: WalkConfig) -> np.ndarray:
    """The shared per-walk length array: sampled once, reused by every node."""
    u = np.random.default_rng(cfg.seed).random(cfg.num_walks)
    idx = np.searchsorted(np.cumsum(cfg.length_probs), u, side="right")
    return np.minimum(idx, cfg.max_len - 1).astype(np.int64) + 1


def _weight_cumsum(g: Graph) -> np.ndarray:
    """Running arc-weight sums with a leading 0: the out-arcs of node c hold
    weight ``wcum[offsets[c + 1]] - wcum[offsets[c]]``.

    Raises ValueError for a graph without arc weights, since weighted walks
    have nothing to be proportional to.
    """
    if g.weights is None:
        raise ValueError("weighted walks need arc weights, but the graph has "
                         "none (an edge list gives them as a third column)")
    return np.concatenate([[0.0], np.cumsum(g.weights, dtype=np.float64)])


def _hash_block(g: Graph, nodes: np.ndarray, lengths: np.ndarray,
                cfg: WalkConfig, wcum: np.ndarray | None) -> sp.csr_matrix:
    """Vectorized walks + hashing for a block of start nodes.

    Every visit is recorded as one packed int64 key ``row * n + node``, with
    ``row`` the start node's position in the block.  One sort of the block's
    keys puts the visits in CSR order, and each run of equal keys is one
    (row, node) entry whose length is its visit count.  Epsilon pruning, the
    keep-the-most-visited-node fallback and renormalization are then segment
    operations over those runs.
    """
    n, nb, nw, s = g.num_nodes, len(nodes), len(lengths), cfg.max_len
    # Slot k * nb + r holds walk order[k] of row r.  Longest walks come first,
    # so the walks still stepping at step t are a prefix of the slots; a walk
    # that reached a dead end stays there and is masked out by its degree.
    order = np.argsort(-lengths, kind="stable")
    stepping = nb * np.count_nonzero(lengths[:, None] > np.arange(s), axis=0)
    # room for every walk at full length; pages past the visits actually
    # made are never touched
    keys = np.empty(nb * (nw * s + 1), dtype=np.int64)
    walk_key = skip_ahead(stream_key(cfg.seed, nodes.astype(np.uint64)),
                          (order.astype(np.uint64) * np.uint64(s))[:, None]).ravel()
    row_key = np.arange(nb, dtype=np.int64) * n
    slot_key = np.tile(row_key, nw)
    degrees = g.out_degrees

    cur = np.tile(nodes.astype(np.int64), nw)
    # every walk visits its start node: one key per row stands for all nw
    self_key = row_key + nodes
    keys[:nb] = self_key
    end = nb
    for t in range(s):
        c = cur[:stepping[t]]
        deg = degrees[c]
        can = deg > 0
        if cfg.weighted:
            hi = g.offsets[c + 1]
            base = wcum[g.offsets[c]]
            total = wcum[hi] - base
            can &= total > 0.0
        act = slice(len(c)) if can.all() else np.flatnonzero(can)
        u = uniform_at(walk_key[act], t)
        if cfg.weighted:
            k = np.searchsorted(wcum, base[act] + u * total[act], side="right") - 1
            cur[act] = g.targets[np.minimum(k, hi[act] - 1)]
        else:
            d = deg[act]
            u *= d
            step = np.minimum(u.astype(np.int64), d - 1)
            step += g.offsets[cur[act]]
            cur[act] = g.targets[step]
        m = len(u)
        np.add(slot_key[act], cur[act], out=keys[end:end + m])
        end += m

    keys = keys[:end]
    keys.sort()
    row_bounds = np.append(row_key, nb * n)
    thresh = (np.diff(np.searchsorted(keys, row_bounds)) + (nw - 1)) * cfg.epsilon
    run_first = np.empty(len(keys), dtype=bool)
    run_first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=run_first[1:])
    run_start = np.flatnonzero(run_first)
    entry = keys[run_start]
    counts = np.diff(run_start, append=len(keys))
    counts[np.searchsorted(entry, self_key)] += nw - 1
    row_ptr = np.searchsorted(entry, row_bounds)
    row_len = np.diff(row_ptr)

    keep = counts >= np.repeat(thresh, row_len)
    kept_len = np.add.reduceat(keep, row_ptr[:-1], dtype=np.int64)
    empty = kept_len == 0
    if empty.any():
        # a row whose every entry falls below the threshold keeps its first
        # (lowest-id) most-visited one; every row holds its start node, so
        # no segment here is empty
        top = np.repeat(np.maximum.reduceat(counts, row_ptr[:-1]), row_len)
        tied = np.flatnonzero((counts == top) & np.repeat(empty, row_len))
        keep[tied[np.searchsorted(tied, row_ptr[:-1][empty])]] = True
        kept_len[empty] = 1
    indptr = np.zeros(nb + 1, dtype=np.int64)
    np.cumsum(kept_len, out=indptr[1:])
    kept = np.flatnonzero(keep)
    data = counts[kept]
    # integer sums are exact, so these values match a float accumulation
    values = data / np.repeat(np.add.reduceat(data, indptr[:-1]), kept_len)
    return sp.csr_matrix((values, entry[kept] - np.repeat(row_key, kept_len), indptr),
                         shape=(nb, n))


def hash_all(g: Graph, cfg: WalkConfig, workers: int = 1) -> sp.csr_matrix:
    """Hash every node into one CSR row of pruned visit frequencies each.

    Row i equals the per-node reference ``hash_node(g, i, cfg)`` in
    ``tests/oracles.py`` exactly, which steps node i's walks one at a time.

    Work is split into node blocks whose walk buffers stay small; blocks may
    run on several threads, and the result is identical for any worker count.
    """
    lengths = walk_lengths(cfg)
    wcum = _weight_cumsum(g) if cfg.weighted else None
    visits_per_node = cfg.num_walks * (cfg.max_len + 1)
    block = int(np.clip(600_000 // max(visits_per_node, 1), 1, 4096))
    starts = np.arange(0, g.num_nodes, block)
    blocks = [np.arange(s, min(s + block, g.num_nodes)) for s in starts]

    def job(ids):
        return _hash_block(g, ids, lengths, cfg, wcum)

    if workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(job, blocks))
    else:
        parts = [job(ids) for ids in blocks]
    out = sp.vstack(parts, format="csr") if len(parts) > 1 else parts[0]
    return out


def dump_hashes(hashes: sp.csr_matrix, path) -> None:
    """Debug dump: one line per node, ``node<TAB>idx:val,idx:val,...``."""
    indptr, indices, data = hashes.indptr, hashes.indices, hashes.data
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(hashes.shape[0]):
            lo, hi = indptr[i], indptr[i + 1]
            pairs = ",".join(f"{j}:{v:.6f}" for j, v in
                             zip(indices[lo:hi].tolist(), data[lo:hi].tolist()))
            fh.write(f"{i}\t{pairs}\n")

"""Random-walk generation and incremental neighborhood hashing.

Each node is described by a sparse "hash vector": the frequency of every
node visited by short random walks started there, pruned by a relative
threshold epsilon and re-normalized to sum 1.  Walk generation and hashing
are fused so walks are never stored: `hash_all` steps the walks of a block of
start nodes together, records each visit as one packed ``row * (n + 1) +
node`` key, and counts the block's visits with one sort of those keys.

A walk that reaches a dead end (no out-arcs, or under weighted walks
out-weights summing to 0) stops there.  So that every stepping walk takes
the same array steps, the walks run on the graph's arcs extended by a sink
node ``n``: a dead end leads to the sink and the sink to itself, and sink
visits, the ``+ 1`` of the key stride, are dropped while counting.  Keys
are int32 when a block's ``nb * (n + 1)`` fits in int32, int64 otherwise.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .graph import Graph, int_setting
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
        # each comparison is written so that NaN fails it
        if not np.all(w >= 0) or not abs(w.sum() - 1.0) <= 1e-9:
            raise ValueError("length_probs must be nonnegative and sum to 1")
        for name, minimum in (("num_walks", 1), ("seed", 0)):
            object.__setattr__(self, name,
                               int_setting(name, getattr(self, name), minimum))
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")
        w.setflags(write=False)

    @property
    def max_len(self) -> int:
        return len(self.length_probs)


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


class _SinkArcs(NamedTuple):
    """Out-arcs over the graph's nodes 0..n-1 and a sink node ``n``.

    Unweighted: each dead end has one arc to the sink and the sink one to
    itself; ``degrees`` are the out-degrees as floats, the factor a uniform
    is scaled by.  Weighted: the graph's ``offsets`` with the sink's empty
    arc range appended, its ``targets`` followed by the sink id (so the arc
    a dead walk would pick is in range), and ``wcum``; a walk at a node of
    zero out-weight moves to the sink.  Node ids are int32 when ``n + 1``
    fits in int32.
    """

    n: int
    offsets: np.ndarray           # int64, n + 2 entries
    targets: np.ndarray
    degrees: np.ndarray | None    # float64, n + 1 entries (unweighted)
    wcum: np.ndarray | None       # running arc-weight sums (weighted)


def _sink_arcs(g: Graph, weighted: bool) -> _SinkArcs:
    n = g.num_nodes
    ids = np.int32 if n < np.iinfo(np.int32).max else np.int64
    if weighted:
        return _SinkArcs(n, np.append(g.offsets, g.offsets[-1]),
                         np.append(g.targets, n).astype(ids), None, _weight_cumsum(g))
    dead = g.out_degrees == 0
    degrees = np.append(np.where(dead, 1, g.out_degrees), 1)
    offsets = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    targets = np.append(np.insert(g.targets, g.offsets[:-1][dead], n), n).astype(ids)
    return _SinkArcs(n, offsets, targets, degrees.astype(np.float64), None)


def _hash_block(arcs: _SinkArcs, nodes: np.ndarray, lengths: np.ndarray,
                cfg: WalkConfig) -> sp.csr_matrix:
    """Vectorized walks + hashing for a block of start nodes.

    Every visit is recorded as one packed key ``row * (n + 1) + node``, with
    ``row`` the start node's position in the block and ``node`` in 0..n, the
    sink included.  Keys are int32 when ``nb * (n + 1)`` fits in int32 and
    int64 otherwise.  One sort of the block's keys puts the visits in CSR
    order, and each run of equal keys is one (row, node) entry whose length
    is its visit count.  Sink runs are dropped: they count towards no row
    total and are never kept.  Epsilon pruning, the keep-the-most-visited
    node fallback and renormalization are then segment operations over the
    remaining runs.
    """
    n, nb, nw, s = arcs.n, len(nodes), len(lengths), cfg.max_len
    stride = n + 1
    kt = np.int32 if nb * stride <= np.iinfo(np.int32).max else np.int64
    # Slot k * nb + r holds walk order[k] of row r.  Longest walks come first,
    # so the walks still stepping at step t are a prefix of the slots; a walk
    # cut short by a dead end steps on into the sink and stays there.
    order = np.argsort(-lengths, kind="stable")
    stepping = nb * np.count_nonzero(lengths[:, None] > np.arange(s), axis=0)
    # room for every walk at full length; pages past the visits actually
    # made are never touched
    keys = np.empty(nb * (nw * s + 1), dtype=kt)
    walk_key = skip_ahead(stream_key(cfg.seed, nodes.astype(np.uint64)),
                          (order.astype(np.uint64) * np.uint64(s))[:, None]).ravel()
    row_key = np.arange(nb, dtype=kt) * kt(stride)
    slot_key = np.tile(row_key, nw)
    cur = np.tile(nodes.astype(arcs.targets.dtype), nw)
    # every walk visits its start node: one key per row stands for all nw
    self_key = row_key + nodes.astype(kt)
    keys[:nb] = self_key
    end = nb
    # step buffers, sized for the first step, which moves the most walks
    m = int(stepping[0])
    u_buf, scaled = np.empty(m), np.empty(m)
    bits, scratch = np.empty(m, dtype=np.uint64), np.empty(m, dtype=np.uint64)
    step_buf, first = np.empty(m, dtype=np.int64), np.empty(m, dtype=np.int64)
    for t in range(s):
        m = int(stepping[t])
        c = cur[:m]
        u = uniform_at(walk_key[:m], t, out=u_buf[:m], bits=bits[:m],
                       scratch=scratch[:m])
        if arcs.wcum is None:
            # u <= 1 - 2**-53, so u * d rounds below d for any degree below
            # 2**53 and its integer part is already an arc of the node; every
            # index is in range, and mode "wrap" only skips a buffered copy
            u *= np.take(arcs.degrees, c, out=scaled[:m], mode="wrap")
            step = step_buf[:m]
            step[...] = u
            step += np.take(arcs.offsets, c, out=first[:m], mode="wrap")
            np.take(arcs.targets, step, out=c, mode="wrap")
        else:
            wcum, hi = arcs.wcum, arcs.offsets[c + 1]
            base = wcum[arcs.offsets[c]]
            total = wcum[hi] - base
            k = np.searchsorted(wcum, base + u * total, side="right") - 1
            c[...] = np.where(total > 0.0, arcs.targets[np.minimum(k, hi - 1)], n)
        np.add(slot_key[:m], c, out=keys[end:end + m])
        end += m

    keys = keys[:end]
    keys.sort()
    row_start = np.searchsorted(keys, row_key)
    thresh = (np.searchsorted(keys, row_key + kt(n)) - row_start + (nw - 1)) * cfg.epsilon
    run_first = np.empty(len(keys), dtype=bool)
    run_first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=run_first[1:])
    run_start = np.flatnonzero(run_first)
    entry = keys[run_start]
    counts = np.diff(run_start, append=len(keys))
    real = entry % kt(stride) != n
    entry, counts = entry[real], counts[real]
    counts[np.searchsorted(entry, self_key)] += nw - 1
    row_ptr = np.append(np.searchsorted(entry, row_key), len(entry))
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
    ``tests/oracles.py`` exactly, which steps node i's walks one at a time
    and ends a walk at a dead end.  Here the out-arcs are extended once per
    call by a sink node ``n`` (see ``_SinkArcs``): a walk cut short moves
    there and stays, so every stepping walk takes the same steps, and its
    sink visits are dropped while counting.  A block of ``nb`` start nodes
    packs its visits as ``row * (n + 1) + node`` keys, int32 when
    ``nb * (n + 1)`` fits in int32 and int64 otherwise.

    Work is split into node blocks whose walk buffers stay small; blocks may
    run on several threads, and the result is identical for any worker count.
    Raises ValueError unless ``workers >= 1`` and the graph has a node.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if g.num_nodes < 1:
        raise ValueError("graph must have at least one node")
    lengths = walk_lengths(cfg)
    arcs = _sink_arcs(g, cfg.weighted)
    visits_per_node = cfg.num_walks * (cfg.max_len + 1)
    block = int(np.clip(600_000 // max(visits_per_node, 1), 1, 4096))
    starts = np.arange(0, g.num_nodes, block)
    blocks = [np.arange(s, min(s + block, g.num_nodes)) for s in starts]

    def job(ids):
        return _hash_block(arcs, ids, lengths, cfg)

    # one worker hashes on the calling thread: a one-thread pool in its place
    # raised embed-fixed-20k's peak RSS by about 17 MB (2-vCPU machine),
    # likely as the pool thread's own malloc arena keeps freed block buffers
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

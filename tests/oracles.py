"""Scalar and per-node reference implementations that tests compare against.

The library keeps one vectorized implementation of each operation; these are
the slow, direct versions that pin it:

- ``hash_node`` (with ``random_walk`` and ``CounterStream``) runs one node's
  walks one at a time and pins ``symbed.walks.hash_all``: row ``i`` of
  ``hash_all(g, cfg)`` equals ``hash_node(g, i, cfg)`` bit for bit.
  ``hash_row`` reads that row back as a ``HashVector``.
- ``similarity`` compares two hash vectors by a sorted-index merge and pins
  the column scores of ``symbed.embedding.embed_fixed`` / ``embed_sdf``
  (``_metric_columns``).
- ``digitize`` quantizes one score and pins
  ``symbed.embedding._quantize_array``.
- ``topk_sets_oracle`` picks each row's top-k_i classes as a set and pins
  the indicator rows of ``symbed.evaluation.topk_sets``.
- ``from_arcs_oracle`` mirrors undirected edges in a Python loop, orders
  arcs by a two-key ``lexsort`` and pins the edge mirroring and packed-key
  sort of ``symbed.graph.from_arcs``: the same ``offsets``, ``targets`` and
  ``weights``, bit for bit.
- ``neighbors`` reads one node's out-arc targets from the CSR arrays, for
  the dense per-node oracles and the graph tests.

They share the library's stream keys (``stream_key``, ``uniform_at``), its
walk-length array (``walk_lengths``) and its arc-weight sums
(``_weight_cumsum``), so a bias in those is not caught here; the
expected-visit oracle in ``test_walks.py`` covers the sampler itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from symbed.embedding import METRICS
from symbed.graph import Graph
from symbed.rng import stream_key, uniform_at
from symbed.walks import WalkConfig, _weight_cumsum, walk_lengths


class CounterStream:
    """Sequential view over one node's counter-based stream.

    `jump(pos)` repositions the cursor; draws at a position are identical
    regardless of how many draws were taken before it.
    """

    def __init__(self, seed: int, node: int, pos: int = 0):
        self._key = stream_key(seed, node)
        self.pos = pos

    def jump(self, pos: int) -> None:
        self.pos = pos

    def uniform(self) -> float:
        u = float(uniform_at(self._key, self.pos))
        self.pos += 1
        return u


@dataclass
class HashVector:
    """Sparse visit-frequency vector: strictly increasing indices, values > 0
    summing to 1."""

    indices: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def to_dense(self, n: int) -> np.ndarray:
        out = np.zeros(n)
        out[self.indices] = self.values
        return out

    def to_dict(self) -> dict[int, float]:
        return {int(i): float(v) for i, v in zip(self.indices, self.values)}


def random_walk(g: Graph, start: int, wl: int, rng: CounterStream,
                weighted: bool = False, _wcum: np.ndarray | None = None):
    """One walk of length wl from start; returns {node: visit count}.

    The start node is always counted; a node with no out-arcs ends the walk
    early.  Neighbor choice is uniform over out-arcs, or proportional to arc
    weight in weighted mode.
    """
    if not 0 <= start < g.num_nodes:
        raise IndexError(f"start node {start} out of range")
    if weighted and _wcum is None:
        _wcum = _weight_cumsum(g)
    counts: dict[int, int] = {}
    c = start
    for t in range(wl + 1):
        counts[c] = counts.get(c, 0) + 1
        if t == wl:
            break
        lo, hi = int(g.offsets[c]), int(g.offsets[c + 1])
        deg = hi - lo
        if deg == 0:
            break
        u = rng.uniform()
        if weighted:
            base = _wcum[lo]
            total = _wcum[hi] - base
            if total <= 0.0:
                break
            k = int(np.searchsorted(_wcum, base + u * total, side="right")) - 1
            c = int(g.targets[min(k, hi - 1)])
        else:
            c = int(g.targets[lo + min(int(u * deg), deg - 1)])
    return counts


def hash_node(g: Graph, n: int, cfg: WalkConfig) -> HashVector:
    """Hash one node by running its walks sequentially (reference path)."""
    lengths = walk_lengths(cfg)
    stream = CounterStream(cfg.seed, n)
    wcum = _weight_cumsum(g) if cfg.weighted else None
    counts: dict[int, int] = {}
    s = cfg.max_len
    for j, wl in enumerate(lengths):
        stream.jump(j * s)
        for node, c in random_walk(g, n, int(wl), stream, cfg.weighted, wcum).items():
            counts[node] = counts.get(node, 0) + c
    total = sum(counts.values())
    thresh = total * cfg.epsilon
    kept = {i: c for i, c in counts.items() if not c < thresh}
    if not kept:
        # epsilon above the max frequency: keep the most-visited node
        best_count = max(counts.values())
        best = min(i for i, c in counts.items() if c == best_count)
        kept = {best: best_count}
    idx = np.array(sorted(kept), dtype=np.int64)
    cnt = np.array([kept[i] for i in idx], dtype=np.int64)
    return HashVector(indices=idx, values=cnt / cnt.sum())


def hash_row(hashes: sp.csr_matrix, i: int) -> HashVector:
    """Extract row i of a hash matrix as a HashVector."""
    lo, hi = hashes.indptr[i], hashes.indptr[i + 1]
    return HashVector(indices=hashes.indices[lo:hi].astype(np.int64),
                      values=hashes.data[lo:hi])


def _merged_dense(a: HashVector, b: HashVector):
    """Values of a and b over the union of their supports."""
    union = np.union1d(a.indices, b.indices)
    av = np.zeros(len(union))
    bv = np.zeros(len(union))
    av[np.searchsorted(union, a.indices)] = a.values
    bv[np.searchsorted(union, b.indices)] = b.values
    return union, av, bv


def _dot(a: HashVector, b: HashVector) -> float:
    if a.nnz == 0 or b.nnz == 0:
        return 0.0
    pos = np.searchsorted(a.indices, b.indices)
    pos_ok = pos < a.nnz
    hit = np.zeros(b.nnz, dtype=bool)
    hit[pos_ok] = a.indices[pos[pos_ok]] == b.indices[pos_ok]
    return float(np.dot(a.values[pos[hit]], b.values[hit]))


def similarity(a: HashVector, b: HashVector, metric: str = "cosine",
               variances: np.ndarray | None = None) -> float:
    """Metric value between two hash vectors over the same node universe.

    Cosine and jaccard are similarities in [0, 1]; euclidean, seuclidean and
    canberra are distances >= 0 computed over the union of supports, with
    absent coordinates treated as 0.  `variances` (per-dimension, floored
    positive) is required for seuclidean only.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    if metric == "cosine":
        if a.nnz == 0 or b.nnz == 0:
            return 0.0
        if np.array_equal(a.indices, b.indices) and np.array_equal(a.values, b.values):
            return 1.0
        na = float(np.sqrt(np.dot(a.values, a.values)))
        nb = float(np.sqrt(np.dot(b.values, b.values)))
        return _dot(a, b) / (na * nb)
    if metric == "jaccard":
        if a.nnz == 0 and b.nnz == 0:
            return 0.0
        inter = len(np.intersect1d(a.indices, b.indices, assume_unique=True))
        union = a.nnz + b.nnz - inter
        return inter / union
    if a.nnz == 0 and b.nnz == 0:
        return 0.0
    union, av, bv = _merged_dense(a, b)
    if metric == "euclidean":
        return float(np.sqrt(np.sum((av - bv) ** 2)))
    if metric == "seuclidean":
        if variances is None:
            raise ValueError("seuclidean requires per-dimension variances")
        v = np.asarray(variances)[union]
        return float(np.sqrt(np.sum((av - bv) ** 2 / v ** 2)))
    # canberra; terms where both coordinates are 0 contribute 0
    num = np.abs(av - bv)
    den = np.abs(av) + np.abs(bv)
    nz = den > 0
    return float(np.sum(num[nz] / den[nz]))


def digitize(s: float, b: int) -> float:
    """Quantize a score in [0, 1] to the nearest multiple of 1/b.

    Ties round half away from zero, so 0 and 1 are preserved.
    """
    if b < 2:
        raise ValueError("bins must be >= 2")
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"score {s} outside [0, 1]")
    return float(np.floor(s * b + 0.5) / b)


def topk_sets_oracle(P: np.ndarray, ks) -> list[frozenset[int]]:
    """Row-wise top-k_i class sets with ascending-id tie-breaks."""
    order = np.argsort(-P, axis=1, kind="stable")
    return [frozenset(int(c) for c in order[i, :ks[i]]) for i in range(len(ks))]


def neighbors(g: Graph, u: int) -> np.ndarray:
    """Targets of node u's out-arcs, one per arc, in CSR order."""
    return g.targets[g.offsets[u]:g.offsets[u + 1]]


def from_arcs_oracle(num_nodes, src, dst, weights=None, directed=True) -> Graph:
    """Build a Graph from parallel arc arrays, sorting them into CSR order;
    undirected, each edge is appended as its two arcs, one after the other."""
    ws = [1.0] * len(src) if weights is None else np.asarray(weights).tolist()
    arcs = list(zip(np.asarray(src).tolist(), np.asarray(dst).tolist(), ws))
    if not directed:
        arcs = [a for u, v, x in arcs for a in ((u, v, x), (v, u, x))]
    src = np.array([u for u, _, _ in arcs], dtype=np.int64)
    dst = np.array([v for _, v, _ in arcs], dtype=np.int64)
    if len(src) and (src.min() < 0 or src.max() >= num_nodes):
        raise ValueError("source node id out of range")
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    w = None
    if weights is not None:
        w = np.array([x for _, _, x in arcs], dtype=np.float64)[order]
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(offsets, src + 1, 1)
    np.cumsum(offsets, out=offsets)
    return Graph(num_nodes=num_nodes, offsets=offsets, targets=dst, weights=w,
                 directed=directed)

"""Pipeline assembly: hash, rank, compare, and optionally quantize.

One column path serves both modes.  It walks the PageRank order in chunks
of pivot columns, scores every node against each chunk's pivots, quantizes
the chunk, and stops by the mode's rule: fixed mode after ``d`` columns
(taken as one chunk), the budgeted ("sdf") mode once the ranked columns'
total nonzero count exhausts ``num_nodes * budget_dim`` values (the column
crossing the budget is kept).

Size bound of the budgeted mode: the columns before the crossing one hold at
most ``num_nodes * budget_dim`` values; the total is at most that plus the
crossing column's nnz, itself at most ``num_nodes``.  So the 16-bit byte
parity with a dense ``budget_dim / 2``-column 32-bit matrix holds for the
columns before the crossing one, not necessarily for the crossing column.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.io import mmread, mmwrite
from scipy.spatial.distance import cdist

from .graph import Graph
from .ranking import PageRankConfig, pagerank, rank_nodes
from .similarity import METRICS, compute_variances
from .walks import WalkConfig, hash_all

FORMAT_VERSION = 1

MATRIX_FILE = "embedding.mtx"
FEATURE_MAP_FILE = "feature_map.tsv"
CONFIG_FILE = "config.json"

_COLUMN_CHUNK = 128  # pivot columns per sdf pass of the column path


class EmbeddingFormatError(ValueError):
    """Unreadable or version-mismatched embedding files."""


@dataclass(frozen=True)
class EmbeddingConfig:
    mode: str = "fixed"        # "fixed": d pivot columns; "sdf": budgeted
    d: int = 2048
    budget_dim: int = 256      # sdf budget is num_nodes * budget_dim values
    bins: int | None = None    # quantization bins; None = mode default
    metric: str = "cosine"
    walk: WalkConfig = field(default_factory=WalkConfig)
    pagerank: PageRankConfig = field(default_factory=PageRankConfig)

    def __post_init__(self):
        if self.mode not in ("fixed", "sdf"):
            raise ValueError(f"mode must be 'fixed' or 'sdf', got {self.mode!r}")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.budget_dim < 1:
            raise ValueError("budget_dim must be >= 1")
        if self.bins is not None and self.bins != 0 and self.bins < 2:
            raise ValueError("bins must be 0 (disabled) or >= 2")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")

    @property
    def resolved_bins(self) -> int:
        """Quantization default: off for fixed mode, 256 bins for sdf."""
        if self.bins is None:
            return 256 if self.mode == "sdf" else 0
        return self.bins


@dataclass
class Embedding:
    """Node-by-pivot score matrix plus the column -> node id map."""

    matrix: sp.csr_matrix
    ind: np.ndarray
    config: dict
    value_bits: int = 32

    @property
    def num_nodes(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_columns(self) -> int:
        return self.matrix.shape[1]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    @property
    def value_payload_bytes(self) -> int:
        """Bytes needed for the stored values at the tagged precision."""
        return self.nnz * self.value_bits // 8


def digitize(s: float, b: int) -> float:
    """Quantize a score in [0, 1] to the nearest multiple of 1/b.

    Ties round half away from zero, so 0 and 1 are preserved.
    """
    if b < 2:
        raise ValueError("bins must be >= 2")
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"score {s} outside [0, 1]")
    return float(np.floor(s * b + 0.5) / b)


def _quantize_array(values: np.ndarray, b: int) -> np.ndarray:
    """Vector form of digitize; tolerates values above 1 (distance metrics)."""
    return np.floor(values * b + 0.5) / b


def _l2_normalized_rows(h: sp.csr_matrix) -> sp.csr_matrix:
    norms = np.sqrt(np.asarray(h.multiply(h).sum(axis=1)).ravel())
    inv = np.zeros_like(norms)
    nz = norms > 0
    inv[nz] = 1.0 / norms[nz]
    return sp.diags(inv) @ h


def _metric_columns(h: sp.csr_matrix, pivots: np.ndarray, metric: str,
                    hn: sp.csr_matrix | None) -> sp.csr_matrix:
    """Scores of every node against the given pivot nodes, one column each.

    `hn` holds the rows _prepare_metric(h, metric) returns, computed once so
    the column path's chunks do not redo the work.
    """
    n = h.shape[0]
    if metric == "cosine":
        s = (hn @ hn[pivots].T).tocsr()
        s.sort_indices()
        np.clip(s.data, 0.0, 1.0, out=s.data)
        _set_exact_unit_diagonal(s, pivots, h)
        return s
    if metric == "jaccard":
        b = h.copy()
        b.data = np.ones_like(b.data)
        inter = (b @ b[pivots].T).tocoo()
        sizes = np.diff(h.indptr)
        psizes = sizes[pivots]
        union = sizes[inter.row] + psizes[inter.col] - inter.data
        vals = inter.data / union
        return sp.csr_matrix((vals, (inter.row, inter.col)), shape=(n, len(pivots)))
    if metric in ("euclidean", "seuclidean"):
        hs = hn if metric == "seuclidean" else h
        sq = np.asarray(hs.multiply(hs).sum(axis=1)).ravel()
        g = (hs @ hs[pivots].T).toarray()
        d2 = sq[:, None] + sq[pivots][None, :] - 2.0 * g
        np.clip(d2, 0.0, None, out=d2)
        return sp.csr_matrix(np.sqrt(d2))
    # canberra: no product decomposition; chunked dense evaluation
    pdense = np.asarray(h[pivots].todense())
    out = []
    step = max(1, 2_000_000 // max(h.shape[1], 1))
    for lo in range(0, n, step):
        block = np.asarray(h[lo:lo + step].todense())
        out.append(cdist(block, pdense, metric="canberra"))
    return sp.csr_matrix(np.vstack(out))


def _set_exact_unit_diagonal(s: sp.csr_matrix, pivots: np.ndarray,
                             h: sp.csr_matrix) -> None:
    """Cosine of a nonempty hash with itself is exactly 1; fix rounding."""
    nnz_rows = np.diff(h.indptr)
    for j, p in enumerate(pivots):
        if nnz_rows[p] == 0:
            continue
        lo, hi = s.indptr[p], s.indptr[p + 1]
        k = np.searchsorted(s.indices[lo:hi], j)
        if k < hi - lo and s.indices[lo + k] == j:
            s.data[lo + k] = 1.0


def _prepare_metric(h: sp.csr_matrix, metric: str) -> sp.csr_matrix | None:
    """Rows _metric_columns reads for the metric: unit rows for cosine,
    variance-scaled rows for seuclidean, none for the other metrics."""
    if metric == "cosine":
        return _l2_normalized_rows(h)
    if metric == "seuclidean":
        return (h @ sp.diags(1.0 / np.asarray(compute_variances(h)))).tocsr()
    return None


def _config_snapshot(cfg: EmbeddingConfig) -> dict:
    return {
        "mode": cfg.mode,
        "d": cfg.d,
        "budget_dim": cfg.budget_dim,
        "bins": cfg.resolved_bins,
        "metric": cfg.metric,
        "walk": {
            "length_probs": [float(p) for p in cfg.walk.length_probs],
            "num_walks": cfg.walk.num_walks,
            "epsilon": cfg.walk.epsilon,
            "seed": cfg.walk.seed,
            "weighted": cfg.walk.weighted,
        },
        "pagerank": {
            "tolerance": cfg.pagerank.tolerance,
            "max_iters": cfg.pagerank.max_iters,
            "damping": cfg.pagerank.damping,
            "pure_power": cfg.pagerank.pure_power,
        },
    }


def _hash_and_rank(g: Graph, cfg: EmbeddingConfig, workers: int,
                   timings: dict | None):
    t0 = time.perf_counter()
    h = hash_all(g, cfg.walk, workers=workers)
    t1 = time.perf_counter()
    order = rank_nodes(pagerank(g, cfg.pagerank)).order
    t2 = time.perf_counter()
    if timings is not None:
        timings["walks+hash"] = t1 - t0
        timings["pagerank"] = t2 - t1
    return h, order


def _check_mode(cfg: EmbeddingConfig, mode: str) -> None:
    if cfg.mode != mode:
        raise ValueError(f"embed_{mode} needs mode={mode!r}, got {cfg.mode!r}")


def _embed(g: Graph, cfg: EmbeddingConfig, workers: int,
           timings: dict | None) -> Embedding:
    """The column path: ranked pivot columns, scored and quantized a chunk at
    a time, until the rule of ``cfg.mode`` stops it."""
    h, order = _hash_and_rank(g, cfg, workers, timings)
    t0 = time.perf_counter()
    prepared = _prepare_metric(h, cfg.metric)
    bins = cfg.resolved_bins
    sdf = cfg.mode == "sdf"
    # fixed mode knows its width, so it takes all d columns as one chunk and
    # never holds the chunks and their stacked copy at once
    limit, step = (g.num_nodes, _COLUMN_CHUNK) if sdf else (cfg.d, cfg.d)
    budget = g.num_nodes * cfg.budget_dim   # spent only in sdf mode
    kept: list[sp.csr_matrix] = []
    used = 0
    while used < limit and budget >= 0:
        cols = _metric_columns(h, order[used:used + step], cfg.metric, prepared)
        if bins >= 2:
            cols.data = _quantize_array(cols.data, bins)
            cols.eliminate_zeros()
        if sdf:
            # column j enters while the budget left before it is >= 0
            spent = np.cumsum(cols.getnnz(axis=0))
            take = 1 + int(np.searchsorted(spent[:-1], budget, side="right"))
            cols = cols[:, :take]
            budget -= int(spent[take - 1])
        kept.append(cols)
        used += cols.shape[1]
    m = sp.hstack(kept, format="csr") if len(kept) > 1 else kept[0]
    if timings is not None:
        timings["similarity"] = time.perf_counter() - t0
    return Embedding(matrix=m, ind=np.asarray(order[:used], dtype=np.int64),
                     config=_config_snapshot(cfg),
                     value_bits=16 if bins >= 2 else 32)


def embed_fixed(g: Graph, cfg: EmbeddingConfig | None = None, *,
                workers: int = 1, timings: dict | None = None) -> Embedding:
    """Embedding with the top-d ranked nodes as columns."""
    cfg = cfg or EmbeddingConfig()
    _check_mode(cfg, "fixed")
    if cfg.d > g.num_nodes:
        raise ValueError(f"d={cfg.d} exceeds the number of nodes {g.num_nodes}")
    return _embed(g, cfg, workers, timings)


def embed_sdf(g: Graph, cfg: EmbeddingConfig | None = None, *,
              workers: int = 1, timings: dict | None = None) -> Embedding:
    """Budgeted embedding: append ranked pivot columns while the budget holds.

    The budget is ``num_nodes * budget_dim`` stored values; the column that
    drives it below zero is retained.  Quantization (default 256 bins) runs
    before counting, so values rounding to zero cost nothing.

    Size bound: the values before the crossing column number at most
    ``num_nodes * budget_dim``; the total is at most that plus the crossing
    column's nnz, which is at most ``num_nodes``.  At 16 bits, the columns
    before the crossing one fit the bytes of a dense ``budget_dim / 2``-column
    32-bit matrix.  If fewer than ``num_nodes`` columns are taken, the budget
    was spent: the total exceeds ``num_nodes * budget_dim``.
    """
    cfg = cfg or EmbeddingConfig(mode="sdf")
    _check_mode(cfg, "sdf")
    return _embed(g, cfg, workers, timings)


def save_embedding(e: Embedding, out_dir) -> None:
    """Write the embedding triple: matrix + feature map + config snapshot."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mmwrite(out / MATRIX_FILE, e.matrix.tocoo(), precision=17)
    with open(out / FEATURE_MAP_FILE, "w", encoding="utf-8") as fh:
        for j, node in enumerate(e.ind):
            fh.write(f"{j}\t{int(node)}\n")
    meta = {
        "format_version": FORMAT_VERSION,
        "shape": [int(e.matrix.shape[0]), int(e.matrix.shape[1])],
        "value_bits": e.value_bits,
        "config": e.config,
    }
    with open(out / CONFIG_FILE, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_embedding(in_dir) -> Embedding:
    """Read back an embedding triple written by save_embedding."""
    src = Path(in_dir)
    cfg_path = src / CONFIG_FILE
    if not cfg_path.exists():
        raise EmbeddingFormatError(f"{cfg_path} not found")
    with open(cfg_path, "r", encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise EmbeddingFormatError(f"{cfg_path}: not valid JSON: {exc}") from None
    if meta.get("format_version") != FORMAT_VERSION:
        raise EmbeddingFormatError(
            f"{cfg_path}: format version {meta.get('format_version')!r} "
            f"unsupported (expected {FORMAT_VERSION})")
    try:
        mat = mmread(src / MATRIX_FILE).tocsr()
    except Exception as exc:
        raise EmbeddingFormatError(f"{src / MATRIX_FILE}: {exc}") from None
    if list(meta["shape"]) != list(mat.shape):
        raise EmbeddingFormatError(
            f"matrix shape {mat.shape} does not match recorded {meta['shape']}")
    ind = _read_feature_map(src / FEATURE_MAP_FILE, mat.shape[1])
    return Embedding(matrix=mat, ind=np.asarray(ind, dtype=np.int64),
                     config=meta["config"], value_bits=int(meta["value_bits"]))


def _read_feature_map(path: Path, num_columns: int) -> list[int]:
    """Pivot node ids from ``j<TAB>node`` lines, j running 0..num_columns-1."""
    if not path.is_file():
        raise EmbeddingFormatError(f"{path} not found")
    ind: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                j, node = (int(part) for part in line.split("\t"))
            except ValueError:
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: expected 'column<TAB>node', got {line!r}") from None
            if j != len(ind):
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: column {j} out of order (expected {len(ind)})")
            ind.append(node)
    if len(ind) != num_columns:
        raise EmbeddingFormatError(
            f"{path}: {len(ind)} columns listed, the matrix has {num_columns}")
    return ind

"""Pipeline assembly: hash, rank, compare, and optionally quantize.

One column path serves both modes.  It walks the PageRank order in chunks
of pivot columns, scores every node against each chunk's pivots, quantizes
the chunk, and stops by the mode's rule: fixed mode after ``d`` columns
(the last chunk cut at ``d``), the budgeted ("sdf") mode once the ranked
columns' total nonzero count exhausts ``num_nodes * budget_dim`` values (the
column crossing the budget is kept).

Chunks are column-major: a chunk is computed pivot-major, as the pivots'
rows times a transpose of the node rows that is converted to CSR once, and
that product's transpose is an ``n x chunk`` CSC block.  Quantization and
the budget count work on the CSC blocks; the kept blocks are stacked as CSC
and converted to CSR once at the end, which also sorts each row's indices.
In either mode a chunk is 512 columns wide for cosine and jaccard and 128
for the distance metrics, whose ``n x chunk`` dense block bounds their memory.

With ``workers > 1``, chunks are scored and quantized on a pool of that many
threads, at most ``workers`` at once, while the calling thread takes their
results in rank order and applies the budget rule to each as before; the
metric's rows are prepared on the pool while PageRank runs.  Chunks still in
flight when the budget is crossed are discarded.  Each chunk's columns are
row-by-row products over its own pivots' rows, so the embedding is the same
bits for any worker count and chunk width.  Hashing, PageRank and the ranking
run on the calling thread (hashing with its own ``workers`` threads).

Size bound of the budgeted mode: the columns before the crossing one hold at
most ``num_nodes * budget_dim`` values; the total is at most that plus the
crossing column's nnz, itself at most ``num_nodes``.  So the 16-bit byte
parity with a dense ``budget_dim / 2``-column 32-bit matrix holds for the
columns before the crossing one, not necessarily for the crossing column.

On disk an embedding is a directory of three files: ``embedding.npz`` (the
CSR matrix in scipy's ``save_npz`` container: ``indptr``, ``indices``,
``data``, ``shape`` and ``format`` arrays in an uncompressed zip),
``feature_map.tsv`` (``column<TAB>node`` lines) and ``config.json`` (format
version, shape, ``value_bits`` and the config snapshot).  The snapshot's
``bins`` alone sets ``value_bits``.  An integer ``bins`` >= 2 makes it 16: each
value ``v`` is stored as the bin code ``K = rint(v * bins)``, in the narrowest
integer dtype that holds the codes (uint16 for cosine at 256 bins), and read
as ``K / bins``.  Otherwise it is 32, and values are stored as float64.  Both
read back bit for bit.  The zip is not compressed: deflating the arrays would
cost more time than the binary layout saves over text.
"""

from __future__ import annotations

import json
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .graph import Graph, canonical_pairs, int_setting
from .ranking import PageRankConfig, pagerank, rank_nodes
from .walks import WalkConfig, hash_all

FORMAT_VERSION = 3  # 2: integer bin codes; 3: the matrix in a CSR .npz

MATRIX_FILE = "embedding.npz"
FEATURE_MAP_FILE = "feature_map.tsv"
CONFIG_FILE = "config.json"

# pivot columns per chunk of the column path: the distance metrics build
# an n x chunk dense block, cosine and jaccard stay sparse and take wider
# chunks, which cuts per-chunk overhead
_COLUMN_CHUNK = 128
_PRODUCT_CHUNK = 512

# Cosine and jaccard are similarities in [0, 1]; euclidean, seuclidean and
# canberra are distances >= 0 over the union of two hashes' supports (absent
# coordinates count as 0), each scored from the pivots' supports alone.
METRICS = ("cosine", "euclidean", "seuclidean", "canberra", "jaccard")

# Floor of the per-dimension variances seuclidean divides by: a dimension
# that no node or every node visits equally has variance 0.
VARIANCE_FLOOR = 1e-12


class EmbeddingFormatError(ValueError):
    """Unreadable or version-mismatched embedding files."""


@dataclass(frozen=True)
class EmbeddingConfig:
    mode: str = "fixed"        # "fixed": d pivot columns; "sdf": budgeted
    d: int = 2048
    budget_dim: int = 256      # sdf budget is num_nodes * budget_dim values
    bins: int | None = None    # quantization bins, 0 = off; None: 256 sdf, 0 fixed
    metric: str = "cosine"
    walk: WalkConfig = field(default_factory=WalkConfig)
    pagerank: PageRankConfig = field(default_factory=PageRankConfig)

    def __post_init__(self):
        if self.mode not in ("fixed", "sdf"):
            raise ValueError(f"mode must be 'fixed' or 'sdf', got {self.mode!r}")
        for name in ("d", "budget_dim"):
            object.__setattr__(self, name, int_setting(name, getattr(self, name), 1))
        bins = (256 if self.mode == "sdf" else 0) if self.bins is None else self.bins
        object.__setattr__(self, "bins", int_setting(
            "bins", bins, 0 if bins == 0 else 2, "0 (disabled) or >= 2"))
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")


@dataclass
class Embedding:
    """Node-by-pivot score matrix plus the column -> node id map."""

    matrix: sp.csr_matrix
    ind: np.ndarray
    config: dict

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
    def value_bits(self) -> int:
        """16 when ``config["bins"]`` is an int >= 2 (quantized), else 32."""
        return 16 if _valid_bins(self.config) else 32

    @property
    def value_payload_bytes(self) -> int:
        """Bytes needed for the stored values at the tagged precision."""
        return self.nnz * self.value_bits // 8


def _quantize_array(values: np.ndarray, b: int) -> np.ndarray:
    """Round scores to the nearest multiple of 1/b, ties half away from zero,
    so 0 and 1 are kept; values above 1 (distance metrics) round alike."""
    return np.floor(values * b + 0.5) / b


def compute_variances(hashes: sp.csr_matrix) -> np.ndarray:
    """Population variance of every hash dimension across all nodes.

    Absent coordinates count as zeros.  Variances are floored to
    VARIANCE_FLOOR to keep the standardized Euclidean denominator positive:
    seuclidean is ``sqrt(sum((a - b) ** 2 / V))``, as scipy defines it.
    """
    if hashes.shape[0] < 2:
        raise ValueError("need at least 2 hash vectors")
    mean = np.asarray(hashes.mean(axis=0)).ravel()
    mean_sq = np.asarray(hashes.multiply(hashes).mean(axis=0)).ravel()
    var = np.maximum(mean_sq - mean ** 2, 0.0)
    return np.maximum(var, VARIANCE_FLOOR)


def _l2_normalized_rows(h: sp.csr_matrix) -> sp.csr_matrix:
    norms = np.sqrt(np.asarray(h.multiply(h).sum(axis=1)).ravel())
    inv = np.zeros_like(norms)
    nz = norms > 0
    inv[nz] = 1.0 / norms[nz]
    return sp.diags(inv) @ h


def _metric_columns(h: sp.csr_matrix, pivots: np.ndarray, metric: str,
                    prepared: tuple[sp.csr_matrix, sp.csr_matrix]) -> sp.csc_matrix:
    """Scores of every node against the given pivot nodes, one CSC column each.

    `prepared` is what _prepare_metric(h, metric) returns, computed once for
    all chunks.  A chunk walks only its pivots' rows ``p = rows[pivots]``,
    joined with ``rows_t``.  The product metrics take ``(p @ rows_t).T``, an
    ``n x len(pivots)`` CSC block whose scores sum the same products in the
    same order as ``rows @ p.T``: the same bits.  Canberra's values must be
    positive, as ``hash_all``'s are: with supports ``S``, a coordinate on one
    side only adds 1, so the distance is ``|S_x| + |S_p| + sum(f - 2)`` over
    shared coordinates, ``f = |x_i - p_i| / (x_i + p_i)``.  The join
    ``rows_t[p.indices]`` lists the nodes sharing each coordinate of ``p``; a
    0/1 ``pivots x entries`` product sums the f (real part) and counts them.
    """
    rows, rows_t = prepared
    p, sizes = rows[pivots], np.diff(h.indptr)
    if metric == "canberra":
        shared = rows_t[p.indices]
        x, v = shared.data, np.repeat(p.data, np.diff(shared.indptr))
        shared.data = np.abs(x - v) / (x + v) + 1j
        s = (sp.csr_matrix((np.ones(p.nnz), np.arange(p.nnz), p.indptr),
                           shape=(len(pivots), p.nnz)) @ shared).T
        # the count (imaginary part) first: each f - 2 would round f away
        return sp.csc_matrix(sizes[:, None] + sizes[pivots]
                             - 2.0 * s.imag.toarray() + s.real.toarray())
    s = (p @ rows_t).T
    if metric == "cosine":
        np.clip(s.data, 0.0, 1.0, out=s.data)
        _set_exact_unit_diagonal(s, pivots, h)
        return s
    if metric == "jaccard":
        # rows are 0/1, so s holds intersection sizes
        per_col = np.diff(s.indptr)
        union = sizes[s.indices] + np.repeat(sizes[pivots], per_col) - s.data
        return sp.csc_matrix((s.data / union, s.indices, s.indptr), shape=s.shape)
    # euclidean and seuclidean: |a|^2 + |b|^2 - 2 a.b, densified
    sq = np.asarray(rows.multiply(rows).sum(axis=1)).ravel()
    d2 = sq[:, None] + sq[pivots][None, :] - 2.0 * s.toarray()
    np.clip(d2, 0.0, None, out=d2)
    return sp.csc_matrix(np.sqrt(d2))


def _set_exact_unit_diagonal(s: sp.csc_matrix, pivots: np.ndarray,
                             h: sp.csr_matrix) -> None:
    """Cosine of a nonempty hash with itself is exactly 1; fix rounding."""
    per_col = np.diff(s.indptr)
    nonempty = np.diff(h.indptr)[pivots] > 0
    own = (s.indices == np.repeat(pivots, per_col)) & np.repeat(nonempty, per_col)
    s.data[own] = 1.0


def _prepare_metric(h: sp.csr_matrix, metric: str
                    ) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Rows _metric_columns joins for the metric, with their transpose
    converted to CSR once: unit rows for cosine, 0/1 rows for jaccard, the
    hash rows for euclidean and canberra, rows scaled by ``1 / sqrt(V)`` for
    seuclidean."""
    if metric == "cosine":
        rows = _l2_normalized_rows(h)
    elif metric == "jaccard":
        rows = h.copy()
        rows.data = np.ones_like(rows.data)
    elif metric == "seuclidean":
        rows = (h @ sp.diags(1.0 / np.sqrt(compute_variances(h)))).tocsr()
    else:
        rows = h
    return rows, rows.T.tocsr()


def _config_snapshot(cfg: EmbeddingConfig) -> dict:
    snap = asdict(cfg)
    snap["walk"]["length_probs"] = cfg.walk.length_probs.tolist()
    return snap


def _check_mode(cfg: EmbeddingConfig, mode: str) -> None:
    if cfg.mode != mode:
        raise ValueError(f"embed_{mode} needs mode={mode!r}, got {cfg.mode!r}")


def _in_order(pool: ThreadPoolExecutor, fn, args, ahead: int):
    """Yield ``fn(a)`` for each of ``args`` in order, with up to ``ahead``
    calls submitted to ``pool`` at once.

    The next call is submitted only when the caller asks for the next result,
    so a caller that stops early leaves at most ``ahead - 1`` calls running;
    ``pool.shutdown()`` waits for them, and their results are dropped.
    """
    args = iter(args)
    pending = deque(pool.submit(fn, a) for a in islice(args, ahead))
    while pending:
        yield pending.popleft().result()
        pending.extend(pool.submit(fn, a) for a in islice(args, 1))


def _embed(g: Graph, cfg: EmbeddingConfig, workers: int
           ) -> tuple[Embedding, sp.csr_matrix, dict[str, float]]:
    """The column path: ranked pivot columns, scored and quantized a chunk at
    a time, until the rule of ``cfg.mode`` stops it.

    With ``workers > 1`` one pool of that many threads prepares the metric's
    rows while PageRank runs and scores up to ``workers`` chunks at once, in
    either mode; hashing, PageRank and the ranking stay on the calling thread.

    Returns the embedding, the hash matrix it was built from (which ``symbed
    embed --dump-hashes`` writes without hashing the graph again) and the
    seconds spent in the ``walks+hash``, ``pagerank`` and ``similarity``
    stages.
    """
    if cfg.mode == "fixed" and cfg.d > g.num_nodes:
        raise ValueError(f"d={cfg.d} exceeds the number of nodes {g.num_nodes}")
    sdf = cfg.mode == "sdf"
    limit = g.num_nodes if sdf else cfg.d
    step = _PRODUCT_CHUNK if cfg.metric in ("cosine", "jaccard") else _COLUMN_CHUNK
    budget = g.num_nodes * cfg.budget_dim   # spent only in sdf mode
    kept: list[sp.csc_matrix] = []
    # no pool at one worker: a one-thread pool in its place raised
    # protocol-cora's peak RSS by about 9 MB and its wall time by about 10%
    # (2-vCPU machine), likely as the pool thread's own malloc arena keeps
    # freed chunks
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        t0 = time.perf_counter()
        h = hash_all(g, cfg.walk, workers=workers)
        t1 = time.perf_counter()
        if pool is not None:
            prepared = pool.submit(_prepare_metric, h, cfg.metric)
        order = rank_nodes(pagerank(g, cfg.pagerank))
        t2 = time.perf_counter()
        prepared = (_prepare_metric(h, cfg.metric) if pool is None
                    else prepared.result())

        def chunk(lo: int) -> sp.csc_matrix:
            cols = _metric_columns(h, order[lo:min(lo + step, limit)], cfg.metric,
                                   prepared)
            if cfg.bins >= 2:
                cols.data = _quantize_array(cols.data, cfg.bins)
                cols.eliminate_zeros()
            return cols

        starts = range(0, limit, step)
        chunks = (map(chunk, starts) if pool is None
                  else _in_order(pool, chunk, starts, workers))
        for cols in chunks:
            if sdf:
                # column j enters while the budget left before it is >= 0
                spent = np.cumsum(np.diff(cols.indptr))
                take = 1 + int(np.searchsorted(spent[:-1], budget, side="right"))
                cols = cols[:, :take]
                budget -= int(spent[take - 1])
            kept.append(cols)
            if budget < 0:
                break
    finally:
        if pool is not None:
            pool.shutdown()
    # free the prepared rows, the discarded chunks and, once stacked, the
    # kept ones, so at most two copies of the values are held at once; the
    # one conversion to CSR also sorts every row's indices
    del prepared, cols, chunks
    m = sp.hstack(kept, format="csc") if len(kept) > 1 else kept[0]
    kept.clear()
    m = m.tocsr()
    seconds = {"walks+hash": t1 - t0, "pagerank": t2 - t1,
               "similarity": time.perf_counter() - t2}
    return Embedding(matrix=m, ind=order[:m.shape[1]],
                     config=_config_snapshot(cfg)), h, seconds


def embed_fixed(g: Graph, cfg: EmbeddingConfig | None = None, *,
                workers: int = 1) -> Embedding:
    """Embedding with the top-d ranked nodes as columns.

    ``workers`` threads hash the walks and then score up to ``workers``
    column chunks at once, with the metric's rows prepared while PageRank
    runs.  The result is the same for any worker count.
    """
    cfg = cfg or EmbeddingConfig()
    _check_mode(cfg, "fixed")
    return _embed(g, cfg, workers)[0]


def embed_sdf(g: Graph, cfg: EmbeddingConfig | None = None, *,
              workers: int = 1) -> Embedding:
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

    ``workers`` threads hash the walks and then score up to ``workers``
    column chunks at once; the budget is still applied in rank order, so the
    result is the same for any worker count.
    """
    cfg = cfg or EmbeddingConfig(mode="sdf")
    _check_mode(cfg, "sdf")
    return _embed(g, cfg, workers)[0]


def _is_int(x) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _valid_bins(config) -> int | None:
    """The snapshot's ``bins`` when it is an int >= 2, else None."""
    bins = config.get("bins") if isinstance(config, dict) else None
    return bins if _is_int(bins) and bins >= 2 else None


def _bin_codes(values: np.ndarray, bins: int) -> np.ndarray:
    """The int64 integers ``K`` with ``K / bins`` equal to ``values`` bit for bit.

    Raises ValueError when some value is no such quotient, including NaN,
    infinities, -0.0 and values whose code overflows int64.
    """
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        codes = np.rint(values * bins).astype(np.int64)
    # the quotient load_embedding computes, compared bit for bit
    exact = (codes / bins).view(np.int64) == values.view(np.int64)
    if not exact.all():
        bad = values[np.argmin(exact)]
        raise ValueError(f"value {bad!r} is not a multiple of 1/{bins}: a 16-bit "
                         f"embedding holds only quantized values")
    return codes


def _narrowest_int(codes: np.ndarray) -> np.dtype:
    """The narrowest integer dtype holding every code: unsigned unless some
    code is negative, uint8 when there are none."""
    lo, hi = (int(codes.min()), int(codes.max())) if len(codes) else (0, 0)
    kind = "uint" if lo >= 0 else "int"
    for t in (np.dtype(f"{kind}{w}") for w in (8, 16, 32, 64)):
        if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max:
            return t


def save_embedding(e: Embedding, out_dir) -> None:
    """Write the embedding triple: matrix + feature map + config snapshot.

    The matrix goes to ``embedding.npz`` by ``scipy.sparse.save_npz`` with
    ``compressed=False``: CSR ``indptr``, ``indices`` and ``data`` plus its
    ``shape`` and ``format``, in canonical form (sorted row indices, no
    duplicates).  A 16-bit (quantized) embedding, one whose ``config["bins"]``
    is an int >= 2, stores as ``data`` its integer bin codes
    ``K = rint(v * bins)``, in the narrowest integer dtype that holds them;
    a 32-bit one stores its float64 values.  Either way load_embedding returns
    the matrix bit for bit, and the same embedding always gives the same bytes.

    Raises ValueError, before writing anything, for a triple load_embedding
    would reject or could not return exactly: ``e.ind`` not naming one pivot
    node per column, or a 16-bit embedding with a value that is not
    ``K / bins`` for an integer ``K``.
    """
    if len(e.ind) != e.num_columns:
        raise ValueError(f"feature map names {len(e.ind)} columns, the matrix "
                         f"has {e.num_columns}: only pivot-column embeddings "
                         f"can be saved")
    m = e.matrix.tocsr()
    bins = _valid_bins(e.config)
    if bins:
        m = sp.csr_matrix((_bin_codes(m.data, bins), m.indices, m.indptr),
                          shape=m.shape)
    if not m.has_canonical_format:
        # sort a copy, whose duplicate codes sum in int64: the caller's
        # matrix, whose arrays m may share, stays as it is
        m = m.copy()
        m.sum_duplicates()
    if bins:
        m.data = m.data.astype(_narrowest_int(m.data))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sp.save_npz(out / MATRIX_FILE, m, compressed=False)
    with open(out / FEATURE_MAP_FILE, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{j}\t{int(node)}\n"
                         for j, node in enumerate(np.asarray(e.ind).tolist())))
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
    """Read back an embedding triple written by save_embedding.

    ``embedding.npz`` is read by ``np.load(..., allow_pickle=False)``, which
    refuses pickled (object) arrays.  A 16-bit embedding's matrix holds
    integer bin codes ``K``; each value is ``K / bins``, with ``bins`` from
    the config snapshot in ``config.json``.  A 32-bit embedding's float64
    values are read as written.  The recorded ``value_bits`` must be the one
    ``bins`` implies: 16 for an integer ``bins`` >= 2, else 32.

    Raises EmbeddingFormatError for another format version (re-run
    ``symbed embed`` to rewrite older files, such as version 2's Matrix
    Market matrices), a malformed ``config.json`` (naming the key), an
    unreadable feature map, or an ``embedding.npz`` that is unreadable, not
    CSR, stores ``indices`` or ``indptr`` as non-integers, fails
    ``check_format(full_check=True)``, is not in canonical form, or holds
    values of the wrong dtype: not integers at 16 bits, not float64 at 32.
    """
    src = Path(in_dir)
    cfg_path = src / CONFIG_FILE
    if not cfg_path.exists():
        raise EmbeddingFormatError(f"{cfg_path} not found")
    with open(cfg_path, "r", encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise EmbeddingFormatError(f"{cfg_path}: not valid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise EmbeddingFormatError(f"{cfg_path}: expected a JSON object")
    if meta.get("format_version") != FORMAT_VERSION:
        raise EmbeddingFormatError(
            f"{cfg_path}: format version {meta.get('format_version')!r} "
            f"unsupported (expected {FORMAT_VERSION}); re-run `symbed embed` "
            f"to write the embedding again")
    for key in ("shape", "value_bits", "config"):
        if key not in meta:
            raise EmbeddingFormatError(f"{cfg_path}: missing key {key!r}")
    shape, value_bits, config = meta["shape"], meta["value_bits"], meta["config"]
    if not (isinstance(shape, list) and len(shape) == 2
            and all(_is_int(x) and x >= 0 for x in shape)):
        raise EmbeddingFormatError(
            f"{cfg_path}: key 'shape' must be two non-negative integers, got {shape!r}")
    if not (_is_int(value_bits) and value_bits in (16, 32)):
        raise EmbeddingFormatError(
            f"{cfg_path}: key 'value_bits' must be 16 or 32, got {value_bits!r}")
    if not isinstance(config, dict):
        raise EmbeddingFormatError(
            f"{cfg_path}: key 'config' must be a JSON object, got {config!r}")
    bins = _valid_bins(config)
    if value_bits == 16 and bins is None:
        raise EmbeddingFormatError(
            f"{cfg_path}: key 'config.bins' must be an integer >= 2 for 16-bit "
            f"values, got {config.get('bins')!r}")
    if value_bits == 32 and bins is not None:
        raise EmbeddingFormatError(
            f"{cfg_path}: key 'value_bits' must be 16 when 'config.bins' is "
            f"{bins}, got 32")
    mat = _read_matrix(src / MATRIX_FILE, bins)
    if shape != list(mat.shape):
        raise EmbeddingFormatError(
            f"matrix shape {mat.shape} does not match recorded {shape}")
    ind = _read_feature_map(src / FEATURE_MAP_FILE, *mat.shape)
    return Embedding(matrix=mat, ind=ind, config=config)


def _read_matrix(path: Path, bins: int | None) -> sp.csr_matrix:
    """The CSR matrix save_embedding wrote, its values divided by ``bins``
    when given (16 bits); see load_embedding for what is refused."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            fmt = npz["format"].item()
            fmt = fmt.decode("ascii") if isinstance(fmt, bytes) else fmt
            if fmt != "csr":
                raise ValueError(f"stored as {fmt}, expected csr")
            arrays = {key: npz[key] for key in ("data", "indices", "indptr", "shape")}
        for key in ("indices", "indptr"):
            if arrays[key].dtype.kind not in "iu":
                raise ValueError(f"{key} stored as {arrays[key].dtype}, expected "
                                 f"integers")
        mat = sp.csr_matrix((arrays["data"], arrays["indices"], arrays["indptr"]),
                            shape=tuple(arrays["shape"]))
        mat.check_format(full_check=True)
    except Exception as exc:
        raise EmbeddingFormatError(f"{path}: {exc}") from None
    if not mat.has_canonical_format:
        raise EmbeddingFormatError(
            f"{path}: row indices are not sorted and unique (canonical CSR)")
    if bins is None:
        if mat.dtype != np.float64:
            raise EmbeddingFormatError(
                f"{path}: 32-bit values are stored as float64, this file holds "
                f"{mat.dtype}")
        data = mat.data
    else:
        if mat.dtype.kind not in "iu":
            raise EmbeddingFormatError(
                f"{path}: 16-bit values are stored as integer bin codes, this "
                f"file holds {mat.dtype}")
        data = mat.data / bins
    return sp.csr_matrix((data, mat.indices, mat.indptr), shape=mat.shape)


def _read_feature_map(path: Path, num_rows: int, num_columns: int) -> np.ndarray:
    """Pivot node ids from ``j<TAB>node`` lines, j running 0..num_columns-1.

    Every id must name a matrix row, one of 0..num_rows-1.  A file of
    canonical lines, as save_embedding writes it, is parsed in one pass
    (``canonical_pairs``) and kept when it meets both rules; any other file
    goes to the line parser, which reports the first offending line.
    """
    if not path.is_file():
        raise EmbeddingFormatError(f"{path} not found")
    with open(path, "rb") as fh:
        pairs = canonical_pairs(fh.read())
    if (pairs is not None and np.array_equal(pairs[:, 0], np.arange(num_columns))
            and pairs[:, 1].max() < num_rows):
        return pairs[:, 1].copy()
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
            if not 0 <= node < num_rows:
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: pivot node {node} outside [0, {num_rows})")
            ind.append(node)
    if len(ind) != num_columns:
        raise EmbeddingFormatError(
            f"{path}: {len(ind)} columns listed, the matrix has {num_columns}")
    return np.asarray(ind, dtype=np.int64)

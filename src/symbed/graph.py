"""Compressed sparse graph representation, dataset ingestion and statistics."""

from __future__ import annotations

import json
import math
import operator
import os
import re
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components as _weak_components


# The most nodes whose packed arc keys src * num_nodes + dst fit in int64.
_MAX_NODES = math.isqrt(2**63 - 1)
_MAX_NODE_ID = _MAX_NODES - 1


class GraphFormatError(ValueError):
    """Malformed edge-list or label file."""


def int_setting(name: str, value, minimum: int, rule: str | None = None) -> int:
    """An integer setting as a Python int, numpy integers included.

    Raises ValueError naming ``name`` for a bool, a float (NaN included), a
    string or another non-integer, and for an integer below ``minimum``;
    ``rule`` words the requirement when ``>= minimum`` does not.
    """
    if not isinstance(value, bool):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if value >= minimum:
                return value
    raise ValueError(f"{name} must be {rule or f'>= {minimum}'}, an integer, "
                     f"got {value!r}")


def flag_setting(name: str, value) -> bool:
    """A flag setting as a Python bool, numpy bools included; ValueError
    naming ``name`` for anything else, such as the string ``"false"`` or 0."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise ValueError(f"{name} must be a bool, got {value!r}")


@dataclass(frozen=True)
class Graph:
    """Immutable directed multigraph in CSR form.

    Undirected networks are stored as symmetric arc pairs, which
    ``from_arcs`` mirrors from edges, so `num_edges` always counts directed
    arcs.  Parallel arcs, self-loops and finite nonnegative weights are kept.
    """

    num_nodes: int
    offsets: np.ndarray          # int64, length num_nodes + 1
    targets: np.ndarray          # int64, length num_edges
    weights: np.ndarray | None   # float64 per arc, or None
    directed: bool

    def __post_init__(self):
        if self.offsets.shape != (self.num_nodes + 1,):
            raise ValueError("offsets length must be num_nodes + 1")
        if self.offsets[0] != 0 or np.any(np.diff(self.offsets) < 0):
            raise ValueError("offsets must be nondecreasing and start at 0")
        if self.offsets[-1] != len(self.targets):
            raise ValueError("offsets[-1] must equal the arc count")
        if len(self.targets) and (self.targets.min() < 0 or self.targets.max() >= self.num_nodes):
            raise ValueError("target node id out of range")
        if self.weights is not None:
            if len(self.weights) != len(self.targets):
                raise ValueError("one weight per arc required")
            if np.any(self.weights < 0):
                raise ValueError("negative arc weight")
            if not np.all(np.isfinite(self.weights)):
                raise ValueError("arc weights must be finite")
        for arr in (self.offsets, self.targets, self.weights):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def num_edges(self) -> int:
        """Directed arc count (each undirected edge is two arcs)."""
        return int(self.offsets[-1])

    @property
    def out_degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def adjacency(self) -> sp.csr_matrix:
        """Arc-multiplicity adjacency matrix (parallel arcs sum)."""
        data = np.ones(self.num_edges, dtype=np.float64)
        indptr = self.offsets.astype(np.int64)
        mat = sp.csr_matrix((data, self.targets.astype(np.int64), indptr),
                            shape=(self.num_nodes, self.num_nodes))
        mat.sum_duplicates()
        return mat


def from_arcs(num_nodes, src, dst, weights=None, directed=True) -> Graph:
    """Build a Graph from parallel arc arrays, sorting them into CSR order.

    With ``directed=False`` each ``(src[i], dst[i])`` is one edge, mirrored
    here and nowhere else: it is stored as both arcs (a self-loop as two),
    each with its weight, interleaved per edge (``s0->d0, d0->s0, s1->d1``).

    Arcs are put in order by one sort of the packed int64 keys
    ``src * num_nodes + dst``, so ``num_nodes`` may be at most
    ``isqrt(2**63 - 1)`` (3,037,000,499); a larger count, an id outside
    ``0..num_nodes - 1`` or a ``weights`` length other than ``len(src)``
    raises ``ValueError`` before any key is packed.  Unweighted keys are
    sorted in place, since parallel arcs cannot be told apart; weighted ones
    by a stable argsort, so parallel arcs keep their weights in input order.
    """
    if num_nodes > _MAX_NODES:
        raise ValueError(f"num_nodes {num_nodes} exceeds {_MAX_NODES}, the most "
                         f"whose packed src * num_nodes + dst arc keys fit in int64")
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    for ids, end in ((src, "source"), (dst, "target")):
        if len(ids) and (ids.min() < 0 or ids.max() >= num_nodes):
            raise ValueError(f"{end} node id out of range")
    w = None if weights is None else np.asarray(weights, dtype=np.float64)
    if w is not None and len(w) != len(src):
        raise ValueError(f"weights has {len(w)} entries, src has {len(src)}")
    if not directed:
        src, dst = np.column_stack([src, dst]).ravel(), np.column_stack([dst, src]).ravel()
        w = None if w is None else np.repeat(w, 2)
    key = src * num_nodes
    key += dst
    if w is None:
        key.sort()
    else:
        order = np.argsort(key, kind="stable")
        key = key[order]
        w = w[order]
    src, dst = np.divmod(key, num_nodes)
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=offsets[1:])
    return Graph(num_nodes=num_nodes, offsets=offsets, targets=dst, weights=w,
                 directed=directed)


# The canonical form of a two-id line file, as write_edge_list (unweighted),
# save_embedding's feature map and one-class-per-line label files have it:
# ``a<TAB>b`` lines of at most 18 ASCII digits each (below 2**63, so int64
# parsing cannot saturate), each ending in a newline.  The possessive
# quantifiers accept the same files as plain ones without keeping
# backtracking state.
_CANONICAL_PAIRS = re.compile(rb"(?:[0-9]{1,18}+\t[0-9]{1,18}+\n)*+")


def canonical_pairs(data: bytes) -> np.ndarray | None:
    """The ``(lines, 2)`` int64 ids of a nonempty file of canonical
    ``a<TAB>b`` lines, parsed in one ``np.fromstring`` call; None for any
    other file, which its loader's line parser then reads."""
    if data and _CANONICAL_PAIRS.fullmatch(data):
        ids = np.fromstring(data, dtype=np.int64, sep=" ")
        if len(ids) == 2 * data.count(b"\n"):
            return ids.reshape(-1, 2)
    return None


def load_edge_list(path, directed: bool = False) -> Graph:
    """Load a tab-separated edge list: ``src<TAB>dst[<TAB>weight]`` per line.

    Lines starting with ``#`` and blank lines are skipped.  Node ids must be
    nonnegative integers; the graph spans ids 0..max_id.  Weights must be
    finite and nonnegative.  Each line is one edge, which ``from_arcs``
    mirrors into both arcs for undirected input.  Duplicate lines become
    parallel arcs and self-loops are preserved.

    A nonempty file of canonical unweighted lines (ids of at most 18 digits)
    is parsed in one pass (``canonical_pairs``).  It goes to the line-by-line
    parser instead, which owns all error reporting, when an id exceeds
    ``_MAX_NODE_ID``; so does every other file.
    """
    with open(path, "rb") as fh:
        ids = canonical_pairs(fh.read())
    if ids is not None and (top := int(ids.max())) <= _MAX_NODE_ID:
        return from_arcs(top + 1, ids[:, 0], ids[:, 1], directed=directed)
    srcs, dsts, ws = [], [], []
    any_weight = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) not in (2, 3):
                raise GraphFormatError(
                    f"{path}:{lineno}: expected 'src<TAB>dst[<TAB>weight]', got {raw!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(
                    f"{path}:{lineno}: node ids must be integers, got {raw!r}") from None
            if u < 0 or v < 0:
                raise GraphFormatError(f"{path}:{lineno}: negative node id")
            if max(u, v) > _MAX_NODE_ID:
                raise GraphFormatError(
                    f"{path}:{lineno}: node id {max(u, v)} exceeds {_MAX_NODE_ID}")
            w = 1.0
            if len(parts) == 3:
                try:
                    w = float(parts[2])
                except ValueError:
                    raise GraphFormatError(
                        f"{path}:{lineno}: weight must be a number, got {parts[2]!r}") from None
                if w < 0:
                    raise GraphFormatError(f"{path}:{lineno}: negative weight {w}")
                if not math.isfinite(w):
                    raise GraphFormatError(f"{path}:{lineno}: weight must be finite")
                any_weight = True
            srcs.append(u)
            dsts.append(v)
            ws.append(w)
    if not srcs:
        raise GraphFormatError(f"{path}: no edges found")
    num_nodes = max(max(srcs), max(dsts)) + 1
    return from_arcs(num_nodes, srcs, dsts, ws if any_weight else None,
                     directed=directed)


def write_edge_list(g: Graph, path) -> None:
    """Write a Graph back to edge-list form loadable with the same flag.

    Directed graphs emit one line per arc.  Undirected graphs emit one line
    per symmetric arc pair, and one line per two stored self-loop arcs.  A
    node's weighted self-loop arcs are paired by weight, since a Graph built
    directly may store the two halves of its loops interleaved
    (``[a, b, a, b]``).
    """
    src = np.repeat(np.arange(g.num_nodes, dtype=np.int64), g.out_degrees)
    keep = np.ones(g.num_edges, dtype=bool)
    if not g.directed:
        keep = src < g.targets
        loops = np.flatnonzero(src == g.targets)
        if g.weights is not None:
            bits = g.weights[loops].view(np.uint64)
            loops = loops[np.lexsort((bits, src[loops]))]
        if len(loops):
            s = src[loops]
            rank = np.arange(len(s)) - np.searchsorted(s, s, side="left")
            keep[loops[rank % 2 == 0]] = True
    with open(path, "w", encoding="utf-8") as fh:
        for k in np.flatnonzero(keep):
            u, v = int(src[k]), int(g.targets[k])
            if g.weights is not None:
                fh.write(f"{u}\t{v}\t{g.weights[k]:.17g}\n")
            else:
                fh.write(f"{u}\t{v}\n")


class LabelError(ValueError):
    """Malformed label file or indicator, or out-of-range ids."""


@dataclass(frozen=True)
class LabelTable:
    """Node classes as one read-only bool ``nodes x num_classes`` indicator."""

    indicator: np.ndarray

    def __post_init__(self):
        ind = self.indicator
        if not isinstance(ind, np.ndarray) or ind.dtype != bool or ind.ndim != 2:
            raise LabelError("labels must be a 2-d bool indicator array")
        ind.setflags(write=False)

    @property
    def num_nodes(self) -> int:
        return self.indicator.shape[0]

    @property
    def num_classes(self) -> int:
        return self.indicator.shape[1]

    @property
    def label_counts(self) -> np.ndarray:
        """k_i: number of true classes of each node (0 for unlabeled)."""
        return self.indicator.sum(axis=1)

    def labeled_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.indicator.any(axis=1))

    @cached_property
    def labels(self) -> tuple[frozenset[int], ...]:
        """Each node's class-id set, read from the indicator once."""
        return tuple(frozenset(np.flatnonzero(row).tolist()) for row in self.indicator)


def load_labels(path, num_nodes: int) -> LabelTable:
    """Load ``node_id<TAB>class[,class...]`` lines into a LabelTable.

    Unlisted nodes get an all-False row; repeated node lines merge.  A class
    id whose dense ``num_nodes x (id + 1)`` float64 matrix, which label
    propagation builds, would not fit in physical memory is refused before
    anything is allocated.

    A file of canonical ``node<TAB>class`` lines (one class per line, no
    comments or blank lines) is parsed in one pass (``canonical_pairs``).  It
    goes to the line parser instead, which owns all error reporting, when a
    node id is out of range or a class id too large; so does every other file.
    """
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    max_classes = memory // (8 * max(num_nodes, 1))
    with open(path, "rb") as fh:
        ids = canonical_pairs(fh.read())
    if (ids is not None and ids[:, 0].max() < num_nodes
            and ids[:, 1].max() < max_classes):
        nodes, classes = ids[:, 0], ids[:, 1]
    else:
        nodes, classes = _read_label_lines(path, num_nodes, max_classes, memory)
    indicator = np.zeros((num_nodes, int(np.max(classes, initial=-1)) + 1),
                         dtype=bool)
    indicator[nodes, classes] = True
    return LabelTable(indicator)


def _read_label_lines(path, num_nodes: int, max_classes: int, memory: int
                      ) -> tuple[list[int], list[int]]:
    """load_labels' line parser: one (node, class) pair per listed class."""
    nodes: list[int] = []
    classes: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise LabelError(
                    f"{path}:{lineno}: expected 'node<TAB>class[,class...]', got {raw!r}")
            try:
                node = int(parts[0])
            except ValueError:
                raise LabelError(f"{path}:{lineno}: node id must be an integer") from None
            if not 0 <= node < num_nodes:
                raise LabelError(
                    f"{path}:{lineno}: node id {node} out of range [0, {num_nodes})")
            for tok in parts[1].split(","):
                try:
                    c = int(tok)
                except ValueError:
                    raise LabelError(
                        f"{path}:{lineno}: class id must be an integer, got {tok!r}") from None
                if c < 0:
                    raise LabelError(f"{path}:{lineno}: negative class id {c}")
                if c >= max_classes:
                    raise LabelError(
                        f"{path}:{lineno}: class id {c} needs a {num_nodes} x {c + 1} "
                        f"float64 matrix, more than the machine's "
                        f"{memory} bytes of memory")
                nodes.append(node)
                classes.append(c)
    return nodes, classes


def connected_components(g: Graph) -> int:
    """Number of weakly connected components (arc direction ignored)."""
    n, _ = _weak_components(g.adjacency(), directed=True, connection="weak")
    return int(n)


@dataclass
class DatasetStats:
    nodes: int
    edges: int       # undirected edge count when the graph is undirected
    components: int
    classes: int
    dead_ends: int   # nodes without out-arcs, where a random walk stops early

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def dataset_stats(g: Graph, labels: LabelTable | None = None) -> DatasetStats:
    edges = g.num_edges if g.directed else g.num_edges // 2
    return DatasetStats(nodes=g.num_nodes, edges=edges,
                        components=connected_components(g),
                        classes=labels.num_classes if labels is not None else 0,
                        dead_ends=int(np.count_nonzero(g.out_degrees == 0)))

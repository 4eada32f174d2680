"""Pivot selection: PageRank scores by power iteration, descending order."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import Graph, flag_setting, int_setting


class ConvergenceWarning(UserWarning):
    """Power iteration hit the iteration cap before reaching tolerance."""


@dataclass(frozen=True)
class PageRankConfig:
    tolerance: float = 1e-6
    max_iters: int = 100
    damping: float = 0.85
    pure_power: bool = False  # literal r <- C r: no teleport, no dangling fix

    def __post_init__(self):
        # each comparison is written so that NaN fails it
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        object.__setattr__(self, "max_iters",
                           int_setting("max_iters", self.max_iters, 1))
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        for name in ("tolerance", "damping"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "pure_power", flag_setting("pure_power", self.pure_power))


def _transition_matrix(g: Graph) -> sp.csr_matrix:
    """Column-stochastic C with C[v, u] = (arcs u->v) / out_degree(u)."""
    deg = g.out_degrees.astype(np.float64)
    src = np.repeat(np.arange(g.num_nodes, dtype=np.int64), g.out_degrees)
    data = 1.0 / deg[src]  # src lists u once per out-arc, so deg[u] >= 1
    return sp.coo_matrix((data, (g.targets, src)),
                         shape=(g.num_nodes, g.num_nodes)).tocsr()


def pagerank(g: Graph, cfg: PageRankConfig | None = None, *,
             return_converged: bool = False):
    """PageRank scores of all nodes, summing to 1.

    Starts from the uniform vector and iterates the damped column-stochastic
    update, redistributing the mass of out-degree-0 nodes uniformly, until
    the L1 change drops below the tolerance.  A pure period-2 oscillation
    (possible at damping 1 on bipartite structures) is resolved by returning
    the average of the two alternating iterates.  In pure_power mode the
    literal update r <- C r runs instead, with a final renormalization.
    """
    cfg = cfg or PageRankConfig()
    n = g.num_nodes
    if n < 1:
        raise ValueError("graph must have at least one node")
    C = _transition_matrix(g)
    dangling = np.flatnonzero(g.out_degrees == 0)
    r = np.full(n, 1.0 / n)
    converged = False
    prev = None
    for _ in range(cfg.max_iters):
        if cfg.pure_power:
            nxt = C @ r
        else:
            nxt = cfg.damping * (C @ r + r[dangling].sum() / n) \
                + (1.0 - cfg.damping) / n
        if np.abs(nxt - r).sum() < cfg.tolerance:
            r = nxt
            converged = True
            break
        if prev is not None and np.abs(nxt - prev).sum() < cfg.tolerance:
            r = 0.5 * (r + nxt)
            converged = True
            break
        prev, r = r, nxt
    if not converged:
        warnings.warn(
            f"power iteration did not reach tolerance {cfg.tolerance} "
            f"within {cfg.max_iters} iterations", ConvergenceWarning)
    total = r.sum()
    if total > 0:
        r = r / total
    return (r, converged) if return_converged else r


def rank_nodes(scores: np.ndarray) -> np.ndarray:
    """Node ids by descending score; equal scores break by ascending id."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")

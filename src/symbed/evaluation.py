"""Transductive node-classification harness.

Splits shuffle the labeled nodes, train a one-vs-rest logistic classifier on
a growing prefix (10%..90% by default), predict exactly k_i classes per test
node, and aggregate micro/macro F1 over shuffles and repetitions.  The
classifier is fit on implicitly centered features (the training rows' column
means are folded into the bias, never subtracted from the sparse matrix);
this is the same estimator, because the bias is unregularized, and the solve
is far better conditioned for all-positive columns.  Includes
the label-spreading and random-embedding baselines evaluated under the same
splits.  Predicted and true classes are both boolean ``nodes x num_classes``
indicator matrices; the true one is ``LabelTable.indicator``, read as stored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize
from scipy.special import expit

from .embedding import Embedding
from .graph import Graph, LabelTable, int_setting


class ProtocolError(ValueError):
    """Degenerate protocol configuration (empty split, missing labels)."""


def logreg_loss_grad(theta: np.ndarray, X, Y: np.ndarray, reg: float,
                     mu: np.ndarray):
    """Mean joint loss over all heads and its gradient w.r.t. flat (W, b').

    The model is ``(X - 1 mu^T) W + b'``: the d feature columns are centered
    at ``mu`` (length d) without forming ``X - 1 mu^T``, so a sparse X stays
    sparse.  The loss is (sum of per-head log losses + reg/2 * ||W||^2) / n;
    ``b'`` is unregularized.  ``mu = 0`` gives the uncentered model.
    """
    n, d = X.shape
    k = Y.shape[1]
    W = theta[:d * k].reshape(d, k)
    b = theta[d * k:]
    Z = X @ W + (b - mu @ W)
    loss = (np.logaddexp(0.0, Z).sum() - float((Y * Z).sum())
            + 0.5 * reg * float((W * W).sum())) / n
    G = (expit(Z) - Y) / n
    gb = G.sum(axis=0)
    gW = X.T @ G - np.outer(mu, gb) + (reg / n) * W
    return loss, np.concatenate([np.asarray(gW).ravel(), gb])


class LogRegModel:
    """Trained one-vs-rest heads; classes absent from training predict 0."""

    def __init__(self, W, b, empty_classes):
        self.W = W
        self.b = b
        self.empty_classes = list(empty_classes)

    def predict_proba(self, X) -> np.ndarray:
        P = expit(X @ self.W + self.b)
        return np.asarray(P)


def train_logreg(X, Y: np.ndarray) -> LogRegModel:
    """Fit all one-vs-rest L2 logistic heads jointly with L-BFGS-B.

    The objective is (sum of per-head log losses + 1/2 * ||W||^2) divided by
    the number of training rows; biases are unregularized, and the objective
    separates per head.  X: (n, d) array or CSR; Y: (n, num_classes) 0/1
    indicators.  Heads whose class has no positive training example are
    skipped and flagged; they output probability 0, their empirical prior.

    The solve runs on features centered at the training rows' column means
    ``mu``: it minimises over ``(W, b')`` for ``(X - 1 mu^T) W + b'``.  As the
    bias is unregularized, ``(W, b') -> (W, b' - mu W)`` maps this objective
    onto the uncentered one value for value, and the start point 0 onto 0,
    so the optimum is the same; centering only removes the near-collinearity
    of all-positive columns with the bias that slows L-BFGS.  The returned
    model holds ``W`` and ``b = b' - mu W``, the original parametrization.
    """
    n, d = X.shape
    k = Y.shape[1]
    Y = np.asarray(Y, dtype=np.float64)
    present = Y.sum(axis=0) > 0
    active = np.flatnonzero(present)
    empty = np.flatnonzero(~present).tolist()
    W = np.zeros((d, k))
    b = np.full(k, -np.inf)
    if len(active):
        Ya = Y[:, active]
        ka = len(active)
        # X.mean(axis=0) would copy a sparse X; sum does not
        mu = np.asarray(X.sum(axis=0)).ravel() / n
        x0 = np.zeros(d * ka + ka)
        fun = lambda t: logreg_loss_grad(t, X, Ya, 1.0, mu)
        theta = minimize(fun, x0, jac=True, method="L-BFGS-B",
                         options={"maxiter": 500, "gtol": 1e-6,
                                  "ftol": 1e-12}).x
        Wa = theta[:d * ka].reshape(d, ka)
        W[:, active] = Wa
        b[active] = theta[d * ka:] - mu @ Wa
    return LogRegModel(W, b, empty)


def topk_sets(P: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Boolean indicator of each row's top-k_i classes; ties go to the lower id.

    Row i of the result marks the ks[i] highest-scoring columns of P[i]; a
    row with k_i = 0 is empty.
    """
    order = np.argsort(-P, axis=1, kind="stable")
    out = np.zeros(P.shape, dtype=bool)
    np.put_along_axis(out, order, np.arange(P.shape[1]) < ks[:, None], axis=1)
    return out


def micro_macro_f1(pred: np.ndarray, true: np.ndarray) -> tuple[float, float]:
    """Micro F1 from pooled (node, class) counts; macro over all classes.

    `pred` and `true` are boolean ``nodes x num_classes`` indicators of the
    predicted and true classes of the evaluated nodes.  Classes absent from
    both contribute F1 = 0 to the macro mean.
    """
    if len(true) == 0:
        raise ProtocolError("empty evaluation set")
    tp = (pred & true).sum(axis=0)
    per_den = pred.sum(axis=0) + true.sum(axis=0)  # 2 tp + fp + fn per class
    denom = per_den.sum()
    micro = 2.0 * tp.sum() / denom if denom else 0.0
    per = np.divide(2.0 * tp, per_den, out=np.zeros(len(tp)), where=per_den > 0)
    return float(micro), float(per.mean())


@dataclass(frozen=True)
class ProtocolConfig:
    train_fractions: tuple = tuple(round(0.1 * i, 1) for i in range(1, 10))
    shuffles: int = 10
    repetitions: int = 10
    seed: int = 0

    def __post_init__(self):
        if not self.train_fractions:
            raise ValueError("train_fractions is empty")
        for f in self.train_fractions:
            if not 0.0 < f < 1.0:
                raise ValueError(f"train fraction {f} outside (0, 1)")
        for name, minimum in (("shuffles", 1), ("repetitions", 1), ("seed", 0)):
            object.__setattr__(self, name,
                               int_setting(name, getattr(self, name), minimum))


@dataclass
class EvalReport:
    """Per-fraction micro/macro F1 means and stds plus overall aggregates.

    The aggregate mean averages the per-fraction means; the aggregate std is
    the population spread of those means across fractions.
    """

    fractions: list[float]
    micro_mean: list[float]
    micro_std: list[float]
    macro_mean: list[float]
    macro_std: list[float]
    aggregate_micro: float
    aggregate_macro: float
    aggregate_micro_std: float
    aggregate_macro_std: float
    runs_per_fraction: int
    flags: dict
    config: dict

    @classmethod
    def from_runs(cls, fractions, micro, macro, flags, config) -> "EvalReport":
        micro = np.asarray(micro)   # (runs, fractions)
        macro = np.asarray(macro)
        mm = micro.mean(axis=0)
        gm = macro.mean(axis=0)
        return cls(
            fractions=[float(f) for f in fractions],
            micro_mean=mm.tolist(), micro_std=micro.std(axis=0).tolist(),
            macro_mean=gm.tolist(), macro_std=macro.std(axis=0).tolist(),
            aggregate_micro=float(mm.mean()), aggregate_macro=float(gm.mean()),
            aggregate_micro_std=float(mm.std()), aggregate_macro_std=float(gm.std()),
            runs_per_fraction=micro.shape[0], flags=flags, config=config)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True, indent=1)

    def to_tsv(self) -> str:
        lines = ["fraction\tmicro_mean\tmicro_std\tmacro_mean\tmacro_std"]
        for i, f in enumerate(self.fractions):
            lines.append(f"{f:g}\t{self.micro_mean[i]:.6f}\t{self.micro_std[i]:.6f}"
                         f"\t{self.macro_mean[i]:.6f}\t{self.macro_std[i]:.6f}")
        lines.append(f"aggregate\t{self.aggregate_micro:.6f}\t{self.aggregate_micro_std:.6f}"
                     f"\t{self.aggregate_macro:.6f}\t{self.aggregate_macro_std:.6f}")
        return "\n".join(lines) + "\n"


def _split(labeled: np.ndarray, frac: float, rng: np.random.Generator):
    perm = rng.permutation(labeled)
    n_tr = int(frac * len(labeled))
    if n_tr == 0 or n_tr == len(labeled):
        raise ProtocolError(f"fraction {frac} leaves an empty train or test set")
    return perm[:n_tr], perm[n_tr:]


def _check_node_count(what: str, n: int, labels: LabelTable) -> None:
    if n != labels.num_nodes:
        raise ProtocolError(f"{what} has {n} nodes but the labels cover "
                            f"{labels.num_nodes}")


def _split_runs(labels: LabelTable, cfg: ProtocolConfig, predictor):
    """Micro and macro F1 of every (repetition, shuffle) cell, per fraction.

    `predictor(rep)` is called once per repetition and returns a function
    `predict(train, test)` giving the test nodes' predicted classes as a
    boolean ``len(test) x num_classes`` indicator, scored against the rows of
    the true-class indicator.  Split RNG is keyed by ``[seed, rep, shuffle]``.
    """
    labeled = labels.labeled_nodes()
    truth = labels.indicator
    if truth.any(axis=0).sum() < 2:
        raise ProtocolError("need at least 2 classes among labeled nodes")
    micro_runs, macro_runs = [], []
    for rep in range(cfg.repetitions):
        predict = predictor(rep)
        for sh in range(cfg.shuffles):
            rng = np.random.default_rng([cfg.seed, rep, sh])
            mrow, grow = [], []
            for frac in cfg.train_fractions:
                train, test = _split(labeled, frac, rng)
                micro, macro = micro_macro_f1(predict(train, test), truth[test])
                mrow.append(micro)
                grow.append(macro)
            micro_runs.append(mrow)
            macro_runs.append(grow)
    return micro_runs, macro_runs


def run_protocol(embedding: Embedding | None, labels: LabelTable,
                 cfg: ProtocolConfig | None = None, *,
                 embedding_factory=None) -> EvalReport:
    """Evaluate an embedding under the shuffled-split protocol.

    Each repetition uses a fresh embedding when `embedding_factory(rep)` is
    given (walks are stochastic, so regenerating captures that variance);
    otherwise the passed embedding is reused.  Fully deterministic for a
    fixed config seed.
    """
    cfg = cfg or ProtocolConfig()
    if embedding is None and embedding_factory is None:
        raise ProtocolError("need an embedding or an embedding factory")
    labels_k = labels.label_counts
    empty_class_runs = 0
    snapshot = {}

    def predictor(rep):
        nonlocal snapshot
        emb = embedding_factory(rep) if embedding_factory is not None else embedding
        _check_node_count("embedding", emb.num_nodes, labels)
        snapshot = dict(emb.config)
        X = emb.matrix

        def predict(train, test):
            nonlocal empty_class_runs
            model = train_logreg(X[train], labels.indicator[train])
            if model.empty_classes:
                empty_class_runs += 1
            return topk_sets(model.predict_proba(X[test]), labels_k[test])
        return predict

    micro_runs, macro_runs = _split_runs(labels, cfg, predictor)
    flags = {"runs_with_empty_train_class": empty_class_runs}
    return EvalReport.from_runs(cfg.train_fractions, micro_runs, macro_runs,
                                flags, snapshot)


def label_propagation(g: Graph, labels: LabelTable, train_nodes,
                      alpha: float = 0.9) -> np.ndarray:
    """Spread training labels over the normalized adjacency until fixed.

    Iterates F <- alpha * S @ F + (1 - alpha) * Y with S the symmetrically
    normalized (symmetrized) adjacency and Y the train indicator rows, at
    most 1000 times and until the L1 change drops below 1e-6, then
    predicts the top-k_i classes per node as a boolean ``num_nodes x
    num_classes`` indicator.  Nodes no diffusion reaches get the globally
    most frequent training classes, ties to the lower class id.  Raises
    ValueError unless 0 <= alpha < 1.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha {alpha} outside [0, 1)")
    train_nodes = np.asarray(train_nodes)
    if len(train_nodes) == 0:
        raise ProtocolError("label propagation needs at least one labeled node")
    _check_node_count("graph", g.num_nodes, labels)
    n, k = g.num_nodes, labels.num_classes
    W = g.adjacency()
    W = W + W.T
    deg = np.asarray(W.sum(axis=1)).ravel()
    inv_sqrt = np.zeros(n)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    S = sp.diags(inv_sqrt) @ W @ sp.diags(inv_sqrt)

    Y = np.zeros((n, k))
    Y[train_nodes] = labels.indicator[train_nodes]
    F = Y.copy()
    for _ in range(1000):
        nxt = alpha * (S @ F) + (1.0 - alpha) * Y
        if np.abs(nxt - F).sum() < 1e-6:
            F = nxt
            break
        F = nxt

    reached = F.sum(axis=1) > 0
    return topk_sets(np.where(reached[:, None], F, Y.sum(axis=0)),
                     labels.label_counts)


def run_protocol_lp(g: Graph, labels: LabelTable,
                    cfg: ProtocolConfig | None = None,
                    alpha: float = 0.9) -> EvalReport:
    """Label-propagation baseline under the identical split schedule."""
    cfg = cfg or ProtocolConfig()

    def predict(train, test):
        return label_propagation(g, labels, train, alpha)[test]

    micro_runs, macro_runs = _split_runs(labels, cfg, lambda rep: predict)
    return EvalReport.from_runs(cfg.train_fractions, micro_runs, macro_runs,
                                {}, {"baseline": "label_propagation", "alpha": float(alpha)})


def random_embedding(n: int, dim: int = 64, seed: int = 0) -> Embedding:
    """Uniform(0, 1) dense embedding; columns carry no node identity.

    Its empty ``ind`` names no pivot nodes, so save_embedding refuses it.
    """
    n, dim = int_setting("n", n, 1), int_setting("dim", dim, 1)
    seed = int_setting("seed", seed, 0)
    rng = np.random.default_rng(seed)
    mat = sp.csr_matrix(rng.random((n, dim)))
    return Embedding(matrix=mat, ind=np.array([], dtype=np.int64),
                     config={"baseline": "random", "dim": dim, "seed": seed})

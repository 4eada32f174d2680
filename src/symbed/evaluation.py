"""Transductive node-classification harness.

Splits shuffle the labeled nodes, train a one-vs-rest logistic classifier on
a growing prefix (10%..90% by default), predict exactly k_i classes per test
node, and aggregate micro/macro F1 over shuffles and repetitions.  Includes
the label-spreading and random-embedding baselines evaluated under the same
splits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize
from scipy.special import expit

from .embedding import Embedding
from .graph import Graph, LabelTable


class ProtocolError(ValueError):
    """Degenerate protocol configuration (empty split, missing labels)."""


@dataclass(frozen=True)
class LogRegParams:
    """One-vs-rest L2 logistic regression hyperparameters.

    The objective is (sum of per-head log losses + reg_strength/2 * ||W||^2)
    divided by the number of training rows; biases are unregularized.
    """

    reg_strength: float = 1.0
    max_iter: int = 500
    tol: float = 1e-6
    record_history: bool = False  # keep per-iteration losses (costs extra evals)


def logreg_loss_grad(theta: np.ndarray, X, Y: np.ndarray, reg: float):
    """Mean joint loss over all heads and its gradient w.r.t. flat (W, b)."""
    n, d = X.shape
    k = Y.shape[1]
    W = theta[:d * k].reshape(d, k)
    b = theta[d * k:]
    Z = X @ W + b
    loss = (np.logaddexp(0.0, Z).sum() - float((Y * Z).sum())
            + 0.5 * reg * float((W * W).sum())) / n
    G = (expit(Z) - Y) / n
    gW = X.T @ G + (reg / n) * W
    gb = G.sum(axis=0)
    return loss, np.concatenate([np.asarray(gW).ravel(), gb])


class LogRegModel:
    """Trained one-vs-rest heads; classes absent from training predict 0."""

    def __init__(self, W, b, num_classes, empty_classes, history=None):
        self.W = W
        self.b = b
        self.num_classes = num_classes
        self.empty_classes = list(empty_classes)
        self.history = history or []

    def predict_proba(self, X) -> np.ndarray:
        P = expit(X @ self.W + self.b)
        return np.asarray(P)


def train_logreg(X, Y: np.ndarray, params: LogRegParams | None = None) -> LogRegModel:
    """Fit all binary heads jointly (the objective separates per head).

    X: (n, d) array or CSR; Y: (n, num_classes) 0/1 indicators.  Heads whose
    class has no positive training example are skipped and flagged; they
    output probability 0, their empirical prior.
    """
    params = params or LogRegParams()
    n, d = X.shape
    k = Y.shape[1]
    Y = np.asarray(Y, dtype=np.float64)
    active = np.flatnonzero(Y.sum(axis=0) > 0)
    empty = [int(c) for c in range(k) if c not in set(active.tolist())]
    W = np.zeros((d, k))
    b = np.full(k, -np.inf)
    history: list[float] = []
    if len(active):
        Ya = Y[:, active]
        ka = len(active)
        x0 = np.zeros(d * ka + ka)
        fun = lambda t: logreg_loss_grad(t, X, Ya, params.reg_strength)
        callback = (lambda t: history.append(fun(t)[0])) if params.record_history else None
        theta = minimize(fun, x0, jac=True, method="L-BFGS-B", callback=callback,
                         options={"maxiter": params.max_iter,
                                  "gtol": params.tol, "ftol": 1e-12}).x
        W[:, active] = theta[:d * ka].reshape(d, ka)
        b[active] = theta[d * ka:]
    return LogRegModel(W, b, k, empty, history)


def predict_topk(model: LogRegModel, x, k: int) -> frozenset[int]:
    """The k most probable classes for one row; ties break by class id."""
    if not 1 <= k <= model.num_classes:
        raise ValueError(f"k={k} outside [1, {model.num_classes}]")
    p = model.predict_proba(x.reshape(1, -1) if isinstance(x, np.ndarray) else x)
    return topk_sets(np.atleast_2d(p), np.array([k]))[0]


def topk_sets(P: np.ndarray, ks: np.ndarray) -> list[frozenset[int]]:
    """Row-wise top-k_i class sets with ascending-id tie-breaks."""
    order = np.argsort(-P, axis=1, kind="stable")
    return [frozenset(int(c) for c in order[i, :ks[i]]) for i in range(len(ks))]


def micro_macro_f1(predicted, truth: LabelTable, nodes) -> tuple[float, float]:
    """Micro F1 from pooled (node, class) counts; macro over all classes.

    `predicted` maps position in `nodes` to a set of class ids.  Classes
    absent from both truth and prediction contribute F1 = 0 to the macro
    mean.
    """
    nodes = np.asarray(nodes)
    if len(nodes) == 0:
        raise ProtocolError("empty evaluation set")
    k = truth.num_classes
    tp = np.zeros(k, dtype=np.int64)
    fp = np.zeros(k, dtype=np.int64)
    fn = np.zeros(k, dtype=np.int64)
    for pos, node in enumerate(nodes):
        pred = predicted[pos]
        true = truth.labels[node]
        for c in pred & true:
            tp[c] += 1
        for c in pred - true:
            fp[c] += 1
        for c in true - pred:
            fn[c] += 1
    denom = 2 * tp.sum() + fp.sum() + fn.sum()
    micro = 2.0 * tp.sum() / denom if denom else 0.0
    per_den = 2 * tp + fp + fn
    per = np.divide(2.0 * tp, per_den, out=np.zeros(k), where=per_den > 0)
    return float(micro), float(per.mean())


@dataclass(frozen=True)
class ProtocolConfig:
    train_fractions: tuple = tuple(round(0.1 * i, 1) for i in range(1, 10))
    shuffles: int = 10
    repetitions: int = 10
    seed: int = 0
    classifier: LogRegParams = field(default_factory=LogRegParams)

    def __post_init__(self):
        for f in self.train_fractions:
            if not 0.0 < f < 1.0:
                raise ValueError(f"train fraction {f} outside (0, 1)")
        if self.shuffles < 1 or self.repetitions < 1:
            raise ValueError("shuffles and repetitions must be >= 1")


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


def _check_labels(labels: LabelTable) -> np.ndarray:
    labeled = labels.labeled_nodes()
    classes = set()
    for i in labeled:
        classes |= labels.labels[i]
    if len(classes) < 2:
        raise ProtocolError("need at least 2 classes among labeled nodes")
    return labeled


def _split_runs(labels: LabelTable, cfg: ProtocolConfig, predictor):
    """Micro and macro F1 of every (repetition, shuffle) cell, per fraction.

    `predictor(rep)` is called once per repetition and returns a function
    `predict(train, test)` giving the test nodes' predicted class sets.
    Split RNG is keyed by ``[seed, rep, shuffle]``.
    """
    labeled = _check_labels(labels)
    micro_runs, macro_runs = [], []
    for rep in range(cfg.repetitions):
        predict = predictor(rep)
        for sh in range(cfg.shuffles):
            rng = np.random.default_rng([cfg.seed, rep, sh])
            mrow, grow = [], []
            for frac in cfg.train_fractions:
                train, test = _split(labeled, frac, rng)
                micro, macro = micro_macro_f1(predict(train, test), labels, test)
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
    Y_full = np.asarray(labels.indicator().todense())
    empty_class_runs = 0
    snapshot = {}

    def predictor(rep):
        nonlocal snapshot
        emb = embedding_factory(rep) if embedding_factory is not None else embedding
        snapshot = dict(emb.config)
        X = emb.matrix

        def predict(train, test):
            nonlocal empty_class_runs
            model = train_logreg(X[train], Y_full[train], cfg.classifier)
            if model.empty_classes:
                empty_class_runs += 1
            return topk_sets(model.predict_proba(X[test]), labels_k[test])
        return predict

    micro_runs, macro_runs = _split_runs(labels, cfg, predictor)
    flags = {"runs_with_empty_train_class": empty_class_runs}
    return EvalReport.from_runs(cfg.train_fractions, micro_runs, macro_runs,
                                flags, snapshot)


def label_propagation(g: Graph, labels: LabelTable, train_nodes,
                      alpha: float = 0.9, tol: float = 1e-6,
                      max_iters: int = 1000) -> list[frozenset[int]]:
    """Spread training labels over the normalized adjacency until fixed.

    Iterates F <- alpha * S @ F + (1 - alpha) * Y with S the symmetrically
    normalized (symmetrized) adjacency and Y the train indicator rows, then
    predicts the top-k_i classes per node.  Nodes no diffusion reaches get
    the globally most frequent training classes.
    """
    train_nodes = np.asarray(train_nodes)
    if len(train_nodes) == 0:
        raise ProtocolError("label propagation needs at least one labeled node")
    n, k = g.num_nodes, labels.num_classes
    W = g.adjacency()
    W = W + W.T
    deg = np.asarray(W.sum(axis=1)).ravel()
    inv_sqrt = np.zeros(n)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    S = sp.diags(inv_sqrt) @ W @ sp.diags(inv_sqrt)

    Y = np.zeros((n, k))
    for i in train_nodes:
        for c in labels.labels[i]:
            Y[i, c] = 1.0
    F = Y.copy()
    for _ in range(max_iters):
        nxt = alpha * (S @ F) + (1.0 - alpha) * Y
        if np.abs(nxt - F).sum() < tol:
            F = nxt
            break
        F = nxt

    counts = Y.sum(axis=0)
    majority = np.argsort(-counts, kind="stable")
    ks = labels.label_counts
    order = np.argsort(-F, axis=1, kind="stable")
    out: list[frozenset[int]] = []
    reached = F.sum(axis=1) > 0
    for i in range(n):
        ki = int(ks[i])
        if ki == 0:
            out.append(frozenset())
        elif reached[i]:
            out.append(frozenset(int(c) for c in order[i, :ki]))
        else:
            out.append(frozenset(int(c) for c in majority[:ki]))
    return out


def run_protocol_lp(g: Graph, labels: LabelTable,
                    cfg: ProtocolConfig | None = None,
                    alpha: float = 0.9) -> EvalReport:
    """Label-propagation baseline under the identical split schedule."""
    cfg = cfg or ProtocolConfig()

    def predict(train, test):
        preds_all = label_propagation(g, labels, train, alpha)
        return [preds_all[i] for i in test]

    micro_runs, macro_runs = _split_runs(labels, cfg, lambda rep: predict)
    return EvalReport.from_runs(cfg.train_fractions, micro_runs, macro_runs,
                                {}, {"baseline": "label_propagation", "alpha": alpha})


def random_embedding(n: int, dim: int = 64, seed: int = 0) -> Embedding:
    """Uniform(0, 1) dense embedding; columns carry no node identity."""
    if n < 1 or dim < 1:
        raise ValueError("n and dim must be >= 1")
    rng = np.random.default_rng(seed)
    mat = sp.csr_matrix(rng.random((n, dim)))
    return Embedding(matrix=mat, ind=np.array([], dtype=np.int64),
                     config={"baseline": "random", "dim": dim, "seed": seed},
                     value_bits=32)

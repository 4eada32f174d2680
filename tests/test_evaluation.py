import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
from scipy.special import expit
from hypothesis import given, settings
from hypothesis import strategies as st

import symbed.evaluation
from symbed.embedding import EmbeddingConfig, embed_fixed
from symbed.evaluation import (EvalReport, LogRegModel, ProtocolConfig,
                               ProtocolError, _cell, _split, label_propagation,
                               logreg_loss_grad, micro_macro_f1,
                               random_embedding, run_protocol, run_protocol_lp,
                               topk_sets, train_logreg)
from symbed.graph import LabelTable, from_arcs
from symbed.synth import planted_partition, random_graph
from symbed.walks import WalkConfig

from oracles import logreg_reference, topk_sets_oracle


def label_table(sets, num_classes):
    return LabelTable(class_rows(sets, num_classes))


def class_rows(x, num_classes=None):
    """Sets <-> the library's class format, boolean indicator rows.

    A list of class-id sets becomes a ``len x num_classes`` boolean array;
    an indicator array comes back as a list of frozensets, one per row.
    """
    if num_classes is None:
        return [frozenset(np.flatnonzero(row).tolist()) for row in x]
    out = np.zeros((len(x), num_classes), dtype=bool)
    for i, s in enumerate(x):
        out[i, list(s)] = True
    return out


def finite_difference_grad(theta, X, Y, reg, mu, h=1e-6):
    """Oracle: central differences of the loss, one coordinate at a time."""
    out = np.zeros_like(theta)
    for i in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        lu, _ = logreg_loss_grad(up, X, Y, reg, mu)
        ld, _ = logreg_loss_grad(down, X, Y, reg, mu)
        out[i] = (lu - ld) / (2 * h)
    return out


def gradient_descent_oracle(X, Y, reg=1.0, max_iter=500, tol=1e-6):
    """Oracle: full-batch descent with Armijo backtracking on the joint
    loss, uncentered (mu = 0); monotone by construction.  Every class needs
    a positive row.

    Returns the model and the loss after every step."""
    assert Y.sum(axis=0).all()
    d, k = X.shape[1], Y.shape[1]
    fun = lambda t: logreg_loss_grad(t, X, Y, reg, np.zeros(d))
    x = np.zeros(d * k + k)
    loss, grad = fun(x)
    step = 1.0
    history = []
    for _ in range(max_iter):
        if np.abs(grad).max() < tol:
            break
        while True:
            cand = x - step * grad
            new_loss, new_grad = fun(cand)
            if new_loss <= loss - 1e-4 * step * float(grad @ grad):
                break
            step *= 0.5
            assert step >= 1e-16, "line search stalled"
        x, loss, grad = cand, new_loss, new_grad
        history.append(loss)
        step *= 2.0
    return LogRegModel(x[:d * k].reshape(d, k), x[d * k:], []), history


def f1_confusion_oracle(predicted, truth, nodes):
    """Oracle: build explicit per-class confusion counts with dicts."""
    classes = range(truth.num_classes)
    tp = {c: 0 for c in classes}
    fp = {c: 0 for c in classes}
    fn = {c: 0 for c in classes}
    for pos, node in enumerate(nodes):
        for c in classes:
            in_pred = c in predicted[pos]
            in_true = c in truth.labels[node]
            if in_pred and in_true:
                tp[c] += 1
            elif in_pred:
                fp[c] += 1
            elif in_true:
                fn[c] += 1
    tps, fps, fns = sum(tp.values()), sum(fp.values()), sum(fn.values())
    micro = 2 * tps / (2 * tps + fps + fns) if (2 * tps + fps + fns) else 0.0
    per = []
    for c in classes:
        den = 2 * tp[c] + fp[c] + fn[c]
        per.append(2 * tp[c] / den if den else 0.0)
    return micro, sum(per) / len(per)


class TestLossGradient:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        for trial in range(16):
            n, d, k = int(rng.integers(3, 10)), int(rng.integers(2, 6)), int(rng.integers(2, 4))
            X = rng.random((n, d)) * (rng.random((n, d)) > 0.3)
            # uncentered, then centered at a nonzero mu; dense, then CSR
            mu = np.zeros(d) if trial % 4 < 2 else rng.normal(size=d)
            if trial % 2:
                X = sp.csr_matrix(X)
            Y = (rng.random((n, k)) > 0.5).astype(float)
            theta = rng.normal(size=d * k + k)
            _, grad = logreg_loss_grad(theta, X, Y, 0.7, mu)
            fd = finite_difference_grad(theta, X, Y, 0.7, mu)
            denom = np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.abs(grad - fd) / denom) < 1e-5

    def test_loss_at_zero_is_log2(self):
        X = np.zeros((4, 3))
        Y = np.array([[1.0], [0.0], [1.0], [0.0]])
        loss, _ = logreg_loss_grad(np.zeros(4), X, Y, 1.0, np.zeros(3))
        assert loss == pytest.approx(np.log(2.0))


class TestTrainLogreg:
    def test_separable_data_perfect_training_accuracy(self):
        rng = np.random.default_rng(5)
        X = np.vstack([rng.normal(loc=-2, size=(20, 3)),
                       rng.normal(loc=+2, size=(20, 3))])
        Y = np.zeros((40, 2))
        Y[:20, 0] = 1
        Y[20:, 1] = 1
        model = train_logreg(X, Y)
        pred = np.argmax(model.predict_proba(X), axis=1)
        assert (pred == np.r_[np.zeros(20), np.ones(20)]).all()

    def test_all_zero_features_yield_class_priors(self):
        X = np.zeros((40, 5))
        Y = np.zeros((40, 2))
        Y[:10, 0] = 1   # prior 0.25
        Y[10:, 1] = 1   # prior 0.75
        model = train_logreg(X, Y)
        P = model.predict_proba(X)
        np.testing.assert_allclose(P[0], [0.25, 0.75], atol=1e-4)

    def test_empty_class_flagged_and_predicts_zero(self):
        X = np.random.default_rng(0).random((10, 3))
        Y = np.zeros((10, 3))
        Y[:5, 0] = 1
        Y[5:, 1] = 1   # class 2 never appears
        model = train_logreg(X, Y)
        assert model.empty_classes == [2]
        assert np.all(model.predict_proba(X)[:, 2] == 0.0)

    def test_empty_classes_apart_flagged_and_predict_zero(self):
        X = np.random.default_rng(0).random((12, 3))
        Y = np.zeros((12, 5))
        Y[:4, 0] = 1
        Y[4:8, 2] = 1
        Y[8:, 4] = 1   # classes 1 and 3 never appear
        model = train_logreg(X, Y)
        assert model.empty_classes == [1, 3]
        assert np.all(model.predict_proba(X)[:, [1, 3]] == 0.0)

    def test_class_on_every_row_predicts_one(self):
        # no finite optimum: the bias would grow until L-BFGS stops
        X = np.random.default_rng(0).random((10, 3))
        Y = np.zeros((10, 3))
        Y[:, 0] = 1
        Y[5:, 1] = 1
        model = train_logreg(X, Y)
        assert model.empty_classes == [2]
        P = model.predict_proba(X)
        assert np.all(P[:, 0] == 1.0) and np.all(P[:, 2] == 0.0)
        assert np.all((P[:, 1] > 0.0) & (P[:, 1] < 1.0))

    def test_gd_solver_loss_non_increasing(self):
        rng = np.random.default_rng(8)
        X = rng.random((30, 4))
        Y = (rng.random((30, 3)) > 0.6).astype(float)
        Y[:, 0] = 1.0 * (rng.random(30) > 0.5)
        _, history = gradient_descent_oracle(X, Y, max_iter=200)
        hist = np.array(history)
        assert len(hist) > 2
        assert np.all(np.diff(hist) <= 1e-12)

    def test_lbfgs_iterate_loss_non_increasing(self, monkeypatch):
        rng = np.random.default_rng(9)
        X = rng.random((30, 4))
        Y = (rng.random((30, 2)) > 0.5).astype(float)
        losses = []

        def minimize(fun, x0, **kwargs):
            # the solver train_logreg calls, recording the loss at each iterate
            record = lambda t: losses.append(fun(t)[0])
            return scipy.optimize.minimize(fun, x0, callback=record, **kwargs)

        monkeypatch.setattr(symbed.evaluation, "minimize", minimize)
        train_logreg(X, Y)
        hist = np.array(losses)
        assert len(hist) > 2
        assert np.all(np.diff(hist) <= 1e-12)

    def test_solvers_agree(self):
        rng = np.random.default_rng(10)
        X = rng.random((50, 3))
        Y = (X[:, :1] + 0.3 * rng.random((50, 1)) > 0.7).astype(float)
        a = train_logreg(X, Y)
        b, _ = gradient_descent_oracle(X, Y, max_iter=5000)
        np.testing.assert_allclose(a.W, b.W, atol=1e-3)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 40),
           d=st.integers(1, 5), k=st.integers(1, 3), data=st.data(),
           shift=st.floats(-50.0, 50.0), sparse=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_column_shift_leaves_probabilities_unchanged(
            self, seed, n, d, k, data, shift, sparse):
        # the unregularized bias absorbs a constant added to a column; the
        # centered solve sees the same features up to rounding, so the two
        # fits agree far below the 1e-6 stated here
        rng = np.random.default_rng(seed)
        X = rng.random((n, d)) * (rng.random((n, d)) > 0.3)
        Y = (rng.random((n, k)) > 0.5).astype(float)
        Y[0] = 1.0
        shifted = X.copy()
        shifted[:, data.draw(st.integers(0, d - 1))] += shift
        fit = lambda A: train_logreg(sp.csr_matrix(A) if sparse else A, Y)
        np.testing.assert_allclose(fit(shifted).predict_proba(shifted),
                                   fit(X).predict_proba(X), rtol=0, atol=1e-6)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 40),
           m=st.integers(8, 40), d=st.integers(1, 5), k=st.integers(3, 4),
           sparse=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_warm_start_leaves_probabilities_unchanged(self, seed, n, m, d, k,
                                                       sparse):
        # the start is fit on m other rows; class 0 is absent there (start
        # bias -inf) and class k-1 absent from the n new rows.  Each fit
        # stops at gtol 1e-6, and a cold fit's probabilities are themselves
        # up to about 1e-5 from the tight optimum (logreg_reference), so the
        # two fits agree to that tolerance, not to rounding: the worst of
        # 3,000 draws was 5.9e-6
        rng = np.random.default_rng(seed)
        X = rng.random((n + m, d)) * (rng.random((n + m, d)) > 0.3)
        Y = (rng.random((n + m, k)) > 0.5).astype(float)
        Y[0, :k - 1] = 1.0
        Y[n:, 0] = 0.0
        Y[:n, k - 1] = 0.0
        A = sp.csr_matrix(X) if sparse else X
        start = train_logreg(A[n:], Y[n:])
        assert start.b[0] == -np.inf
        warm = train_logreg(A[:n], Y[:n], start)
        assert warm.empty_classes == [k - 1]
        np.testing.assert_allclose(warm.predict_proba(A),
                                   train_logreg(A[:n], Y[:n]).predict_proba(A),
                                   rtol=0, atol=5e-5)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_start_at_own_solution_stops_at_once(self, sparse, monkeypatch):
        # all-positive columns put the centered bias b + mu W far from b, so
        # a start mapped without mu W would take 10 or more calls here
        rng = np.random.default_rng(11)
        X = rng.random((60, 5)) * (rng.random((60, 5)) > 0.3) + 1.0
        Y = (rng.random((60, 3)) > 0.5).astype(float)
        A = sp.csr_matrix(X) if sparse else X
        model = train_logreg(A, Y)
        calls, _, success = count_fits(monkeypatch)
        again = train_logreg(A, Y, model)
        assert len(calls) <= 2 and success == [True]
        np.testing.assert_allclose(again.predict_proba(A),
                                   model.predict_proba(A), rtol=0, atol=1e-9)


@pytest.fixture(scope="module")
def cora_partition():
    """The benchmark's cora-sized planted partition."""
    return planted_partition(2708, 7, 0.004, 0.0008, seed=1)


@pytest.fixture(scope="module")
def cora_sized(cora_partition):
    """The cora-sized labels and the benchmark's random baseline."""
    return cora_partition[1], random_embedding(2708, 64, seed=0)


@pytest.fixture(scope="module")
def cora_fixed(cora_partition):
    """A small cosine fixed embedding of the cora-sized partition (about 20%
    of its values stored)."""
    return embed_fixed(cora_partition[0], EmbeddingConfig(
        d=256, walk=WalkConfig(num_walks=64, seed=1)))


def count_fits(monkeypatch):
    """Wrap ``logreg_loss_grad`` and ``train_logreg`` by module-global name,
    as the benchmark's tracer does, and ``minimize`` to keep each result's
    ``success``; returns the loss/grad call count, fit count and successes."""
    calls, fits, success = [], [], []
    loss_grad, train = symbed.evaluation.logreg_loss_grad, train_logreg

    def minimize(*args, **kwargs):
        res = scipy.optimize.minimize(*args, **kwargs)
        success.append(res.success)
        return res

    monkeypatch.setattr(symbed.evaluation, "logreg_loss_grad",
                        lambda *a: calls.append(1) or loss_grad(*a))
    monkeypatch.setattr(symbed.evaluation, "train_logreg",
                        lambda *a: fits.append(1) or train(*a))
    monkeypatch.setattr(symbed.evaluation, "minimize", minimize)
    return calls, fits, success


class TestCenteredSolve:
    def test_random_baseline_topk_matches_tight_reference(self, cora_sized):
        # rep 1, fraction 0.2 of a seed-0 protocol, chosen because an
        # uncentered solve at the same tolerances stops short there and
        # ranks one test row's classes wrongly
        labels, emb = cora_sized
        rng = np.random.default_rng([0, 1, 0])
        for frac in (0.1, 0.2):
            train, test = _split(labels.labeled_nodes(), frac, rng)
        X, ks = emb.matrix, labels.label_counts[test]
        model = train_logreg(X[train], labels.indicator[train])
        W, b = logreg_reference(X[train], labels.indicator[train])
        np.testing.assert_array_equal(
            topk_sets(model.predict_proba(X[test]), ks),
            topk_sets(expit(X[test] @ W + b), ks))

    def test_random_baseline_warm_topk_matches_tight_reference(self,
                                                               cora_sized):
        # the same split, fit as the protocol does: dense, and warm-started
        # from the cell's fraction-0.1 model
        labels, emb = cora_sized
        X = emb.matrix.toarray()
        rng = np.random.default_rng([0, 1, 0])
        model = None
        for frac in (0.1, 0.2):
            train, test = _split(labels.labeled_nodes(), frac, rng)
            model = train_logreg(X[train], labels.indicator[train], model)
        ks = labels.label_counts[test]
        W, b = logreg_reference(X[train], labels.indicator[train])
        np.testing.assert_array_equal(
            topk_sets(model.predict_proba(X[test]), ks),
            topk_sets(expit(X[test] @ W + b), ks))

    def test_random_baseline_loss_grad_calls_per_fit(self, cora_sized,
                                                     monkeypatch):
        labels, emb = cora_sized
        calls, fits, _ = count_fits(monkeypatch)
        run_protocol(emb, labels, ProtocolConfig(shuffles=1, repetitions=2))
        assert len(fits) == 18
        assert len(calls) / len(fits) <= 40

    def test_fixed_embedding_loss_grad_calls_per_fit(self, cora_partition,
                                                     cora_fixed, monkeypatch):
        # warm starts and 20 L-BFGS pairs make 33.5 calls per fit here, cold
        # starts with 10 pairs 48.2
        calls, fits, success = count_fits(monkeypatch)
        run_protocol(cora_fixed, cora_partition[1],
                     ProtocolConfig(shuffles=1, repetitions=2))
        assert len(fits) == 18 and success == [True] * 18
        assert len(calls) / len(fits) <= 40

    def test_dense_features_fit_as_dense_array(self, cora_partition, cora_fixed,
                                               monkeypatch):
        # the random baseline is fully dense; the cosine embedding is not
        labels = cora_partition[1]
        assert cora_fixed.matrix.nnz < 2 / 3 * np.prod(cora_fixed.matrix.shape)
        layouts, train = [], train_logreg
        monkeypatch.setattr(symbed.evaluation, "train_logreg",
                            lambda X, *a: layouts.append(sp.issparse(X))
                            or train(X, *a))
        cfg = ProtocolConfig(train_fractions=(0.5,), shuffles=1, repetitions=1)
        run_protocol(random_embedding(2708, 8, 1), labels, cfg)
        run_protocol(cora_fixed, labels, cfg)
        assert layouts == [False, True]


class TestPredictTopk:
    def test_top_one(self):
        assert class_rows(topk_sets(np.array([[0.1, 0.7, 0.2]]), np.array([1]))) == [{1}]

    def test_k_equals_num_classes(self):
        assert class_rows(topk_sets(np.array([[0.1, 0.7, 0.2]]),
                                    np.array([3]))) == [{0, 1, 2}]

    def test_tie_breaks_by_class_id(self):
        assert class_rows(topk_sets(np.array([[0.4, 0.4, 0.2]]), np.array([1]))) == [{0}]

    def test_topk_sets_rows(self):
        P = np.array([[0.2, 0.5, 0.3], [0.9, 0.05, 0.05]])
        got = class_rows(topk_sets(P, np.array([2, 1])))
        assert got == [frozenset({1, 2}), frozenset({0})]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8), k=st.integers(1, 6))
    def test_indicator_matches_set_oracle_under_ties(self, data, n, k):
        P = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                                        min_size=n * k, max_size=n * k))).reshape(n, k)
        ks = np.array(data.draw(st.lists(st.integers(0, k), min_size=n, max_size=n)))
        assert class_rows(topk_sets(P, ks)) == topk_sets_oracle(P, ks)


class TestMicroMacroF1:
    def test_perfect_predictions(self):
        truth = class_rows([{0}, {1}, {1}], 2)
        preds = class_rows([frozenset({0}), frozenset({1}), frozenset({1})], 2)
        assert micro_macro_f1(preds, truth) == (1.0, 1.0)

    def test_hand_counted_example(self):
        truth = class_rows([{0}, {1}, {1}], 2)
        preds = class_rows([frozenset({0}), frozenset({1}), frozenset({0})], 2)
        micro, macro = micro_macro_f1(preds, truth)
        assert micro == pytest.approx(2 / 3)
        assert macro == pytest.approx(2 / 3)

    def test_fully_wrong(self):
        truth = class_rows([{0}, {0}], 2)
        preds = class_rows([frozenset({1}), frozenset({1})], 2)
        micro, macro = micro_macro_f1(preds, truth)
        assert micro == 0.0
        assert macro == 0.0

    def test_absent_class_counts_as_zero_in_macro(self):
        truth = class_rows([{0}, {0}], 3)
        preds = class_rows([frozenset({0}), frozenset({0})], 3)
        _, macro = micro_macro_f1(preds, truth)
        assert macro == pytest.approx(1 / 3)

    def test_empty_eval_set_rejected(self):
        with pytest.raises(ProtocolError):
            micro_macro_f1(class_rows([], 1), class_rows([], 1))

    def test_matches_confusion_oracle_1000_cases(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(1, 12))
            sets = []
            for _ in range(n):
                ki = int(rng.integers(1, k + 1))
                sets.append(set(rng.choice(k, size=ki, replace=False).tolist()))
            truth = label_table(sets, k)
            preds = []
            for i in range(n):
                ki = len(sets[i])
                preds.append(frozenset(rng.choice(k, size=ki, replace=False).tolist()))
            nodes = list(range(n))
            got = micro_macro_f1(class_rows(preds, k), class_rows(sets, k))
            want = f1_confusion_oracle(preds, truth, nodes)
            assert got[0] == want[0] and got[1] == want[1]

    def test_single_label_micro_equals_accuracy(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            k, n = 4, 20
            truth = label_table([{int(rng.integers(k))} for _ in range(n)], k)
            preds = [frozenset({int(rng.integers(k))}) for _ in range(n)]
            nodes = list(range(n))
            micro, _ = micro_macro_f1(class_rows(preds, k), class_rows(truth.labels, k))
            acc = np.mean([preds[i] == truth.labels[i] for i in nodes])
            assert micro == pytest.approx(acc)


class TestProtocol:
    def _setup(self):
        g, labels = planted_partition(90, 3, 0.25, 0.02, seed=4)
        emb = embed_fixed(g, EmbeddingConfig(
            d=30, walk=WalkConfig(num_walks=32, seed=1)))
        return g, labels, emb

    def test_deterministic_reports(self):
        _, labels, emb = self._setup()
        cfg = ProtocolConfig(train_fractions=(0.3, 0.7), shuffles=2,
                             repetitions=2, seed=11)
        a = run_protocol(emb, labels, cfg)
        b = run_protocol(emb, labels, cfg)
        assert a.to_json() == b.to_json()

    def test_report_shape(self):
        _, labels, emb = self._setup()
        cfg = ProtocolConfig(train_fractions=(0.2, 0.5, 0.8), shuffles=2,
                             repetitions=1, seed=0)
        rep = run_protocol(emb, labels, cfg)
        assert len(rep.fractions) == 3
        assert rep.runs_per_fraction == 2
        assert 0.0 <= rep.aggregate_micro <= 1.0
        tsv = rep.to_tsv().splitlines()
        assert len(tsv) == 1 + 3 + 1  # header + fractions + aggregate

    def test_embedding_factory_called_per_repetition(self):
        _, labels, emb = self._setup()
        calls = []

        def factory(rep):
            calls.append(rep)
            return emb

        cfg = ProtocolConfig(train_fractions=(0.5,), shuffles=1, repetitions=3, seed=0)
        run_protocol(None, labels, cfg, embedding_factory=factory)
        assert calls == [0, 1, 2]

    def test_cell_row_independent_of_other_cells(self, monkeypatch):
        # each cell's fits chain along its fractions and restart at the
        # next cell, so a cell run alone gives the row it gives in place
        _, labels, emb = self._setup()
        cfg = ProtocolConfig(shuffles=3, repetitions=2, seed=3)
        seen, starts = {}, []
        split_runs, train = symbed.evaluation._split_runs, train_logreg

        def record(labels, cfg, predictor):
            seen["predictor"] = predictor
            seen["rows"] = split_runs(labels, cfg, predictor)
            return seen["rows"]

        def fit(X, Y, start=None):
            model = train(X, Y, start)
            starts.append((start, model))
            return model

        monkeypatch.setattr(symbed.evaluation, "_split_runs", record)
        monkeypatch.setattr(symbed.evaluation, "train_logreg", fit)
        run_protocol(emb, labels, cfg)
        fractions = len(cfg.train_fractions)
        assert len(starts) == cfg.repetitions * cfg.shuffles * fractions
        for i, (start, _) in enumerate(starts):
            assert start is (None if i % fractions == 0 else starts[i - 1][1])
        micro, macro = seen["rows"]
        for rep in range(cfg.repetitions):
            for sh in range(cfg.shuffles):
                alone = _cell(labels, cfg, seen["predictor"](rep), rep, sh)
                row = rep * cfg.shuffles + sh
                assert alone == (micro[row], macro[row])

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(train_fractions=(0.0,))
        with pytest.raises(ValueError):
            ProtocolConfig(train_fractions=(1.0,))
        with pytest.raises(ValueError, match="empty"):
            ProtocolConfig(train_fractions=())

    @pytest.mark.parametrize("kwargs", [{"shuffles": 0}, {"repetitions": 0},
                                        {"shuffles": float("nan")},
                                        {"repetitions": float("nan")}])
    def test_count_validation(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, an integer"):
            ProtocolConfig(**kwargs)

    def test_needs_embedding_or_factory(self):
        labels = label_table([{0}, {1}, {0}, {1}], 2)
        with pytest.raises(ProtocolError,
                           match="need an embedding or an embedding factory"):
            run_protocol(None, labels, ProtocolConfig(train_fractions=(0.5,)))

    def test_empty_train_class_runs_counted(self):
        # class 1 is held by node 0 alone, so a cell's training split lacks
        # it exactly when the split misses node 0; class 0 is on every other
        # node and always trains
        n = 30
        labels = label_table([{1}] + [{0}] * (n - 1), 2)
        cfg = ProtocolConfig(train_fractions=(0.1, 0.5, 0.9), shuffles=4,
                             repetitions=2, seed=7)
        misses = 0
        for rep in range(cfg.repetitions):
            for sh in range(cfg.shuffles):
                rng = np.random.default_rng([cfg.seed, rep, sh])
                for frac in cfg.train_fractions:
                    perm = rng.permutation(np.arange(n))
                    misses += 0 not in perm[:int(frac * n)]
        assert 0 < misses < cfg.repetitions * cfg.shuffles * len(cfg.train_fractions)
        report = run_protocol(random_embedding(n, 8, 1), labels, cfg)
        assert report.flags["runs_with_empty_train_class"] == misses

    def test_split_too_small_errors(self):
        labels = label_table([{0}, {1}, {0}], 2)
        emb = random_embedding(3, 4, 0)
        cfg = ProtocolConfig(train_fractions=(0.1,), shuffles=1, repetitions=1)
        with pytest.raises(ProtocolError, match="empty train or test"):
            run_protocol(emb, labels, cfg)

    def test_needs_two_classes(self):
        labels = label_table([{0}, {0}, set()], 1)
        emb = random_embedding(3, 4, 0)
        with pytest.raises(ProtocolError, match="2 classes"):
            run_protocol(emb, labels, ProtocolConfig(train_fractions=(0.5,)))

    def test_unlabeled_nodes_never_split(self):
        g, labels0 = planted_partition(60, 3, 0.3, 0.02, seed=6)
        sets = [set(s) for s in labels0.labels]
        for i in range(0, 60, 4):
            sets[i] = set()
        labels = label_table(sets, 3)
        emb = random_embedding(60, 8, 1)
        cfg = ProtocolConfig(train_fractions=(0.5,), shuffles=2, repetitions=1)
        rep = run_protocol(emb, labels, cfg)
        assert rep.runs_per_fraction == 2  # runs fine with unlabeled rows present

    @pytest.mark.parametrize("n", [40, 80])
    def test_embedding_node_count_must_match_labels(self, n):
        _, labels = planted_partition(60, 3, 0.3, 0.02, seed=6)
        cfg = ProtocolConfig(train_fractions=(0.5,), shuffles=1, repetitions=2)
        wrong = random_embedding(n, 8, 1)
        with pytest.raises(ProtocolError, match=f"embedding has {n} nodes .* 60"):
            run_protocol(wrong, labels, cfg)
        # a later repetition's embedding is checked too
        factory = lambda rep: random_embedding(60, 8, 1) if rep == 0 else wrong
        with pytest.raises(ProtocolError, match=f"embedding has {n} nodes .* 60"):
            run_protocol(None, labels, cfg, embedding_factory=factory)


class TestLabelPropagation:
    def test_two_components_adopt_their_seed(self):
        g = from_arcs(6, [0, 1, 3, 4], [1, 2, 4, 5], directed=False)
        labels = label_table([{0}, set(), set(), {1}, set(), set()], 2)
        preds = label_propagation(g, labels, [0, 3], alpha=0.9)
        # k_i = 0 for unlabeled nodes, so check scores via labeled protocol:
        # instead relabel everyone to force k_i = 1 predictions
        labels_full = label_table([{0}] * 3 + [{1}] * 3, 2)
        preds = class_rows(label_propagation(g, labels_full, [0, 3], alpha=0.9))
        assert all(p == {0} for p in preds[:3])
        assert all(p == {1} for p in preds[3:])

    def test_alpha_zero_keeps_only_seeds(self):
        g = from_arcs(3, [0, 1], [1, 2], directed=False)
        labels = label_table([{0}, {1}, {1}], 2)
        preds = class_rows(label_propagation(g, labels, [0], alpha=0.0))
        assert preds[0] == {0}
        # nodes the single step never reaches fall back to the majority class
        assert preds[1] == {0} and preds[2] == {0}

    @pytest.mark.parametrize("alpha", [1.0, 1.5, -0.5, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        g, labels = planted_partition(60, 3, 0.3, 0.02, seed=6)
        with pytest.raises(ValueError, match=r"outside \[0, 1\)"):
            label_propagation(g, labels, [0, 1, 2], alpha=alpha)
        cfg = ProtocolConfig(train_fractions=(0.5,), shuffles=1, repetitions=1)
        with pytest.raises(ValueError, match=r"outside \[0, 1\)"):
            run_protocol_lp(g, labels, cfg, alpha=alpha)

    def test_numpy_alpha_report_serializes(self):
        g, labels = planted_partition(50, 2, 0.3, 0.05, seed=9)
        cfg = ProtocolConfig(train_fractions=(0.4,), shuffles=1, repetitions=1)
        report = run_protocol_lp(g, labels, cfg, alpha=np.float32(0.875))
        assert report.to_json() == run_protocol_lp(g, labels, cfg, alpha=0.875).to_json()

    def test_path_tie_breaks_to_lower_class(self, path3):
        labels = label_table([{0}, {0}, {1}], 2)
        preds = class_rows(label_propagation(path3, labels, [0, 2], alpha=0.9))
        assert preds[1] == {0}

    def test_unreachable_gets_majority(self):
        g = from_arcs(4, [0], [1], directed=False)  # nodes 2, 3 isolated
        labels = label_table([{1}, {1}, {0}, {0}], 2)
        preds = class_rows(label_propagation(g, labels, [0, 1], alpha=0.9))
        assert preds[2] == {1} and preds[3] == {1}

    def test_no_train_nodes_rejected(self):
        g = from_arcs(2, [0], [1], directed=False)
        labels = label_table([{0}, {1}], 2)
        with pytest.raises(ProtocolError):
            label_propagation(g, labels, [])

    def test_scores_bounded_and_contracting(self):
        g, labels = planted_partition(40, 2, 0.3, 0.05, seed=3)
        train = labels.labeled_nodes()[:10]
        preds = label_propagation(g, labels, train, alpha=0.9)
        assert len(preds) == 40

    @pytest.mark.parametrize("n", [40, 80])
    def test_graph_node_count_must_match_labels(self, n):
        _, labels = planted_partition(60, 2, 0.3, 0.05, seed=9)
        cfg = ProtocolConfig(train_fractions=(0.5,), shuffles=1, repetitions=1)
        with pytest.raises(ProtocolError, match=f"graph has {n} nodes .* 60"):
            run_protocol_lp(random_graph(n, 3, seed=1), labels, cfg)

    def test_protocol_lp_deterministic(self):
        g, labels = planted_partition(50, 2, 0.3, 0.05, seed=9)
        cfg = ProtocolConfig(train_fractions=(0.4,), shuffles=2, repetitions=1, seed=5)
        a = run_protocol_lp(g, labels, cfg)
        b = run_protocol_lp(g, labels, cfg)
        assert a.to_json() == b.to_json()
        assert a.aggregate_micro > 0.8  # strong communities propagate well


class TestRandomEmbedding:
    def test_values_in_unit_interval(self):
        emb = random_embedding(50, 16, seed=3)
        vals = emb.matrix.toarray().ravel()
        assert vals.min() >= 0.0 and vals.max() < 1.0

    def test_default_dim_64(self):
        emb = random_embedding(10)
        assert emb.matrix.shape == (10, 64)
        assert emb.ind.size == 0

    def test_mean_close_to_half(self):
        emb = random_embedding(4000, 250, seed=1)  # 1e6 values
        vals = emb.matrix.toarray().ravel()
        sigma = np.sqrt(1 / 12 / vals.size)
        assert abs(vals.mean() - 0.5) < 3 * sigma

    def test_validation(self):
        with pytest.raises(ValueError):
            random_embedding(0, 4)

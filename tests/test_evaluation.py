import numpy as np
import pytest
import scipy.sparse as sp

from symbed.evaluation import (EvalReport, LogRegModel, LogRegParams,
                               ProtocolConfig, ProtocolError, label_propagation,
                               logreg_loss_grad, micro_macro_f1, predict_topk,
                               random_embedding, run_protocol, run_protocol_lp,
                               topk_sets, train_logreg)
from symbed.graph import LabelTable, from_arcs
from symbed.synth import planted_partition, random_graph


def label_table(sets, num_classes):
    return LabelTable(labels=[frozenset(s) for s in sets], num_classes=num_classes)


def finite_difference_grad(theta, X, Y, reg, h=1e-6):
    """Oracle: central differences of the loss, one coordinate at a time."""
    out = np.zeros_like(theta)
    for i in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        lu, _ = logreg_loss_grad(up, X, Y, reg)
        ld, _ = logreg_loss_grad(down, X, Y, reg)
        out[i] = (lu - ld) / (2 * h)
    return out


def gradient_descent_oracle(X, Y, reg=1.0, max_iter=500, tol=1e-6):
    """Oracle: full-batch descent with Armijo backtracking on the joint
    loss; monotone by construction.  Every class needs a positive row."""
    assert Y.sum(axis=0).all()
    d, k = X.shape[1], Y.shape[1]
    fun = lambda t: logreg_loss_grad(t, X, Y, reg)
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
    return LogRegModel(x[:d * k].reshape(d, k), x[d * k:], k, [], history)


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
        for trial in range(8):
            n, d, k = int(rng.integers(3, 10)), int(rng.integers(2, 6)), int(rng.integers(2, 4))
            X = rng.random((n, d)) * (rng.random((n, d)) > 0.3)
            if trial % 2:
                X = sp.csr_matrix(X)
            Y = (rng.random((n, k)) > 0.5).astype(float)
            theta = rng.normal(size=d * k + k)
            _, grad = logreg_loss_grad(theta, X, Y, reg=0.7)
            fd = finite_difference_grad(theta, X, Y, reg=0.7)
            denom = np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.abs(grad - fd) / denom) < 1e-5

    def test_loss_at_zero_is_log2(self):
        X = np.zeros((4, 3))
        Y = np.array([[1.0], [0.0], [1.0], [0.0]])
        loss, _ = logreg_loss_grad(np.zeros(4), X, Y, reg=1.0)
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

    def test_gd_solver_loss_non_increasing(self):
        rng = np.random.default_rng(8)
        X = rng.random((30, 4))
        Y = (rng.random((30, 3)) > 0.6).astype(float)
        Y[:, 0] = 1.0 * (rng.random(30) > 0.5)
        model = gradient_descent_oracle(X, Y, max_iter=200)
        hist = np.array(model.history)
        assert len(hist) > 2
        assert np.all(np.diff(hist) <= 1e-12)

    def test_lbfgs_iterate_loss_non_increasing(self):
        rng = np.random.default_rng(9)
        X = rng.random((30, 4))
        Y = (rng.random((30, 2)) > 0.5).astype(float)
        params = LogRegParams(record_history=True)
        model = train_logreg(X, Y, params)
        hist = np.array(model.history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_solvers_agree(self):
        rng = np.random.default_rng(10)
        X = rng.random((50, 3))
        Y = (X[:, :1] + 0.3 * rng.random((50, 1)) > 0.7).astype(float)
        a = train_logreg(X, Y, LogRegParams())
        b = gradient_descent_oracle(X, Y, max_iter=5000)
        np.testing.assert_allclose(a.W, b.W, atol=1e-3)


class TestPredictTopk:
    def _model(self, probs):
        class Stub:
            num_classes = len(probs)

            def predict_proba(self, X):
                return np.tile(np.asarray(probs), (np.atleast_2d(X).shape[0], 1))
        return Stub()

    def test_top_one(self):
        assert predict_topk(self._model([0.1, 0.7, 0.2]), np.zeros(3), 1) == {1}

    def test_k_equals_num_classes(self):
        assert predict_topk(self._model([0.1, 0.7, 0.2]), np.zeros(3), 3) == {0, 1, 2}

    def test_tie_breaks_by_class_id(self):
        assert predict_topk(self._model([0.4, 0.4, 0.2]), np.zeros(3), 1) == {0}

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            predict_topk(self._model([0.4, 0.6]), np.zeros(2), 3)

    def test_topk_sets_rows(self):
        P = np.array([[0.2, 0.5, 0.3], [0.9, 0.05, 0.05]])
        got = topk_sets(P, np.array([2, 1]))
        assert got == [frozenset({1, 2}), frozenset({0})]


class TestMicroMacroF1:
    def test_perfect_predictions(self):
        truth = label_table([{0}, {1}, {1}], 2)
        preds = [frozenset({0}), frozenset({1}), frozenset({1})]
        assert micro_macro_f1(preds, truth, [0, 1, 2]) == (1.0, 1.0)

    def test_hand_counted_example(self):
        truth = label_table([{0}, {1}, {1}], 2)
        preds = [frozenset({0}), frozenset({1}), frozenset({0})]
        micro, macro = micro_macro_f1(preds, truth, [0, 1, 2])
        assert micro == pytest.approx(2 / 3)
        assert macro == pytest.approx(2 / 3)

    def test_fully_wrong(self):
        truth = label_table([{0}, {0}], 2)
        preds = [frozenset({1}), frozenset({1})]
        micro, macro = micro_macro_f1(preds, truth, [0, 1])
        assert micro == 0.0
        assert macro == 0.0

    def test_absent_class_counts_as_zero_in_macro(self):
        truth = label_table([{0}, {0}], 3)
        preds = [frozenset({0}), frozenset({0})]
        _, macro = micro_macro_f1(preds, truth, [0, 1])
        assert macro == pytest.approx(1 / 3)

    def test_empty_eval_set_rejected(self):
        truth = label_table([{0}], 1)
        with pytest.raises(ProtocolError):
            micro_macro_f1([], truth, [])

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
            got = micro_macro_f1(preds, truth, nodes)
            want = f1_confusion_oracle(preds, truth, nodes)
            assert got[0] == want[0] and got[1] == want[1]

    def test_single_label_micro_equals_accuracy(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            k, n = 4, 20
            truth = label_table([{int(rng.integers(k))} for _ in range(n)], k)
            preds = [frozenset({int(rng.integers(k))}) for _ in range(n)]
            nodes = list(range(n))
            micro, _ = micro_macro_f1(preds, truth, nodes)
            acc = np.mean([preds[i] == truth.labels[i] for i in nodes])
            assert micro == pytest.approx(acc)


class TestProtocol:
    def _setup(self):
        g, labels = planted_partition(90, 3, 0.25, 0.02, seed=4)
        from symbed.embedding import EmbeddingConfig, embed_fixed
        from symbed.walks import WalkConfig
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

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(train_fractions=(0.0,))
        with pytest.raises(ValueError):
            ProtocolConfig(train_fractions=(1.0,))

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


class TestLabelPropagation:
    def test_two_components_adopt_their_seed(self):
        g = from_arcs(6, [0, 1, 1, 2, 3, 4, 4, 5],
                      [1, 0, 2, 1, 4, 3, 5, 4], directed=False)
        labels = label_table([{0}, set(), set(), {1}, set(), set()], 2)
        preds = label_propagation(g, labels, [0, 3], alpha=0.9)
        # k_i = 0 for unlabeled nodes, so check scores via labeled protocol:
        # instead relabel everyone to force k_i = 1 predictions
        labels_full = label_table([{0}] * 3 + [{1}] * 3, 2)
        preds = label_propagation(g, labels_full, [0, 3], alpha=0.9)
        assert all(p == {0} for p in preds[:3])
        assert all(p == {1} for p in preds[3:])

    def test_alpha_zero_keeps_only_seeds(self):
        g = from_arcs(3, [0, 1], [1, 2], directed=False)
        labels = label_table([{0}, {1}, {1}], 2)
        preds = label_propagation(g, labels, [0], alpha=0.0)
        assert preds[0] == {0}
        # nodes the single step never reaches fall back to the majority class
        assert preds[1] == {0} and preds[2] == {0}

    def test_path_tie_breaks_to_lower_class(self, path3):
        labels = label_table([{0}, {0}, {1}], 2)
        preds = label_propagation(path3, labels, [0, 2], alpha=0.9)
        assert preds[1] == {0}

    def test_unreachable_gets_majority(self):
        g = from_arcs(4, [0, 1], [1, 0], directed=False)  # nodes 2, 3 isolated
        labels = label_table([{1}, {1}, {0}, {0}], 2)
        preds = label_propagation(g, labels, [0, 1], alpha=0.9)
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

"""Evaluation metrics against brute-force oracles.

AUC is re-derived from its pairwise definition (every positive/negative
pair, ties worth half) and macro F1 from an explicitly built confusion
matrix, so the rank-based implementations cannot drift unnoticed.
"""
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from evicred.errors import ContractError, DegenerateInputError, ShapeError
from evicred.metrics import (
    MetricReport,
    _average_ranks,
    classification_report,
    macro_f1,
    mode_report,
    multiclass_report,
    ranking_auc,
    regression_report,
)


def pairwise_auc_oracle(scores, labels):
    """O(n^2) walk over every positive/negative pair."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    if not pos or not neg:
        return None
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def scanned_average_ranks(scores):
    """Average ranks by a scan over the tie blocks of a stable sort, one
    block at a time; NaN equals nothing, so each NaN is a block alone."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def f1_oracle(pred, true, classes):
    per_class = []
    for c in range(classes):
        tp = sum(1 for p, t in zip(pred, true) if p == c and t == c)
        fp = sum(1 for p, t in zip(pred, true) if p == c and t != c)
        fn = sum(1 for p, t in zip(pred, true) if p != c and t == c)
        if tp == 0:
            per_class.append(0.0)
        else:
            prec, rec = tp / (tp + fp), tp / (tp + fn)
            per_class.append(2 * prec * rec / (prec + rec))
    return sum(per_class) / classes


def confusion_report(pred, true, classes):
    """Multi-class report from sparse (label, prediction) confusion cells."""
    cells, held, made = Counter(zip(true, pred)), Counter(true), Counter(pred)
    per_class, f1 = [], []
    for c in range(classes):
        tp = cells[c, c]
        per_class.append(tp / held[c] if held[c] else 0.0)
        if tp == 0:
            f1.append(0.0)
        else:
            prec, rec = tp / made[c], tp / held[c]
            f1.append(2 * prec * rec / (prec + rec))
    return MetricReport(
        mode="classify", n=len(pred), support=[held[c] for c in range(classes)],
        accuracy=float(np.mean(np.array(pred) == np.array(true))),
        per_class_accuracy=per_class, macro_f1=float(np.mean(f1)),
        macro_accuracy=float(np.mean(per_class)))


class TestRankingAuc:
    def test_matches_pairwise_oracle_on_random_data(self):
        rng = np.random.default_rng(31)
        for trial in range(200):
            n = int(rng.integers(2, 40))
            labels = rng.integers(0, 2, size=n).tolist()
            # Quantized scores force plenty of exact ties.
            scores = (rng.integers(0, 8, size=n) / 8.0).tolist()
            expected = pairwise_auc_oracle(scores, labels)
            got = ranking_auc(scores, labels)
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-9), trial

    def test_average_ranks_equal_the_block_scan_bit_for_bit(self):
        # Heavy ties, -0.0 beside 0.0, NaNs (each its own block, ranked in
        # input order) and single scores.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        tied = st.sampled_from([0.0, -0.0, 0.25, 1.0, -1.0, math.nan, math.inf])

        @hypothesis.settings(max_examples=300)
        @hypothesis.given(st.lists(tied | st.floats(), min_size=1, max_size=60))
        def check(scores):
            scores = np.array(scores)
            got, want = _average_ranks(scores), scanned_average_ranks(scores)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

        check()

    def test_perfect_and_inverted_rankings(self):
        assert ranking_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
        assert ranking_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_constant_scores_give_exactly_half(self):
        assert ranking_auc([0.5] * 10, [1, 0] * 5) == 0.5

    def test_single_class_is_undefined(self):
        assert ranking_auc([0.3, 0.7], [1, 1]) is None
        assert ranking_auc([0.3, 0.7], [0, 0]) is None

    @pytest.mark.parametrize("scores,labels", [([0.1, 0.2], [1]), ([0.1], [1, 0]),
                                               ([[0.1, 0.2]], [[1, 0]])],
                             ids=["more-scores", "more-labels", "2-D"])
    def test_scores_and_labels_of_other_shapes_raise(self, scores, labels):
        with pytest.raises(ShapeError):
            ranking_auc(scores, labels)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_raises(self, bad):
        with pytest.raises(ContractError, match="finite"):
            ranking_auc([0.1, bad, 0.3], [1, 0, 0])

    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    def test_label_other_than_zero_or_one_raises(self, bad):
        # Such a label used to take a rank, so the AUC could pass 1 (2.0 here).
        with pytest.raises(ContractError, match="0 or 1"):
            ranking_auc([0.1, 0.5, 0.9], [0, bad, 1])


class TestMacroF1:
    def test_matches_confusion_oracle_on_random_data(self):
        rng = np.random.default_rng(32)
        for classes in (2, 3, 6):
            for _ in range(60):
                n = int(rng.integers(1, 50))
                pred = rng.integers(0, classes, size=n).tolist()
                true = rng.integers(0, classes, size=n).tolist()
                assert macro_f1(pred, true, classes) == pytest.approx(
                    f1_oracle(pred, true, classes), abs=1e-12)

    def test_perfect_prediction_scores_one(self):
        assert macro_f1([0, 1, 0, 1], [0, 1, 0, 1], 2) == 1.0

    def test_absent_class_contributes_zero(self):
        # Class 2 never appears; its F1 is 0, not skipped.
        got = macro_f1([0, 1], [0, 1], 3)
        assert got == pytest.approx(2.0 / 3.0)

    @pytest.mark.parametrize("pred,true", [
        ([0, 1, 1], [0, 1]), ([0, 1], [0, 1, 1]), ([[0, 1]], [[0, 1]]),
    ], ids=["more-predictions", "more-labels", "matrices"])
    def test_predictions_and_labels_of_other_shapes_raise(self, pred, true):
        with pytest.raises(ShapeError, match="vectors of one length"):
            macro_f1(pred, true, 2)


class TestClassificationReport:
    def test_threshold_and_per_class_accuracy(self):
        scores = [0.9, 0.6, 0.5, 0.4, 0.2, 0.1]
        labels = [1, 1, 0, 1, 0, 0]
        report = classification_report(scores, labels)
        # Predictions at the 0.5 threshold: 1 1 1 0 0 0.
        assert report.accuracy == pytest.approx(4 / 6)
        assert report.true_claims_accuracy == pytest.approx(2 / 3)
        assert report.false_claims_accuracy == pytest.approx(2 / 3)
        assert report.support == [3, 3]
        assert report.auc == pytest.approx(
            pairwise_auc_oracle(scores, labels), abs=1e-12)
        assert report.mse is None

    def test_macro_accuracy_is_mean_recall(self):
        report = classification_report([0.9, 0.9, 0.9, 0.1], [1, 1, 0, 0])
        assert report.per_class_accuracy == [0.5, 1.0]
        assert report.macro_accuracy == pytest.approx(0.75)

    def test_out_of_range_scores_raise(self):
        for score in (1.2, -0.1, float("nan")):
            with pytest.raises(ContractError):
                classification_report([score], [1])

    def test_non_binary_labels_raise(self):
        with pytest.raises(ContractError):
            classification_report([0.5, 0.5], [0, 2])

    def test_empty_raises(self):
        with pytest.raises(DegenerateInputError):
            classification_report([], [])

    def test_single_class_reports_none_auc(self):
        report = classification_report([0.9, 0.2], [1, 1])
        assert report.auc is None
        assert "undefined" in report.to_text()

    def test_to_kv_drops_unused_fields(self):
        kv = classification_report([0.9, 0.2], [1, 0]).to_kv()
        assert kv["mode"] == "classify"
        assert "mse" not in kv
        assert kv["auc"] == 1.0


class TestMulticlassReport:
    def test_support_and_per_class_recall(self):
        report = multiclass_report([0, 1, 2, 2], [0, 1, 1, 2], 3)
        assert report.support == [1, 2, 1]
        assert report.per_class_accuracy == [1.0, 0.5, 1.0]
        assert report.accuracy == pytest.approx(0.75)

    def test_length_mismatch_raises(self):
        with pytest.raises(ContractError):
            multiclass_report([0, 1], [0], 2)

    def test_macro_f1_equals_the_public_function_bit_for_bit(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200)
        @hypothesis.given(st.data())
        def check(data):
            classes = data.draw(st.integers(1, 6))
            n = data.draw(st.integers(1, 40))
            label = st.integers(0, classes - 1)
            pred = data.draw(st.lists(label, min_size=n, max_size=n))
            true = data.draw(st.lists(label, min_size=n, max_size=n))
            got = multiclass_report(pred, true, classes).macro_f1
            assert float.hex(got) == float.hex(macro_f1(pred, true, classes))

        check()

    @pytest.mark.parametrize("pred, true", [([0, 3], [0, 1]), ([0, 1], [-1, 1])])
    def test_value_that_is_no_class_raises(self, pred, true):
        with pytest.raises(ContractError, match="class from 0 to 2"):
            multiclass_report(pred, true, 3)

    def test_large_label_needs_no_square_matrix(self):
        # A label of 3000 widens the report to 3001 classes; the counts stay
        # linear in that, where a confusion matrix would take 72 MB.
        rows, labels = [[0.4, 0.6], [0.7, 0.3], [0.2, 0.8]], [3000, 1, 1]
        tracemalloc.start()
        try:
            report = mode_report("classify", rows, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert report == confusion_report([1, 0, 1], labels, 3001)


class TestRegressionReport:
    def test_mse_rmse_identity(self):
        rng = np.random.default_rng(33)
        preds = rng.standard_normal(50)
        targets = rng.standard_normal(50)
        report = regression_report(preds, targets)
        expected = math.fsum((p - t) ** 2 for p, t in zip(preds, targets)) / 50
        assert report.mse == pytest.approx(expected, abs=1e-12)
        assert report.rmse ** 2 == pytest.approx(report.mse, abs=1e-12)
        assert report.accuracy is None

    def test_perfect_predictions(self):
        report = regression_report([1.0, 2.0], [1.0, 2.0])
        assert report.mse == 0.0
        assert report.rmse == 0.0

    def test_report_text_mentions_both_errors(self):
        text = regression_report([1.0], [2.0]).to_text()
        assert "MSE" in text and "RMSE" in text


def test_mode_report_picks_the_report_from_mode_and_shape():
    assert mode_report("regress", [1.0, 2.5], [1, 2]) == \
        regression_report([1.0, 2.5], [1.0, 2.0])
    assert mode_report("classify", [0.9, 0.2], [1.0, 0]) == \
        classification_report([0.9, 0.2], [1, 0])
    rows = [np.array([0.7, 0.2, 0.1]), np.array([0.1, 0.3, 0.6])]
    assert mode_report("classify", rows, [0, 1]) == \
        multiclass_report([0, 2], [0, 1], 3)
    # A label past the last probability widens the report, never indexes out.
    assert mode_report("classify", [[0.4, 0.6]], [2]).support == [0, 0, 1]


@pytest.mark.parametrize("mode", ["x", "classification", None])
def test_mode_report_refuses_a_mode_that_does_not_exist(mode):
    # Any mode but "regress" used to get a classification report.
    with pytest.raises(ContractError, match="'classify' or 'regress'"):
        mode_report(mode, [0.9, 0.2], [1, 0])


@pytest.mark.parametrize("label", [-1, 2.5, 0.5])
def test_mode_report_refuses_labels_that_are_not_classes(label):
    # -1 would index the last class and 2.5 or 0.5 truncate to a class.
    rows = [[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]]
    with pytest.raises(ContractError, match=f"got {label}"):
        mode_report("classify", rows, [0, label])
    with pytest.raises(ContractError, match=f"got {label}"):
        mode_report("classify", [0.2, 0.6], [0, label])
    assert mode_report("classify", rows, [0, 2.0]) == multiclass_report([2, 0], [0, 2], 3)

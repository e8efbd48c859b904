"""Evaluation reports: per-class accuracy, macro F1, ranking AUC, MSE.

AUC is computed from average ranks so tied scores count half, which
matches the pairwise definition exactly.  With only one class present it
is reported as None rather than an arbitrary number.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ContractError, DegenerateInputError, ShapeError

__all__ = [
    "MetricReport",
    "mode_report",
    "classification_report",
    "multiclass_report",
    "regression_report",
    "ranking_auc",
    "macro_f1",
]


@dataclass
class MetricReport:
    """Metrics for one evaluation; fields outside the mode stay None."""

    mode: str
    n: int
    support: list[int] = field(default_factory=list)
    accuracy: float | None = None
    per_class_accuracy: list[float] | None = None
    true_claims_accuracy: float | None = None
    false_claims_accuracy: float | None = None
    macro_f1: float | None = None
    macro_accuracy: float | None = None
    auc: float | None = None
    mse: float | None = None
    rmse: float | None = None

    def to_kv(self) -> dict:
        """Flat dict of the populated fields, for JSON output."""
        return {key: value for key, value in asdict(self).items()
                if value is not None and value != []}

    def to_text(self) -> str:
        lines = [f"mode: {self.mode}", f"claims: {self.n}"]
        if self.mode == "classify":
            if self.true_claims_accuracy is not None:
                lines.append(f"true-claims accuracy: {self.true_claims_accuracy:.4f}")
                lines.append(f"false-claims accuracy: {self.false_claims_accuracy:.4f}")
            elif self.per_class_accuracy is not None:
                for i, acc in enumerate(self.per_class_accuracy):
                    lines.append(f"class {i} accuracy: {acc:.4f}")
            lines.append(f"accuracy: {self.accuracy:.4f}")
            lines.append(f"macro F1: {self.macro_f1:.4f}")
            lines.append(f"macro accuracy: {self.macro_accuracy:.4f}")
            lines.append("AUC: undefined" if self.auc is None
                         else f"AUC: {self.auc:.4f}")
        else:
            lines.append(f"MSE: {self.mse:.6f}")
            lines.append(f"RMSE: {self.rmse:.6f}")
        return "\n".join(lines)


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks; tied scores share the mean of their rank block.  Each
    NaN ties nothing, so NaNs rank last, one by one in input order."""
    order = np.argsort(scores, kind="mergesort")
    ordered = scores[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    counts = np.diff(starts, append=len(scores))
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = np.repeat(np.cumsum(counts) - (counts - 1) / 2, counts)
    return ranks


def ranking_auc(scores, labels) -> float | None:
    """Probability a random positive outranks a random negative, ties half.

    None when either class is absent, which callers must surface instead
    of substituting a default.  Scores and labels must be vectors of one
    length (ShapeError), every score a finite number and every label 0 or 1
    (ContractError).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ShapeError(f"scores {scores.shape} and labels {labels.shape} "
                         "must be vectors of one length")
    if not np.isfinite(scores).all():
        raise ContractError("every score must be a finite number")
    if not np.isin(labels, (0, 1)).all():
        raise ContractError("binary labels must be 0 or 1")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _average_ranks(scores)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _class_counts(pred: np.ndarray, true: np.ndarray,
                  classes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per class: correct predictions, predictions, and labels held.

    Counts take O(n + classes) memory, so a large label costs a few
    counters, not a (classes, classes) matrix.
    """
    for name, values in (("prediction", pred), ("label", true)):
        if len(values) and (values.min() < 0 or values.max() >= classes):
            raise ContractError(f"every {name} must be a class from 0 to {classes - 1}")
    correct = np.bincount(true[pred == true], minlength=classes)
    return (correct, np.bincount(pred, minlength=classes),
            np.bincount(true, minlength=classes))


def macro_f1(pred, true, classes: int) -> float:
    """Unweighted mean F1 over all ``classes`` labels.

    A class nobody predicted and nobody holds scores zero, pulling the
    macro average down instead of being skipped.
    """
    pred, true = np.asarray(pred), np.asarray(true)
    if pred.shape != true.shape or pred.ndim != 1:
        raise ShapeError(f"predictions {pred.shape} and labels {true.shape} must be "
                         f"vectors of one length")
    return _macro_f1(*_class_counts(pred, true, classes))


def _macro_f1(tp: np.ndarray, predicted: np.ndarray, held: np.ndarray) -> float:
    """``macro_f1`` from the counts of ``_class_counts``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = tp / predicted
        recall = tp / held
        scores = np.where(tp > 0, 2 * precision * recall / (precision + recall), 0.0)
    return float(np.mean(scores))


def classification_report(scores, labels) -> MetricReport:
    """Binary report from per-claim credibility scores in [0, 1]."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ContractError("scores and labels must be equal-length vectors")
    if len(scores) == 0:
        raise DegenerateInputError("empty evaluation")
    if not np.all((scores >= 0.0) & (scores <= 1.0)):  # NaN fails both
        raise ContractError("credibility scores must lie in [0, 1]")
    if np.any((labels != 0) & (labels != 1)):
        raise ContractError("binary labels must be 0 or 1")
    pred = (scores >= 0.5).astype(np.int64)
    report = multiclass_report(pred, labels, 2)
    report.auc = ranking_auc(scores, labels)
    report.true_claims_accuracy = report.per_class_accuracy[1]
    report.false_claims_accuracy = report.per_class_accuracy[0]
    return report


def multiclass_report(pred, labels, classes: int) -> MetricReport:
    """Label-level report; per-class accuracy is recall on that class."""
    pred = np.asarray(pred, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if pred.shape != labels.shape or pred.ndim != 1:
        raise ContractError("predictions and labels must be equal-length vectors")
    if len(pred) == 0:
        raise DegenerateInputError("empty evaluation")
    correct, predicted, held = _class_counts(pred, labels, classes)
    support = held.tolist()
    per_class = [(float(tp / n) if n else 0.0) for tp, n in zip(correct, support)]
    return MetricReport(
        mode="classify",
        n=len(pred),
        support=support,
        accuracy=float((pred == labels).mean()),
        per_class_accuracy=per_class,
        macro_f1=_macro_f1(correct, predicted, held),
        macro_accuracy=float(np.mean(per_class)),
    )


def regression_report(predictions, targets) -> MetricReport:
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape or predictions.ndim != 1:
        raise ContractError("predictions and targets must be equal-length vectors")
    if len(predictions) == 0:
        raise DegenerateInputError("empty evaluation")
    errors = predictions - targets
    mse = float(math.fsum(errors * errors) / len(errors))
    return MetricReport(mode="regress", n=len(predictions), mse=mse,
                        rmse=math.sqrt(mse))


def mode_report(mode: str, predictions, labels) -> MetricReport:
    """The report for an output mode, as ``train`` and ``eval`` write it.

    ``regress`` gives the regression report.  Otherwise scalar
    predictions are credibilities for the binary report, and rows of
    class probabilities give the multi-class report of their argmax, over
    as many classes as a row has or the largest label needs.  A class
    label that is not a whole number from 0 up raises ContractError, and so
    does a mode other than ``classify`` and ``regress``.
    """
    if mode not in ("classify", "regress"):
        raise ContractError(f"mode must be 'classify' or 'regress', got {mode!r}")
    if mode == "regress":
        return regression_report([float(p) for p in predictions],
                                 [float(t) for t in labels])
    for t in labels:
        if not float(t).is_integer() or t < 0:
            raise ContractError(f"class labels must be whole numbers from 0 up, got {t!r}")
    true = [int(t) for t in labels]
    if len(predictions) == 0 or np.ndim(predictions[0]) == 0:
        return classification_report([float(p) for p in predictions], true)
    return multiclass_report([int(np.argmax(p)) for p in predictions], true,
                             max([len(predictions[0])] + [t + 1 for t in true]))

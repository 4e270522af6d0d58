"""Binary-classification evaluation: confusion matrix, scalar scores, ROC and PR curves.

Zero-denominator metrics return None ("undefined") rather than 0 or an error;
reports render None as "NA". The positive class is label 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import LengthMismatch, NoPositives, SingleClassTruth


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def to_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn}


def _check_binary_pair(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise LengthMismatch(f"length mismatch: {pred.shape} predictions vs {truth.shape} truths")
    if pred.size == 0:
        raise LengthMismatch("need at least one row")
    if not np.isin(pred, (0, 1)).all() or not np.isin(truth, (0, 1)).all():
        raise ValueError("predictions and truths must be 0/1")
    return pred, truth


def confusion(pred, truth) -> ConfusionMatrix:
    pred, truth = _check_binary_pair(pred, truth)
    tp = int(np.sum((pred == 1) & (truth == 1)))
    fp = int(np.sum((pred == 1) & (truth == 0)))
    tn = int(np.sum((pred == 0) & (truth == 0)))
    fn = int(np.sum((pred == 0) & (truth == 1)))
    return ConfusionMatrix(tp, fp, tn, fn)


def precision(cm: ConfusionMatrix) -> float | None:
    denom = cm.tp + cm.fp
    return cm.tp / denom if denom else None


def recall(cm: ConfusionMatrix) -> float | None:
    denom = cm.tp + cm.fn
    return cm.tp / denom if denom else None


def f_score(cm: ConfusionMatrix) -> float | None:
    p = precision(cm)
    r = recall(cm)
    if p is None or r is None or p + r == 0:
        return None
    return 2.0 * p * r / (p + r)


def specificity(cm: ConfusionMatrix) -> float | None:
    denom = cm.tn + cm.fp
    return cm.tn / denom if denom else None


def fpr(cm: ConfusionMatrix) -> float | None:
    denom = cm.fp + cm.tn
    return cm.fp / denom if denom else None


@dataclass(frozen=True)
class MetricScores:
    accuracy: float | None
    precision: float | None
    recall: float | None
    f_score: float | None
    specificity: float | None
    tpr: float | None
    fpr: float | None

    @classmethod
    def from_confusion(cls, cm: ConfusionMatrix) -> "MetricScores":
        return cls(
            accuracy=(cm.tp + cm.tn) / cm.total,
            precision=precision(cm),
            recall=recall(cm),
            f_score=f_score(cm),
            specificity=specificity(cm),
            tpr=recall(cm),
            fpr=fpr(cm),
        )

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f_score": self.f_score,
            "specificity": self.specificity,
            "tpr": self.tpr,
            "fpr": self.fpr,
        }


@dataclass(frozen=True)
class CurveSeries:
    """Ordered curve points; auc is set for ROC curves only."""

    points: tuple[tuple[float, float], ...]
    auc: float | None = None


def _grouped_counts(scores, truth) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Cumulative tp/fp after each distinct score, sweeping thresholds descending."""
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth)
    if scores.shape != truth.shape or scores.ndim != 1 or scores.size == 0:
        raise LengthMismatch(
            f"length mismatch: {scores.shape} scores vs {truth.shape} truths"
        )
    if not np.isin(truth, (0, 1)).all():
        raise ValueError("truth must be 0/1")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    t = truth[order]
    group_end = np.flatnonzero(np.append(s[1:] < s[:-1], True))
    cum_tp = np.cumsum(t)[group_end]
    cum_fp = (group_end + 1) - cum_tp
    return cum_tp, cum_fp, int(truth.sum()), int(truth.size - truth.sum())


def roc_curve(scores, truth) -> CurveSeries:
    """ROC points (fpr, tpr) per distinct score descending, plus the (0, 0) start.

    Tied scores collapse into one point; AUC is the trapezoidal area, which
    equals the pairwise ranking statistic with half credit for ties.
    """
    cum_tp, cum_fp, P, N = _grouped_counts(scores, truth)
    if P == 0 or N == 0:
        raise SingleClassTruth("ROC needs both classes in the truth vector")
    xs = np.concatenate(([0.0], cum_fp / N))
    ys = np.concatenate(([0.0], cum_tp / P))
    auc = float(np.sum((xs[1:] - xs[:-1]) * (ys[1:] + ys[:-1]) / 2.0))
    points = tuple(zip(xs.tolist(), ys.tolist()))
    return CurveSeries(points, auc)


def pr_curve(scores, truth) -> CurveSeries:
    """PR points (recall, precision), one per distinct score descending, no interpolation."""
    cum_tp, cum_fp, P, _ = _grouped_counts(scores, truth)
    if P == 0:
        raise NoPositives("PR curve needs at least one positive in the truth vector")
    rec = cum_tp / P
    prec = cum_tp / (cum_tp + cum_fp)
    points = tuple(zip(rec.tolist(), prec.tolist()))
    return CurveSeries(points, None)


def curve_to_csv(series: CurveSeries, x_name: str, y_name: str) -> str:
    """Render curve points with 6-decimal cells under the given header, in one
    format call; no cell needs CSV quoting."""
    flat = tuple(chain.from_iterable(series.points))
    return f"{x_name},{y_name}\n" + ("%.6f,%.6f\n" * len(series.points)) % flat


def roc_to_csv(series: CurveSeries) -> str:
    return curve_to_csv(series, "fpr", "tpr")


def pr_to_csv(series: CurveSeries) -> str:
    return curve_to_csv(series, "recall", "precision")


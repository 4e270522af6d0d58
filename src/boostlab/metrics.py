"""Binary-classification evaluation: confusion matrix, scalar scores, ROC and PR curves.

evaluate(scores, truth, threshold) is the one evaluation of a scores vector
that compare and eval report: labels_at turns the scores into labels (1
where a score is at or above the threshold, the one place that rule is
written), confusion counts them against the truth, and roc_curve and
pr_curve sweep the scores themselves. Zero-denominator metrics return None
("undefined") rather than 0 or an error; reports render None as "NA". The
positive class is label 1 throughout.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import LengthMismatch, NoPositives, SingleClassTruth


def check_threshold(threshold: float) -> None:
    """A label threshold lies in (0, 1); NaN does not."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")


def labels_at(scores, threshold: float) -> np.ndarray:
    """The scores' int64 labels: 1 where a score is at or above the threshold, else 0."""
    return (np.asarray(scores) >= threshold).astype(np.int64)


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
        return asdict(self)


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
        return asdict(self)


@dataclass(frozen=True, eq=False)
class CurveSeries:
    """A curve's points in drawing order as two float64 arrays, x and y (fpr
    and tpr for ROC, recall and precision for a precision-recall curve); auc
    is set for ROC curves only. Like Dataset, the series copies both arrays
    and holds read-only views of the copies, on which numpy refuses to set
    writeable back; a copy or an unpickled series is rebuilt through the
    constructor (__reduce__), so it is frozen too. eq=False: two series
    compare by identity, never by an elementwise == of their arrays."""

    x: np.ndarray
    y: np.ndarray
    auc: float | None = None

    def __post_init__(self):
        x = np.array(self.x, dtype=np.float64)
        y = np.array(self.y, dtype=np.float64)
        if x.ndim != 1 or x.shape != y.shape:
            raise LengthMismatch(f"length mismatch: {x.shape} x vs {y.shape} y")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x.view())
        object.__setattr__(self, "y", y.view())

    def __reduce__(self):
        return CurveSeries, (self.x, self.y, self.auc)

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        """The (x, y) pairs as Python floats."""
        return tuple(zip(self.x.tolist(), self.y.tolist()))


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
    order = np.argsort(-scores)  # unstable: only the counts at each run of ties' end are kept
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
    return CurveSeries(xs, ys, auc)


def pr_curve(scores, truth) -> CurveSeries:
    """PR points (recall, precision), one per distinct score descending, no interpolation."""
    cum_tp, cum_fp, P, _ = _grouped_counts(scores, truth)
    if P == 0:
        raise NoPositives("PR curve needs at least one positive in the truth vector")
    rec = cum_tp / P
    prec = cum_tp / (cum_tp + cum_fp)
    return CurveSeries(rec, prec)


@dataclass(frozen=True)
class Evaluation:
    """A scores vector evaluated against its truth: the confusion matrix and
    scalar scores of its labels at one threshold, and its ROC and PR curves."""

    confusion: ConfusionMatrix
    scores: MetricScores
    roc: CurveSeries
    pr: CurveSeries

    def to_dict(self) -> dict:
        return {"confusion": self.confusion.to_dict(), "metrics": self.scores.to_dict(), "auc": self.roc.auc}


def evaluate(scores, truth, threshold: float) -> Evaluation:
    """The Evaluation of the scores against 0/1 truth at the threshold; the
    errors are those of confusion, roc_curve and pr_curve, in that order."""
    cm = confusion(labels_at(scores, threshold), truth)
    return Evaluation(cm, MetricScores.from_confusion(cm), roc_curve(scores, truth), pr_curve(scores, truth))


def format_6f(*columns) -> str:
    """The text "%.6f,...,%.6f\n" % row for each row of the columns, byte for
    byte, for 1-D columns of one length whose values are finite, in [0, 1]
    and not -0.0 (scores and curve coordinates); any other value is a
    ValueError.

    A cell's 6-decimal integer is np.rint(v * 1e6). Below 2**20 the product
    is within 6e-11 of v * 1e6, so rint rounds it as "%.6f" rounds v
    wherever its fraction lies at least 1e-6 from one half; the rare cells
    inside that margin (exact binary ties such as 1/128 among them) take
    their integer from "%.6f" itself. The digits are written by an int32
    divmod chain into one uint8 buffer of 9 bytes a cell ("d.dddddd" and its
    "," or newline), which is decoded once.
    """
    values = np.stack([np.asarray(c, dtype=np.float64) for c in columns], axis=1)
    if not ((values >= 0.0) & (values <= 1.0)).all() or np.signbit(values).any():
        raise ValueError("cells to render must be finite, in [0, 1] and not -0.0")
    p = values * 1e6
    ints = np.rint(p).astype(np.int32)
    p -= np.floor(p)
    p -= 0.5
    for i in np.flatnonzero(np.abs(p, out=p) < 1e-6).tolist():
        ints.flat[i] = int(("%.6f" % values.flat[i]).replace(".", ""))
    del p
    buf = np.empty(values.shape + (9,), dtype=np.uint8)
    buf[..., 1] = ord(".")
    buf[..., 8] = ord(",")
    buf[:, -1, 8] = ord("\n")
    for at in (7, 6, 5, 4, 3, 2, 0):  # the units digit, 0 or 1, last
        rest = ints // 10
        ints -= rest * 10  # the digit at `at`, in place
        ints += ord("0")
        buf[..., at] = ints
        ints = rest
    return str(buf, "ascii")


def curve_to_csv(series: CurveSeries, x_name: str, y_name: str) -> str:
    """The curve's points under the given header, both columns rendered in
    one pass by format_6f; no cell needs CSV quoting."""
    return f"{x_name},{y_name}\n" + format_6f(series.x, series.y)


def roc_to_csv(series: CurveSeries) -> str:
    return curve_to_csv(series, "fpr", "tpr")


def pr_to_csv(series: CurveSeries) -> str:
    return curve_to_csv(series, "recall", "precision")


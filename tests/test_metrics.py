import copy
import csv
import math
import pickle

import numpy as np
import pytest

from boostlab.errors import LengthMismatch, NoPositives, SingleClassTruth
from boostlab.metrics import (
    ConfusionMatrix,
    CurveSeries,
    MetricScores,
    check_threshold,
    confusion,
    evaluate,
    f_score,
    format_6f,
    fpr,
    labels_at,
    pr_curve,
    precision,
    recall,
    roc_curve,
    roc_to_csv,
    pr_to_csv,
    specificity,
)


def oracle_confusion(pred, truth):
    """Per-row counting, no vectorization."""
    tp = fp = tn = fn = 0
    for p, t in zip(pred, truth):
        if p == 1 and t == 1:
            tp += 1
        elif p == 1 and t == 0:
            fp += 1
        elif p == 0 and t == 0:
            tn += 1
        else:
            fn += 1
    return tp, fp, tn, fn


def oracle_pairwise_auc(scores, truth):
    """P(score_pos > score_neg) + 0.5 * P(tie) over all positive-negative pairs."""
    pos = [s for s, t in zip(scores, truth) if t == 1]
    neg = [s for s, t in zip(scores, truth) if t == 0]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestConfusion:
    def test_perfect_prediction(self):
        cm = confusion([1, 0, 1], [1, 0, 1])
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 1, 0, 0)

    def test_hand_count(self):
        cm = confusion([1, 1, 0, 0], [1, 0, 1, 0])
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (1, 1, 1, 1)

    def test_one_fn_one_fp(self):
        pred = [1, 1, 1, 0, 0, 1]
        truth = [1, 1, 1, 1, 0, 0]
        cm = confusion(pred, truth)
        assert (cm.fn, cm.fp) == (1, 1)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion([1, 0], [1, 0, 1])

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            pred = rng.integers(0, 2, n)
            truth = rng.integers(0, 2, n)
            cm = confusion(pred, truth)
            assert (cm.tp, cm.fp, cm.tn, cm.fn) == oracle_confusion(pred, truth)


class TestScalarMetrics:
    def test_precision_values(self):
        assert precision(ConfusionMatrix(20, 1, 0, 0)) == pytest.approx(20 / 21)
        assert precision(ConfusionMatrix(0, 0, 3, 2)) is None
        assert precision(ConfusionMatrix(5, 5, 0, 0)) == 0.5

    def test_recall_values(self):
        assert recall(ConfusionMatrix(39, 0, 0, 1)) == pytest.approx(0.975)
        assert recall(ConfusionMatrix(7, 2, 3, 0)) == 1.0
        assert recall(ConfusionMatrix(0, 4, 4, 0)) is None

    def test_f_score_values(self):
        # P = R = 0.9
        assert f_score(ConfusionMatrix(9, 1, 0, 1)) == pytest.approx(0.9)
        # P = 20/21, R = 1 -> 2PR/(P+R)
        cm = ConfusionMatrix(20, 1, 0, 0)
        p = 20 / 21
        assert f_score(cm) == pytest.approx(2 * p / (p + 1))
        # tp = 0 zeroes both P and R, so P + R = 0 and F is undefined
        assert f_score(ConfusionMatrix(0, 0, 1, 5)) is None  # P undefined
        assert f_score(ConfusionMatrix(0, 3, 1, 5)) is None

    def test_specificity_fpr_pair(self):
        cm = ConfusionMatrix(0, 8, 40, 0)
        assert specificity(cm) == pytest.approx(40 / 48)
        assert fpr(cm) == pytest.approx(8 / 48)
        assert fpr(cm) == pytest.approx(1 - specificity(cm))

    def test_no_false_positives(self):
        cm = ConfusionMatrix(3, 0, 7, 1)
        assert fpr(cm) == 0.0
        assert specificity(cm) == 1.0

    def test_no_negatives_undefined(self):
        cm = ConfusionMatrix(3, 0, 0, 1)
        assert fpr(cm) is None
        assert specificity(cm) is None

    def test_recall_equals_tpr(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            cm = ConfusionMatrix(*(int(v) for v in rng.integers(0, 50, 4)))
            if cm.total == 0:
                continue
            assert recall(cm) == MetricScores.from_confusion(cm).tpr

    def test_accuracy(self):
        cm = confusion([1, 0, 1, 0], [1, 0, 0, 0])
        assert MetricScores.from_confusion(cm).accuracy == 0.75


class TestRocCurve:
    def test_perfect_ranking(self):
        series = roc_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert series.auc == pytest.approx(1.0)

    def test_all_tied(self):
        series = roc_curve([0.5, 0.5, 0.5], [1, 0, 1])
        assert series.points == ((0.0, 0.0), (1.0, 1.0))
        assert series.auc == pytest.approx(0.5)

    def test_hand_example(self):
        series = roc_curve([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        assert series.auc == pytest.approx(0.75)
        assert series.auc == pytest.approx(
            oracle_pairwise_auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        )

    def test_endpoints_and_monotone(self):
        rng = np.random.default_rng(2)
        scores = rng.random(60).round(1)  # heavy ties
        truth = rng.integers(0, 2, 60)
        series = roc_curve(scores, truth)
        assert series.points[0] == (0.0, 0.0)
        assert series.points[-1] == (1.0, 1.0)
        xs = [p[0] for p in series.points]
        ys = [p[1] for p in series.points]
        assert xs == sorted(xs)
        assert ys == sorted(ys)

    def test_single_class_raises(self):
        with pytest.raises(SingleClassTruth):
            roc_curve([0.1, 0.9], [1, 1])

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(4, 80))
            scores = rng.random(n).round(2)
            truth = rng.integers(0, 2, n)
            if truth.min() == truth.max():
                continue
            assert roc_curve(scores, truth).auc == pytest.approx(
                oracle_pairwise_auc(scores, truth), abs=1e-12
            )

    def test_rank_invariance(self):
        rng = np.random.default_rng(4)
        scores = rng.random(50).round(1)
        truth = rng.integers(0, 2, 50)
        base = roc_curve(scores, truth)
        for transform in (lambda s: 2 * s + 1, np.exp, lambda s: s**3 + s):
            other = roc_curve(transform(scores), truth)
            assert other.points == base.points
            assert other.auc == pytest.approx(base.auc, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        scores = rng.random(40)
        truth = rng.integers(0, 2, 40)
        perm = rng.permutation(40)
        a = roc_curve(scores, truth)
        b = roc_curve(scores[perm], truth[perm])
        assert a.points == b.points and a.auc == b.auc


class TestPrCurve:
    def test_perfect_ranking(self):
        series = pr_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        precisions = [p for _, p in series.points[:2]]
        assert precisions == [1.0, 1.0]
        assert series.points[1][0] == 1.0  # recall reaches 1 while precision still 1

    def test_all_tied_single_point(self):
        series = pr_curve([0.3, 0.3, 0.3, 0.3], [1, 0, 0, 1])
        assert series.points == ((1.0, 0.5),)

    def test_hand_example(self):
        series = pr_curve([0.9, 0.8, 0.7], [1, 0, 1])
        assert series.points == ((0.5, 1.0), (0.5, 0.5), (1.0, 2 / 3))

    def test_no_positives_raises(self):
        with pytest.raises(NoPositives):
            pr_curve([0.2, 0.4], [0, 0])


@pytest.mark.parametrize("curve", [roc_curve, pr_curve])
def test_a_curves_arrays_cannot_be_made_writeable(curve):
    original = curve([0.1, 0.9, 0.4], [0, 1, 1])
    points = original.points
    for series in (original, copy.copy(original), copy.deepcopy(original), pickle.loads(pickle.dumps(original))):
        for array in (series.x, series.y):
            with pytest.raises(ValueError):
                array.flags.writeable = True
            with pytest.raises(ValueError):
                array[0] = 5.0
        assert series.points == points and series.auc == original.auc


class TestCurveCsv:
    def test_round_trip_six_decimals(self, tmp_path):
        rng = np.random.default_rng(6)
        scores = rng.random(30)
        truth = rng.integers(0, 2, 30)
        roc = roc_curve(scores, truth)
        pr = pr_curve(scores, truth)
        for series, text in ((roc, roc_to_csv(roc)), (pr, pr_to_csv(pr))):
            path = tmp_path / "curve.csv"
            path.write_text(text)
            with open(path, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            assert len(header) == 2
            back = [(float(x), float(y)) for x, y in rows]
            assert len(back) == len(series.points)
            for (x1, y1), (x2, y2) in zip(back, series.points):
                assert x1 == pytest.approx(round(x2, 6), abs=1e-12)
                assert y1 == pytest.approx(round(y2, 6), abs=1e-12)

    def test_headers(self):
        series = roc_curve([0.9, 0.1], [1, 0])
        assert roc_to_csv(series).splitlines()[0] == "fpr,tpr"
        assert pr_to_csv(pr_curve([0.9, 0.1], [1, 0])).splitlines()[0] == "recall,precision"


def assert_renders_as_percent_6f(values):
    """format_6f(values) is one "%.6f" line per value; a failure names the
    first rows that differ, not a diff of the whole text."""
    got = format_6f(values).split("\n")
    want = ["%.6f" % v for v in np.asarray(values).tolist()] + [""]
    wrong = [(row, g, w) for row, (g, w) in enumerate(zip(got, want)) if g != w]
    assert (len(got), wrong[:3]) == (len(want), [])


class TestFormat6f:
    def test_random_unit_floats(self):
        assert_renders_as_percent_6f(np.random.default_rng(7).random(50_000))

    def test_two_columns_make_one_line_per_row(self):
        x, y = np.array([0.0, 0.25, 1.0]), np.array([1.0, 2 / 3, 1e-300])
        assert format_6f(x, y) == "0.000000,1.000000\n0.250000,0.666667\n1.000000,0.000000\n"

    def test_every_half_way_decimal(self):
        # (k + 0.5) / 1e6 lies within an ulp of a rounding tie for every k
        assert_renders_as_percent_6f((np.arange(1_000_000) + 0.5) / 1e6)

    @pytest.mark.parametrize("denominator", [128, 1024])
    def test_exact_binary_ties(self, denominator):
        # 1/128 is 0.0078125, a tie that "%.6f" rounds to even
        assert_renders_as_percent_6f(np.arange(denominator + 1) / denominator)

    def test_edge_values(self):
        assert_renders_as_percent_6f([0.0, 1.0, 5e-7, 0.9999995, 1e-300])
        assert format_6f(np.array([], dtype=np.float64)) == ""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.0, -1e-9, 1 + 1e-9])
    def test_rejects_values_outside_the_unit_interval(self, bad):
        with pytest.raises(ValueError):
            format_6f([0.5, bad])
        with pytest.raises(ValueError):
            format_6f([0.5, 0.5], [bad, 0.5])


class TestMetricScores:
    def test_from_confusion_identities(self):
        cm = ConfusionMatrix(12, 3, 30, 5)
        scores = MetricScores.from_confusion(cm)
        assert scores.recall == scores.tpr
        assert scores.fpr == pytest.approx(1 - scores.specificity)
        assert scores.accuracy == pytest.approx(42 / 50)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: ConfusionMatrix(1, -1, 0, 0), ValueError, "non-negative", id="negative-count"),
        pytest.param(lambda: confusion([], []), LengthMismatch, "at least one row", id="confusion-empty"),
        pytest.param(lambda: confusion([0, 2], [0, 1]), ValueError, "0/1", id="confusion-not-0/1"),
        pytest.param(lambda: CurveSeries([0.0, 1.0], [0.0]), LengthMismatch, "length", id="curve-unequal"),
        pytest.param(lambda: roc_curve([0.1, 0.2], [1]), LengthMismatch, "length", id="roc-unequal"),
        pytest.param(lambda: roc_curve([0.1, 0.2], [0, 2]), ValueError, "0/1", id="roc-truth-not-0/1"),
        pytest.param(lambda: roc_curve([math.nan, 0.2], [0, 1]), ValueError, "finite", id="roc-nan-score"),
    ],
)
def test_documented_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestEvaluate:
    def test_a_score_at_the_threshold_is_label_1(self):
        labels = labels_at([0.5, 0.4999999, 0.5000001, 0.0, 1.0], 0.5)
        assert labels.dtype == np.int64
        assert labels.tolist() == [1, 0, 1, 0, 1]

    def test_is_the_confusion_scores_and_curves_of_the_scores(self):
        rng = np.random.default_rng(7)
        scores = rng.random(40).round(2)
        truth = rng.integers(0, 2, 40)
        result = evaluate(scores, truth, 0.3)
        cm = confusion((scores >= 0.3).astype(int), truth)
        assert result.confusion == cm
        assert result.scores == MetricScores.from_confusion(cm)
        roc, pr = roc_curve(scores, truth), pr_curve(scores, truth)
        assert result.roc.points == roc.points and result.roc.auc == roc.auc
        assert result.pr.points == pr.points and result.pr.auc is None

    def test_to_dict_gives_confusion_metrics_and_auc_in_order(self):
        result = evaluate([0.9, 0.2, 0.6, 0.4], [1, 0, 0, 1], 0.5)
        d = result.to_dict()
        assert list(d) == ["confusion", "metrics", "auc"]
        assert d["confusion"] == {"tp": 1, "fp": 1, "tn": 1, "fn": 1}
        assert d["metrics"] == result.scores.to_dict() and d["metrics"]["accuracy"] == 0.5
        assert d["auc"] == result.roc.auc == 0.75

    @pytest.mark.parametrize(
        "scores, truth, error",
        [([0.2, 0.7], [1], LengthMismatch), ([0.2, 0.7], [1, 1], SingleClassTruth), ([0.2, 0.7], [0, 0], SingleClassTruth)],
    )
    def test_errors_are_those_of_its_parts(self, scores, truth, error):
        with pytest.raises(error):
            evaluate(scores, truth, 0.5)

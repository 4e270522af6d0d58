import json
import linecache
import math
import os
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from boostlab.boost import (
    ALGORITHMS,
    BoostParams,
    TreeEnsemble,
    _fit_ensemble,
    default_params,
    fit,
    fit_adaboost,
    load_model,
    model_from_dict,
    model_to_dict,
    ordered_target_stats,
    paper_preset,
    predict_labels,
    predict_scores,
    raw_scores,
    save_model,
    sigmoid,
)
from boostlab.dataset import (
    BINARY,
    NUMERIC,
    Dataset,
    FeatureSchema,
    SyntheticSpec,
    categorical,
    pcos_default_schema,
    synthesize,
)
from boostlab.errors import MalformedModel, SchemaMismatch, SingleClassDataset
from boostlab.tree import (
    MAX_OBLIVIOUS_DEPTH,
    ObliviousTree,
    fit_oblivious_tree,
    fit_regression_tree,
    tree_to_dict,
)

ONE_NUMERIC = FeatureSchema((("x", NUMERIC),), "y")


def numeric_dataset(x, labels):
    x = np.asarray(x, float).reshape(-1, 1)
    return Dataset(ONE_NUMERIC, x, np.asarray(labels))


def alpha_of(tree):
    """An AdaBoost round's alpha: the size of each of its tree's leaves."""
    assert isinstance(tree, ObliviousTree) and tree.depth <= 1
    sizes = np.abs(tree.leaf_values)
    assert (sizes == sizes[0]).all()
    return float(sizes[0])


def replay_adaboost_weights(model, data):
    """Independent reweighting replay; yields (eps, weights_after_round)."""
    y = data.signed_labels()
    n = data.n_rows
    w = np.full(n, 1.0 / n)
    out = []
    for tree in model.trees:
        alpha = alpha_of(tree)
        pred = np.sign(tree.predict(data.values)).astype(np.int64)  # the round's stump
        eps = float(w[pred != y].sum())
        if eps > 0.0:
            w = w * np.exp(-alpha * y * pred)
            w = w / w.sum()
        out.append((eps, w.copy(), pred))
    return out


def deviance(labels, raw):
    """Mean binomial deviance of sigmoid(raw) against 0/1 labels: the loss
    whose gradients GBM, XGBoost and CatBoost fit."""
    signs = np.where(labels == 1, -1.0, 1.0)
    return float(np.mean(np.logaddexp(0.0, signs * raw)))


def exponential_loss(labels, margins):
    """AdaBoost's loss: the mean of e^(-y * margin), y = ±1."""
    return float(np.mean(np.exp(-np.where(labels == 1, 1.0, -1.0) * margins)))


def prefix_losses(model, data, loss):
    """loss of the training rows' raw scores under each model prefix, the
    first k trees for k = 1, 2, ...: one loss per round."""
    return [
        loss(data.labels, raw_scores(replace(model, trees=model.trees[:k]), data))
        for k in range(1, len(model.trees) + 1)
    ]


def assert_non_increasing(losses, tol):
    assert all(b <= a + tol for a, b in zip(losses, losses[1:]))


class TestBoostParams:
    def test_defaults_per_algorithm(self):
        assert default_params("adaboost").max_depth == 1
        assert default_params("gbm").max_depth == 3
        assert default_params("xgboost").max_depth == 3
        assert default_params("catboost").max_depth == 6
        assert default_params("gbm").learning_rate == 0.1
        assert default_params("gbm").seed == 42

    def test_paper_preset(self):
        def params(max_depth, learning_rate=0.1):
            # every field given, so a changed default of BoostParams shows here
            return BoostParams(
                n_rounds=100,
                learning_rate=learning_rate,
                max_depth=max_depth,
                reg_lambda=1.0,
                gamma=0.0,
                min_child_weight=1.0,
                seed=42,
                cat_one_hot_max=2,
                cat_prior=0.5,
                threshold=0.5,
            )

        defaults = {"adaboost": params(1), "gbm": params(3), "xgboost": params(3), "catboost": params(6)}
        presets = {"adaboost": params(1), "gbm": params(3, 0.01), "xgboost": params(3), "catboost": params(16)}
        assert {a: default_params(a) for a in ALGORITHMS} == defaults
        assert {a: paper_preset(a) for a in ALGORITHMS} == presets

    def test_validation(self):
        with pytest.raises(ValueError):
            BoostParams(learning_rate=0.0)
        with pytest.raises(ValueError):
            BoostParams(threshold=1.0)
        with pytest.raises(ValueError):
            BoostParams(cat_prior=0.0)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: BoostParams(max_depth=0), "max_depth", id="max_depth-0"),
        pytest.param(lambda: BoostParams(reg_lambda=-1.0), "reg_lambda", id="negative-reg_lambda"),
        pytest.param(lambda: BoostParams(reg_lambda=math.inf), "reg_lambda", id="infinite-reg_lambda"),
        pytest.param(lambda: BoostParams(gamma=-0.5), "gamma", id="negative-gamma"),
        pytest.param(lambda: BoostParams(gamma=math.inf), "gamma", id="infinite-gamma"),
        pytest.param(lambda: BoostParams(min_child_weight=-1.0), "min_child_weight", id="negative-min_child_weight"),
        pytest.param(lambda: BoostParams(min_child_weight=math.inf), "min_child_weight", id="infinite-min_child_weight"),
        pytest.param(lambda: BoostParams(cat_one_hot_max=0), "cat_one_hot_max", id="cat_one_hot_max-0"),
        pytest.param(lambda: default_params("lightgbm"), "unknown algorithm", id="default_params-unknown"),
        pytest.param(
            lambda: fit("lightgbm", numeric_dataset([1, 2], [0, 1])), "unknown algorithm", id="fit-unknown"
        ),
    ],
)
def test_documented_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestAdaBoost:
    def test_separable_stops_after_one_round(self):
        data = numeric_dataset([1, 2, 3, 4], [0, 0, 1, 1])
        model = fit_adaboost(data)
        assert isinstance(model, TreeEnsemble) and model.base_score == 0.0
        assert len(model.trees) == 1
        assert model.trees[0].depth == 1
        # capped alpha for eps0 = 1/(2n)
        eps0 = 1.0 / 8.0
        assert alpha_of(model.trees[0]) == pytest.approx(0.5 * math.log((1 - eps0) / eps0))
        assert np.array_equal(predict_labels(model, data), data.labels)

    def test_a_perfect_stump_of_inexact_weights_stops_at_the_capped_alpha(self):
        # weights of 1/10 do not sum exactly, so an error taken as a total
        # less a prefix could read an ulp from zero; the weight misclassified
        # is exactly zero
        data = numeric_dataset(range(10), [1] * 6 + [0] * 4)
        model = fit_adaboost(data)
        assert len(model.trees) == 1
        eps0 = 1.0 / 20.0
        assert alpha_of(model.trees[0]) == 0.5 * math.log((1 - eps0) / eps0)
        assert np.array_equal(predict_labels(model, data), data.labels)

    def test_alpha_formula_at_eps_03(self):
        # best first stump errs exactly 3 of 10 rows
        data = numeric_dataset(range(1, 11), [1, 1, 1, 0, 0, 0, 0, 1, 1, 1])
        model = fit_adaboost(data, replace(default_params("adaboost"), n_rounds=1))
        replay = replay_adaboost_weights(model, data)
        assert replay[0][0] == pytest.approx(0.3)
        assert alpha_of(model.trees[0]) == pytest.approx(0.5 * math.log(0.7 / 0.3), abs=1e-4)
        assert alpha_of(model.trees[0]) == pytest.approx(0.4236, abs=1e-4)

    def test_reweighted_error_is_half(self):
        rng = np.random.default_rng(0)
        for seed in range(4):
            data = synthesize(pcos_default_schema(), 80, seed, 1.0)
            model = fit_adaboost(data, replace(default_params("adaboost"), n_rounds=12))
            y = data.signed_labels()
            for (eps, w_after, pred) in replay_adaboost_weights(model, data):
                if eps == 0.0:
                    continue
                assert abs(float(w_after[pred != y].sum()) - 0.5) < 1e-10

    def test_exponential_loss_non_increasing(self):
        data = synthesize(pcos_default_schema(), 120, 5, 1.0)
        model = fit_adaboost(data, replace(default_params("adaboost"), n_rounds=25))
        assert len(model.trees) > 1
        assert_non_increasing(prefix_losses(model, data, exponential_loss), 1e-12)

    def test_loss_bound(self):
        # exponential loss <= product of 2*sqrt(eps(1-eps)), with the capped
        # round counted at its effective eps0
        data = synthesize(pcos_default_schema(), 100, 6, 1.5)
        model = fit_adaboost(data, replace(default_params("adaboost"), n_rounds=20))
        eps0 = 1.0 / (2.0 * data.n_rows)
        bound = 1.0
        for eps, _, _ in replay_adaboost_weights(model, data):
            e = max(eps, eps0)
            bound *= 2.0 * math.sqrt(e * (1.0 - e))
        assert exponential_loss(data.labels, raw_scores(model, data)) <= bound + 1e-10

    def test_single_class_raises(self):
        data = numeric_dataset([1, 2, 3], [1, 1, 1])
        with pytest.raises(SingleClassDataset):
            fit_adaboost(data)

    def test_a_round_at_half_error_stops_before_its_stump(self, tmp_path):
        # XOR over two binary columns: every stump, of either column and
        # either orientation, errs on half the weight
        schema = FeatureSchema((("a", BINARY), ("b", BINARY)), "y")
        data = Dataset(schema, np.array([[0, 0], [0, 1], [1, 0], [1, 1]], float), np.array([0, 1, 1, 0]))
        model = fit_adaboost(data)
        assert model.trees == []
        assert predict_scores(model, data).tolist() == [0.5] * 4
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.trees == [] and model_to_dict(back) == model_to_dict(model)
        assert predict_scores(back, data).tolist() == [0.5] * 4

    def test_scores_use_sigmoid_of_double_margin(self):
        data = numeric_dataset([1, 2, 3, 4], [0, 0, 1, 1])
        model = fit_adaboost(data)
        margins = raw_scores(model, data)
        expected = 1.0 / (1.0 + np.exp(-2.0 * margins))
        assert predict_scores(model, data) == pytest.approx(expected)


class TestGbm:
    def test_balanced_base_score_zero(self):
        data = numeric_dataset([1, 2, 3, 4], [0, 0, 1, 1])
        model = fit("gbm", data)
        assert model.base_score == 0.0

    def test_unbalanced_base_score(self):
        data = numeric_dataset([1, 2, 3, 4], [0, 1, 1, 1])
        model = fit("gbm", data)
        assert model.base_score == pytest.approx(math.log(3.0))

    def test_zero_rounds_predicts_base_rate(self):
        data = numeric_dataset([1, 2, 3, 4], [0, 1, 1, 1])
        model = fit("gbm", data, replace(default_params("gbm"), n_rounds=0))
        assert predict_scores(model, data) == pytest.approx([0.75] * 4)

    def test_default_learning_rate_is_paper_value(self):
        assert paper_preset("gbm").learning_rate == 0.01

    def test_deviance_non_increasing(self):
        data = synthesize(pcos_default_schema(), 150, 8, 1.5)
        model = fit("gbm", data, replace(default_params("gbm"), n_rounds=30))
        assert len(model.trees) == 30
        assert_non_increasing(prefix_losses(model, data, deviance), 1e-9)


class TestXgb:
    def test_huge_lambda_collapses_to_base_rate(self):
        data = synthesize(pcos_default_schema(), 100, 9, 1.5)
        params = replace(default_params("xgboost"), reg_lambda=1e12, n_rounds=10)
        model = fit("xgboost", data, params)
        base_rate = data.labels.mean()
        assert np.allclose(predict_scores(model, data), base_rate, atol=1e-6)

    def test_missing_values_fit_and_predict(self):
        data = synthesize(pcos_default_schema(), 200, 10, 1.5, missing_rate=0.3)
        model = fit("xgboost", data, replace(default_params("xgboost"), n_rounds=20))
        scores = predict_scores(model, data)
        assert np.isfinite(scores).all()
        assert ((scores >= 0) & (scores <= 1)).all()

    def test_unit_hessians_reproduce_gbm_trees(self):
        data = synthesize(pcos_default_schema(), 120, 11, 1.5)
        params = replace(default_params("xgboost"), n_rounds=8, reg_lambda=0.0, gamma=0.0)
        gbm = _fit_ensemble("gbm", data, params)
        # replay first-order boosting: residual trees fitted with unit hessians
        y = data.labels.astype(float)
        F = np.full(data.n_rows, gbm.base_score)
        for tree in gbm.trees:
            replayed = fit_regression_tree(
                data.values,
                sigmoid(F) - y,
                np.ones(data.n_rows),
                data.schema.kinds,
                max_depth=params.max_depth,
                min_child_weight=params.min_child_weight,
                reg_lambda=params.reg_lambda,
                gamma=params.gamma,
            )
            assert tree_to_dict(replayed) == tree_to_dict(tree)
            F = F + params.learning_rate * replayed.predict(data.values)
        # and the genuine second-order fit differs structurally on this data
        xgb = _fit_ensemble("xgboost", data, params)
        assert [tree_to_dict(t) for t in xgb.trees] != [tree_to_dict(t) for t in gbm.trees]

    def test_deviance_non_increasing(self):
        data = synthesize(pcos_default_schema(), 150, 12, 1.5)
        model = fit("xgboost", data, replace(default_params("xgboost"), n_rounds=30))
        assert len(model.trees) == 30
        assert_non_increasing(prefix_losses(model, data, deviance), 1e-9)


CAT_SCHEMA = FeatureSchema(
    (("color", categorical(5)), ("flag", BINARY), ("small_cat", categorical(2))), "y"
)


def cat_dataset(n=60, seed=0):
    rng = np.random.default_rng(seed)
    color = rng.integers(0, 5, n).astype(float)
    flag = rng.integers(0, 2, n).astype(float)
    small = rng.integers(0, 2, n).astype(float)
    logits = 1.5 * (color - 2) / 2 + flag - 0.5
    labels = (rng.random(n) < 1 / (1 + np.exp(-logits))).astype(np.int64)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    return Dataset(CAT_SCHEMA, np.column_stack([color, flag, small]), labels)


class TestOrderedTargetStats:
    def test_first_row_gets_prior(self):
        levels = np.array([3.0, 3.0, 3.0])
        labels = np.array([1, 0, 1])
        perm = np.array([2, 0, 1])
        enc = ordered_target_stats(levels, labels, perm, 0.5)
        assert enc[2] == 0.5 / 1.0

    def test_two_prior_rows_hand_value(self):
        # row seen after two earlier rows of its level with labels {1, 0}
        levels = np.array([0.0, 0.0, 0.0])
        labels = np.array([1, 0, 0])
        perm = np.array([0, 1, 2])
        enc = ordered_target_stats(levels, labels, perm, 0.5)
        assert enc[2] == (1 + 0.5) / (2 + 1)

    def test_interleaved_levels_hand_values(self):
        # permutation order: row 4 (level 0, label 1), row 1 (level 1, label 0),
        # row 0 (level 0, label 1), row 3 (level 1, label 1), row 2 (level 0)
        levels = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
        labels = np.array([1, 0, 0, 1, 1])
        perm = np.array([4, 1, 0, 3, 2])
        enc = ordered_target_stats(levels, labels, perm, 0.5)
        assert enc.tolist() == [(1 + 0.5) / 2, 0.5 / 1, (2 + 0.5) / 3, (0 + 0.5) / 2, 0.5 / 1]

    def test_leakage_free(self):
        rng = np.random.default_rng(1)
        n = 50
        levels = rng.integers(0, 4, n).astype(float)
        labels = rng.integers(0, 2, n)
        perm = rng.permutation(n)
        base = ordered_target_stats(levels, labels, perm, 0.5)
        for i in range(n):
            flipped = labels.copy()
            flipped[i] = 1 - flipped[i]
            enc = ordered_target_stats(levels, flipped, perm, 0.5)
            assert enc[i] == base[i]


class TestCatBoost:
    def test_one_hot_and_target_modes(self):
        data = cat_dataset()
        model = fit("catboost", data, replace(default_params("catboost"), n_rounds=5))
        modes = {e.feature_index: e.mode for e in model.cat_encoding_state}
        assert modes == {0: "target", 2: "onehot"}  # cardinality 5 vs 2
        target = [e for e in model.cat_encoding_state if e.mode == "target"][0]
        assert len(target.stats) == 5

    def test_unseen_level_encodes_to_prior_fraction(self):
        data = cat_dataset()
        # remove level 4 from training
        values = data.values.copy()
        values[values[:, 0] == 4.0, 0] = 3.0
        train = Dataset(CAT_SCHEMA, values, data.labels)
        model = fit("catboost", train, replace(default_params("catboost"), n_rounds=3))
        target = [e for e in model.cat_encoding_state if e.mode == "target"][0]
        assert target.stats[4] == pytest.approx(model.params.cat_prior / 1.0)

    def test_all_binary_schema_has_empty_encoding_state(self):
        data = synthesize(
            FeatureSchema((("a", BINARY), ("b", BINARY), ("c", BINARY)), "y"), 80, 3, 1.0
        )
        model = fit("catboost", data, replace(default_params("catboost"), n_rounds=5))
        assert model.cat_encoding_state == ()

    def test_deviance_non_increasing(self):
        # the training rows carry ordered target statistics, which scoring
        # does not use, so the loss is taken of the scores the loop summed:
        # base_score plus learning_rate times each round's fitted= outputs,
        # the scores whose gradients the next round fits
        data = cat_dataset(150, 2)
        params = replace(default_params("catboost"), n_rounds=30)
        rounds = []

        def recording_fit_oblivious_tree(X, g, *args, fitted, **kwargs):
            tree = fit_oblivious_tree(X, g, *args, fitted=fitted, **kwargs)
            rounds.append((g.copy(), fitted.copy()))
            return tree

        with mock.patch("boostlab.boost.fit_oblivious_tree", recording_fit_oblivious_tree):
            model = fit("catboost", data, params)
        assert len(rounds) == len(model.trees) == 30
        F = np.full(data.n_rows, model.base_score)
        losses = []
        for g, out in rounds:
            assert g.tobytes() == (sigmoid(F) - data.labels).tobytes()
            F = F + params.learning_rate * out
            losses.append(deviance(data.labels, F))
        assert_non_increasing(losses, 1e-9)

    def test_single_class_raises(self):
        data = numeric_dataset([1, 2], [1, 1])
        with pytest.raises(SingleClassDataset):
            fit("catboost", data)


class TestPredictInterface:
    def test_empty_ensemble_scores_half(self):
        data = numeric_dataset([1, 2, 3, 4], [0, 1, 0, 1])
        model = fit_adaboost(data, replace(default_params("adaboost"), n_rounds=0))
        assert predict_scores(model, data) == pytest.approx([0.5] * 4)
        # boundary convention: score exactly at the threshold maps to label 1
        assert model.params.threshold == 0.5
        assert list(predict_labels(model, data)) == [1, 1, 1, 1]

    @pytest.mark.parametrize("threshold", [7.0, 1.0, 0.0, -0.5, math.nan])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        # predict_labels labels at the model's params.threshold, which BoostParams checks
        model = fit_adaboost(numeric_dataset([1, 2, 3, 4], [0, 0, 1, 1]))
        with pytest.raises(ValueError, match=r"threshold must lie in \(0, 1\)"):
            replace(model.params, threshold=threshold)

    def test_training_rows_on_correct_side(self):
        data = numeric_dataset([1, 2, 3, 4], [0, 0, 1, 1])
        model = fit_adaboost(data)
        scores = predict_scores(model, data)
        assert (scores[2:] > 0.5).all() and (scores[:2] < 0.5).all()

    def test_row_order_invariance(self):
        data = synthesize(pcos_default_schema(), 60, 4, 1.5)
        model = fit("xgboost", data, replace(default_params("xgboost"), n_rounds=5))
        perm = np.random.default_rng(0).permutation(60)
        permuted = data.subset(perm)
        assert predict_scores(model, permuted) == pytest.approx(
            predict_scores(model, data)[perm]
        )

    def test_schema_mismatch(self):
        data = synthesize(pcos_default_schema(), 30, 4, 1.0)
        other = numeric_dataset([1, 2], [0, 1])
        model = fit("gbm", data, replace(default_params("gbm"), n_rounds=2))
        with pytest.raises(SchemaMismatch):
            predict_scores(model, other)


# numpy's Python functions in front of its C reductions and of ndarray methods
# (in numpy/_core/ since numpy 2, numpy/core/ before)
NUMPY_WRAPPERS = ("fromnumeric.py", "_methods.py")


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_fit_and_scoring_enter_no_numpy_wrapper(algorithm):
    """A fit and its scoring call numpy's C reductions and ndarray methods
    directly, not through numpy's Python wrappers, each a frame per call. A
    5-round fit (CatBoost at depth 6) on 80 rows with missing cells and a
    categorical column, and its predict_scores, run under a profiler that
    names the boostlab line each wrapper frame was entered from. The one
    line allowed is CatBoost's draw of its permutation: numpy's compiled
    Generator.permutation calls np.ndim itself."""
    data = synthesize(pcos_default_schema(), 80, 5, 2.0, missing_rate=0.1)
    params = replace(default_params(algorithm), n_rounds=5)
    entered = []

    def profile(frame, event, arg):
        if event == "call" and os.path.basename(frame.f_code.co_filename) in NUMPY_WRAPPERS:
            caller = frame.f_back
            while not caller.f_globals.get("__name__", "").startswith("boostlab."):
                caller = caller.f_back
            line = linecache.getline(caller.f_code.co_filename, caller.f_lineno).strip()
            entered.append(f"{frame.f_code.co_name} from {caller.f_code.co_name}: {line}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        predict_scores(fit(algorithm, data, params), data)
    finally:
        sys.setprofile(previous)
    assert [e for e in entered if ".permutation(" not in e] == []


class TestSerialization:
    @pytest.mark.parametrize("algorithm", ["adaboost", "gbm", "xgboost", "catboost"])
    def test_round_trip_predictions(self, algorithm, tmp_path):
        data = cat_dataset(90, 5)
        params = replace(default_params(algorithm), n_rounds=6)
        model = fit(algorithm, data, params)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(raw_scores(back, data), raw_scores(model, data))
        assert np.array_equal(predict_scores(back, data), predict_scores(model, data))

    def test_oblivious_file_lists_only_nonzero_leaves(self, tmp_path):
        data = synthesize(pcos_default_schema(), 60, 21, 1.5, missing_rate=0.1)
        model = fit("catboost", data, replace(paper_preset("catboost"), n_rounds=2))
        assert max(tree.depth for tree in model.trees) > 8  # most of 2**depth leaves are empty
        path = tmp_path / "model.json"
        save_model(model, path)
        written = json.loads(path.read_text())["trees"]
        for tree, d in zip(model.trees, written, strict=True):
            assert (tree.leaf_values != 0).all()
            assert (np.diff(tree.leaf_ids) > 0).all()
            assert d["leaf_index"] == tree.leaf_ids.tolist()
            assert d["leaf_values"] == tree.leaf_values.tolist()
        assert path.stat().st_size < 100_000
        assert np.array_equal(raw_scores(load_model(path), data), raw_scores(model, data))

    def test_paper_preset_trees_hold_a_leaf_per_row_at_most(self):
        data = SyntheticSpec(n=250).draw(42)
        model = fit("catboost", data, paper_preset("catboost"))
        assert max(tree.depth for tree in model.trees) == 16
        assert all(tree.leaf_ids.size <= data.n_rows for tree in model.trees)

    def test_envelope_fields(self):
        data = cat_dataset(40, 6)
        model = fit("catboost", data, replace(default_params("catboost"), n_rounds=2))
        d = model_to_dict(model)
        assert set(d) == {
            "format_version",
            "algorithm",
            "params",
            "schema",
            "base_score",
            "trees",
            "cat_encoding_state",
        }
        assert d["algorithm"] == "catboost"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_leaf_is_not_saved(self, tmp_path, bad):
        # load_model would reject the file, so save_model opens none, not
        # even its temp file
        data = synthesize(pcos_default_schema(), 60, 14, 1.5)
        model = fit("gbm", data, replace(default_params("gbm"), n_rounds=2))
        tree = model.trees[-1]
        tree.value[tree.leaves()[0]] = bad
        path = tmp_path / "model.json"
        opened = AssertionError("save_model opened a file")
        with mock.patch("boostlab.boost.atomic_write_text", side_effect=opened):
            with pytest.raises(ValueError, match="JSON compliant"):
                save_model(model, path)
        assert list(tmp_path.iterdir()) == []

    def test_bit_identical_refit(self):
        data = synthesize(pcos_default_schema(), 100, 13, 1.5)
        for algorithm in ("adaboost", "gbm", "xgboost", "catboost"):
            params = replace(default_params(algorithm), n_rounds=4)
            a = model_to_dict(fit(algorithm, data, params))
            b = model_to_dict(fit(algorithm, data, params))
            assert a == b


DELETED = object()

# the encoding of the default schema's activity_level (column 11) in a catboost file
CATBOOST_ENCODING = {"feature_index": 11, "mode": "target", "cardinality": 3, "stats": [0.5, 0.5, 0.5]}

# one tree of each kind that reads the default schema's 12 columns
REGRESSION_TREE = {"kind": "regression", "n_features": 12, "nodes": [{"value": 0.5}]}
OBLIVIOUS_TREE = {"kind": "oblivious", "n_features": 12, "levels": [], "leaf_index": [0], "leaf_values": [0.5]}
STUMP = {"kind": "stump", "feature_index": 0, "threshold": 0.5, "left_class": -1, "right_class": 1}


def _set_path(d, path, value):
    """d with the entry at the key/index path replaced by value, or deleted
    when value is DELETED (in place)."""
    for key in path[:-1]:
        d = d[key]
    if value is DELETED:
        del d[path[-1]]
    else:
        d[path[-1]] = value


class TestMalformedModel:
    def model_dict(self, algorithm):
        data = synthesize(pcos_default_schema(), 60, 14, 1.5)
        params = replace(default_params(algorithm), n_rounds=2, max_depth=2)
        return model_to_dict(fit(algorithm, data, params))

    def test_other_format_version_rejected(self):
        d = self.model_dict("gbm")
        d["format_version"] = 99
        with pytest.raises(MalformedModel, match="format_version 99"):
            model_from_dict(d)

    def test_trees_not_a_list_rejected(self):
        d = self.model_dict("xgboost")
        d["trees"] = {"0": d["trees"][0]}
        with pytest.raises(MalformedModel, match="trees must be a list"):
            model_from_dict(d)

    def test_format_1_rejected(self):
        d = self.model_dict("catboost")
        d["format_version"] = 1
        with pytest.raises(MalformedModel, match="format_version 1"):
            model_from_dict(d)

    @pytest.mark.parametrize("split", [STUMP, {**STUMP, "feature_index": 11}], ids=["numeric", "categorical-column"])
    def test_adaboost_rounds_listed_as_stumps_rejected(self, split):
        # AdaBoost files once listed their rounds as stumps; column 11 of the
        # default schema is the categorical activity_level
        d = self.model_dict("adaboost")
        d["stumps"] = [{"stump": split, "alpha": 0.5}]
        del d["trees"]
        with pytest.raises(MalformedModel, match="missing key 'trees'"):
            model_from_dict(d)

    @pytest.mark.parametrize(
        "algorithm, path, value",
        [
            ("adaboost", ("trees", 0, "levels", 0, "feature_index"), 12),
            ("adaboost", ("trees", 0, "levels", 0, "feature_index"), -1),
            ("gbm", ("trees", 0, "n_features"), 13),
            ("gbm", ("params", "n_rounds"), "many"),
            ("xgboost", ("schema", "columns", 0, "kind"), "ordinal"),
            ("catboost", ("trees", 0, "levels", 0, "feature_index"), 12),
            ("catboost", ("trees", 0, "leaf_values"), [0.0]),
            ("catboost", ("cat_encoding_state", 0, "mode"), "bogus"),
            ("catboost", ("cat_encoding_state", 0, "stats"), [0.5]),
            ("catboost", ("cat_encoding_state", 0, "feature_index"), 0),
            ("xgboost", ("trees", 0, "nodes", 0, "right"), -1),
            ("xgboost", ("trees", 0, "nodes", 0, "right"), True),
            ("xgboost", ("trees", 0, "nodes", 0, "right"), 0),
            ("xgboost", ("trees", 0, "nodes", 0, "right"), 99),
            ("xgboost", ("trees", 0, "nodes", 0, "feature_index"), True),
            ("adaboost", ("trees", 0, "levels", 0, "feature_index"), True),
            ("xgboost", ("trees", 0, "nodes", 0, "default_direction"), "up"),
            ("xgboost", ("trees", 0, "nodes", 0, "threshold"), True),
            ("xgboost", ("trees", 0, "nodes", 2, "value"), True),
            ("xgboost", ("trees", 0, "nodes", 0, "threshold"), {"levels": [True]}),
            ("xgboost", ("trees", 0, "nodes", 0, "threshold"), {"levels": [1.5]}),
            # a one-level tree's leaves are 0 and 1
            ("adaboost", ("trees", 0, "leaf_index", 0), 5),
            # tree 0 of this catboost model has depth 2 and leaf_index [0, 1, 2, 3]
            ("catboost", ("trees", 0, "leaf_index", 0), 4),
            ("catboost", ("trees", 0, "leaf_index", 1), 0),
            ("catboost", ("trees", 0, "leaf_index"), [0, 2, 1, 3]),
            ("catboost", ("trees", 0, "leaf_index", 0), True),
            ("catboost", ("trees", 0, "leaf_index"), [0, 1, 2]),
            # deeper than MAX_OBLIVIOUS_DEPTH
            ("catboost", ("trees", 0, "levels"), [{"feature_index": 0, "threshold": 0.5}] * 55),
            # envelope fields: a bool is not a number, a float is not an int
            ("adaboost", ("trees", 0, "leaf_values", 0), True),
            ("gbm", ("base_score",), "0.5"),
            ("gbm", ("params", "learning_rate"), True),
            ("xgboost", ("params", "n_rounds"), 2.5),
            ("catboost", ("cat_encoding_state", 0, "feature_index"), 11.0),
            ("catboost", ("cat_encoding_state", 0, "cardinality"), 3.0),
            ("catboost", ("cat_encoding_state", 0, "stats"), ["0.5", 0.5, 0.5]),
            ("catboost", ("cat_encoding_state", 0, "stats"), [True, 0.5, 0.5]),
            # column 11 of the default schema is the categorical activity_level
            ("xgboost", ("schema", "columns", 11, "cardinality"), 2.5),
            # a default learning_rate would change the scores without an error
            ("gbm", ("params", "learning_rate"), DELETED),
            # a catboost model has one encoding per categorical column, any other none
            ("catboost", ("cat_encoding_state",), []),
            ("catboost", ("cat_encoding_state",), None),
            ("gbm", ("cat_encoding_state",), [CATBOOST_ENCODING]),
            ("xgboost", ("cat_encoding_state",), []),
            ("catboost", ("cat_encoding_state", 0, "stats"), None),
            ("gbm", ("schema", "columns", 0, "name"), 5),
            ("gbm", ("schema", "label_column"), 5),
            ("gbm", ("trees", 0, "n_features"), 12.0),
            # a number must be finite: JSON's NaN and Infinity, and an int
            # literal beyond the float range
            ("gbm", ("base_score",), math.inf),
            ("catboost", ("trees", 0, "leaf_values", 0), math.nan),
            pytest.param("gbm", ("base_score",), 10**400, id="gbm-int-base_score-beyond-float"),
            # a tree of another kind than its algorithm's, which would load and
            # then fail at predict
            pytest.param("catboost", ("trees", 0), REGRESSION_TREE, id="catboost-regression-tree"),
            pytest.param("adaboost", ("trees", 0), REGRESSION_TREE, id="adaboost-regression-tree"),
            pytest.param("gbm", ("trees", 0), OBLIVIOUS_TREE, id="gbm-oblivious-tree"),
            pytest.param("xgboost", ("trees", 0), OBLIVIOUS_TREE, id="xgboost-oblivious-tree"),
            pytest.param("gbm", ("trees", 0), STUMP, id="gbm-stump"),
            pytest.param("catboost", ("trees", 0), STUMP, id="catboost-stump"),
            pytest.param("adaboost", ("trees", 0), STUMP, id="adaboost-stump"),
            # CatBoost's trees split its encoded matrix, where column 11 holds numbers
            ("catboost", ("trees", 0, "levels", 0), {"feature_index": 11, "threshold": {"levels": [0]}}),
            # params plan a one-hot encoding of the 3-level column 11, the file holds a target one
            ("catboost", ("params", "cat_one_hot_max"), 3),
        ],
    )
    def test_bad_entry_rejected(self, algorithm, path, value):
        d = self.model_dict(algorithm)
        _set_path(d, path, value)
        with pytest.raises(MalformedModel):
            model_from_dict(d)

    @pytest.mark.parametrize("cat_one_hot_max", [2, 5])
    def test_encodings_out_of_column_order_rejected(self, cat_one_hot_max):
        # CAT_SCHEMA's categorical columns 0 and 2: target and one-hot at 2, both one-hot at 5
        params = replace(default_params("catboost"), n_rounds=2, cat_one_hot_max=cat_one_hot_max)
        d = model_to_dict(fit("catboost", cat_dataset(), params))
        assert [e["feature_index"] for e in d["cat_encoding_state"]] == [0, 2]
        assert model_to_dict(model_from_dict(d)) == d
        d["cat_encoding_state"].reverse()
        with pytest.raises(MalformedModel, match="as params plan it"):
            model_from_dict(d)

    def test_oblivious_trees_load_up_to_max_depth(self):
        d = self.model_dict("catboost")
        level = d["trees"][0]["levels"][0]
        d["trees"][0]["levels"] = [level] * MAX_OBLIVIOUS_DEPTH
        assert model_from_dict(d).trees[0].depth == MAX_OBLIVIOUS_DEPTH == 16
        d["trees"][0]["levels"] = [level] * (MAX_OBLIVIOUS_DEPTH + 1)
        with pytest.raises(MalformedModel, match="17 levels"):
            model_from_dict(d)

    @pytest.mark.parametrize(
        "split, message",
        [
            # column 11 of the default schema is the categorical activity_level, column 0 the numeric age
            ({"feature_index": 11, "threshold": 0.5}, "a split on column 11 must test a level set"),
            ({"feature_index": 0, "threshold": {"levels": [0]}}, "a split on column 0 must test a number"),
        ],
    )
    def test_a_split_whose_test_does_not_fit_its_column_is_named(self, split, message):
        d = self.model_dict("gbm")
        node = {**split, "default_direction": "left", "left": 1, "right": 2}
        d["trees"][0] = {**REGRESSION_TREE, "nodes": [node, {"value": 0.1}, {"value": -0.1}]}
        with pytest.raises(MalformedModel, match=message):
            model_from_dict(d)
        d["trees"][0]["nodes"][0]["threshold"] = {"levels": [0]} if "level set" in message else 0.5
        model_from_dict(d)  # loads with the test its column takes

    def test_missing_key_named(self):
        d = self.model_dict("catboost")
        del d["trees"]
        with pytest.raises(MalformedModel, match="missing key 'trees'"):
            model_from_dict(d)

    def test_bad_json_names_the_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{")
        with pytest.raises(MalformedModel, match="model.json"):
            load_model(path)

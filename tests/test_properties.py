"""Property tests on small random datasets: persistence, determinism, typed
model reading, stump error (exactly zero on separable rows), AdaBoost scores
as stump sums, GBM and XGBoost scores against a per-node oracle and their
boosting loop's sums, oblivious levels and leaves, fitted models and trees
against their reloaded copies field for field, the fields a fit does not
read, AUC, CSV schema inference, the CSV tokenizer against the csv
module, the CSV byte path's number parser against float(), the CSV readers
against a row-by-row oracle, the bytes of the curve and score writers, eval's
read of a scores file as predict writes it, the exit codes of the commands on
input files with edited bytes, fits at extreme params, sigmoid, the gain
score and CatBoost's ordered target statistics against the formulas they
replaced and the sums of complex pairs against float sums, bit for bit; and
that a failing property is reported under this repository's pytest settings."""

import csv
import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, is_dataclass, replace
from functools import cache
from pathlib import Path
from unittest import mock

import csv_reader_oracle
import numpy as np
import regression_predict_oracle
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from boostlab import cli
from boostlab.boost import (
    ALGORITHMS,
    BoostParams,
    default_params,
    fit,
    load_model,
    model_from_dict,
    model_to_dict,
    ordered_target_stats,
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
    _decimals,
    categorical,
    infer_schema,
    load_csv,
    load_features_csv,
    load_labels_csv,
    pcos_default_schema,
    read_csv_table,
    synthesize,
    write_csv,
)
from boostlab.errors import BoostlabError, MalformedCsv, MalformedModel, NonFiniteScores, SchemaMismatch
from boostlab.metrics import CurveSeries, curve_to_csv, format_6f, roc_curve
from boostlab.tree import (
    _TIE_TOL,
    _pair,
    _safe_score,
    fit_oblivious_tree,
    fit_regression_tree,
    fit_stump,
    predict_stump,
    tree_from_dict,
    tree_to_dict,
)

SCHEMA = FeatureSchema(
    (("x", NUMERIC), ("flag", BINARY), ("level", categorical(3)), ("pair", categorical(2))), "y"
)

FEW = settings(max_examples=12, deadline=None)


def dataset_from(seed, n):
    """n rows of every feature kind, some numeric cells missing, both classes present."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n).round(1)
    x[rng.random(n) < 0.15] = np.nan
    values = np.column_stack(
        [x, rng.integers(0, 2, n), rng.integers(0, 3, n), rng.integers(0, 2, n)]
    ).astype(float)
    labels = rng.integers(0, 2, n)
    labels[:2] = (0, 1)
    return Dataset(SCHEMA, values, labels)


@st.composite
def datasets(draw):
    """8-40 rows of dataset_from."""
    n = draw(st.integers(8, 40))
    return dataset_from(draw(st.integers(0, 2**32 - 1)), n)


def small_params(algorithm):
    params = default_params(algorithm)
    return replace(params, n_rounds=3, max_depth=min(3, params.max_depth))


@FEW
@given(data=datasets(), algorithm=st.sampled_from(ALGORITHMS))
@example(data=dataset_from(5, 40), algorithm="adaboost")
@example(data=dataset_from(5, 40), algorithm="gbm")
@example(data=dataset_from(5, 40), algorithm="xgboost")
@example(data=dataset_from(5, 40), algorithm="catboost")
def test_save_load_gives_identical_scores(tmp_path_factory, data, algorithm):
    model = fit(algorithm, data, small_params(algorithm))
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(model, path)
    compact = json.dumps(model_to_dict(model), separators=(",", ":"), allow_nan=False)
    assert path.read_text(encoding="utf-8") == compact + "\n"
    scores = predict_scores(model, data)
    loaded = load_model(path)
    assert np.array_equal(predict_scores(loaded, data), scores)
    # save, load, save is a fixed point: the loaded model writes the same bytes
    again = path.with_name("again.json")
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    # The reader takes any JSON layout, such as the indented files once written.
    indented = path.with_name("indented.json")
    indented.write_text(json.dumps(json.loads(compact), indent=2) + "\n", encoding="utf-8")
    assert np.array_equal(predict_scores(load_model(indented), data), scores)


@FEW
@given(data=datasets(), algorithm=st.sampled_from(ALGORITHMS))
def test_refit_gives_identical_model_json(data, algorithm):
    params = small_params(algorithm)
    first = model_to_dict(fit(algorithm, data, params))
    assert model_to_dict(fit(algorithm, data, params)) == first


def json_leaves(node, path=()):
    """(path, value) of every scalar in a JSON document, path the keys and
    indices that lead to it."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from json_leaves(child, (*path, key))
    else:
        yield path, node


# Values of another JSON type: a bool, a string or null for a number; a
# number, a bool or null for a string; anything else for a (documented) null.
# A number may also become NaN or an infinity, which JSON's reader accepts.
NUMBERS, STRINGS = [0, 1, -1, 2.5], ["", "1", "left"]
OTHER_TYPES = {
    "number": [True, False, *STRINGS, None, math.nan, math.inf, -math.inf],
    "string": [*NUMBERS, True, False, None],
    "null": [*NUMBERS, *STRINGS, True, False],
}


@cache
def saved_model(tmp_dir, algorithm):
    """The text of a small saved model and every scalar in it. The data have
    missing cells, and a categorical column that AdaBoost, GBM and XGBoost
    split on at this seed."""
    data = synthesize(pcos_default_schema(), 60, 32, 1.5, missing_rate=0.1)
    path = tmp_dir / f"{algorithm}.json"
    save_model(fit(algorithm, data, small_params(algorithm)), path)
    text = path.read_text()
    return text, list(json_leaves(json.loads(text)))


@settings(max_examples=400, deadline=None)
@given(algorithm=st.sampled_from(ALGORITHMS), draw=st.data())
def test_a_leaf_of_another_type_is_malformed(tmp_path_factory, algorithm, draw):
    text, leaves = saved_model(tmp_path_factory.getbasetemp(), algorithm)
    path, value = draw.draw(st.sampled_from(leaves), label="leaf")
    kind = "null" if value is None else "string" if isinstance(value, str) else "number"
    d = json.loads(text)
    entry = d
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = draw.draw(st.sampled_from(OTHER_TYPES[kind]), label="replacement")
    with pytest.raises(MalformedModel):
        model_from_dict(d)


def json_nodes(node, path=()):
    """(path, value) of every value below the root of a JSON document,
    containers included, path the keys and indices that lead to it."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield (*path, key), child
            yield from json_nodes(child, (*path, key))


# A field's value is swapped for one of another JSON type: a container for a
# scalar or the other container, a number for no finite number of its own
# type (so an int may become 2.5, a float only NaN or an infinity). A string
# may become another string too, one that no enumerated field takes.
SWAPS = [None, True, -1, 2.5, math.nan, math.inf, "", "x", [], {}]


def swaps(value):
    def same_type(swap):
        if isinstance(value, str):
            return False
        if isinstance(value, float):
            return type(swap) in (int, float) and math.isfinite(swap)
        return type(swap) is type(value)

    return [swap for swap in SWAPS if not same_type(swap)]


@settings(max_examples=400, deadline=None)
@given(algorithm=st.sampled_from(ALGORITHMS), draw=st.data())
def test_a_single_field_mutation_is_malformed_or_a_renamed_column(tmp_path_factory, algorithm, draw):
    # Every field of the dict, containers included: its value swapped, or its
    # key deleted. A feature column renamed to another string gives a schema
    # the reader accepts, and scoring the training data raises SchemaMismatch;
    # the label column renamed changes no score, since scoring reads no label.
    text, _ = saved_model(tmp_path_factory.getbasetemp(), algorithm)
    d = json.loads(text)
    path, value = draw.draw(st.sampled_from(list(json_nodes(d))), label="field")
    entry = d
    for key in path[:-1]:
        entry = entry[key]
    deletion = [] if isinstance(entry, list) else ["delete"]
    mutation = draw.draw(st.sampled_from(deletion + [("swap", s) for s in swaps(value)]), label="mutation")
    if mutation == "delete":
        del entry[path[-1]]
    else:
        entry[path[-1]] = mutation[1]
    renamed = mutation != "delete" and isinstance(mutation[1], str)
    data = synthesize(pcos_default_schema(), 60, 32, 1.5, missing_rate=0.1)
    if renamed and path[:2] == ("schema", "columns") and path[-1] == "name":
        with pytest.raises(SchemaMismatch):
            predict_scores(model_from_dict(d), data)
    elif renamed and path == ("schema", "label_column"):
        original = model_from_dict(json.loads(text))
        assert np.array_equal(predict_scores(model_from_dict(d), data), predict_scores(original, data))
    else:
        with pytest.raises(MalformedModel):
            model_from_dict(d)


@settings(max_examples=60, deadline=None)
@given(data=datasets(), weight_seed=st.integers(0, 2**32 - 1))
def test_stump_error_is_misclassified_weight(data, weight_seed):
    # NaN goes left on every column, the categorical ones too
    X = data.values.copy()
    rng = np.random.default_rng(weight_seed)
    X[rng.random(data.n_rows) < 0.2, 2] = np.nan
    y = 2 * data.labels - 1
    w = rng.dirichlet(np.ones(data.n_rows))
    stump, err = fit_stump(X, y, w, SCHEMA.kinds)
    assert err == w[predict_stump(stump, X) != y].sum()  # bit for bit
    assert 0.0 <= err <= 0.5 + _TIE_TOL


@settings(max_examples=60, deadline=None)
@given(
    data=datasets(),
    column=st.integers(0, 3),
    at=st.integers(0, 2**32 - 1),
    flip=st.booleans(),
    weight_seed=st.integers(0, 2**32 - 1),
)
def test_a_stump_that_separates_the_rows_errs_on_zero_weight(data, column, at, flip, weight_seed):
    # labels that one test on one column separates, a missing cell on the
    # left as a stump sends it: the error is exactly zero, although the
    # weights sum to 1 only up to rounding
    X = data.values
    cells = X[:, column]
    observed = np.unique(cells[~np.isnan(cells)])
    cut = observed[at % observed.size]
    left = np.isnan(cells) | ((cells == cut) if SCHEMA.kinds[column].is_categorical else (cells <= cut))
    assume(left.any() and not left.all())
    y = np.where(left == flip, 1, -1)
    w = np.random.default_rng(weight_seed).dirichlet(np.ones(data.n_rows))
    stump, err = fit_stump(X, y, w, SCHEMA.kinds)
    assert err == 0.0
    assert (predict_stump(stump, X) == y).all()


@settings(max_examples=60, deadline=None)
@given(data=datasets(), held_out=datasets(), n_rounds=st.integers(0, 20))
def test_adaboost_scores_are_its_stumps_alpha_weighted(data, held_out, n_rounds):
    # An AdaBoost round is scored as a one-level oblivious tree; its sum must
    # be, bit for bit, that of alpha * predict_stump over the fit's stumps, on
    # rows with missing numeric cells and on stumps of categorical columns.
    rounds = []

    def recording_fit_stump(*args, **kwargs):
        stump, eps = fit_stump(*args, **kwargs)
        rounds.append((stump, eps))
        return stump, eps

    with mock.patch("boostlab.boost.fit_stump", recording_fit_stump):
        model = fit("adaboost", data, replace(default_params("adaboost"), n_rounds=n_rounds))
    eps0 = 1.0 / (2.0 * data.n_rows)
    for rows in (data, held_out):
        margins = np.zeros(rows.n_rows)
        for stump, eps in rounds:
            if eps >= 0.5:  # the fit stops without this stump
                break
            e = eps0 if eps <= 0.0 else eps
            margins = margins + 0.5 * math.log((1.0 - e) / e) * predict_stump(stump, rows.values)
        assert raw_scores(model, rows).tobytes() == margins.tobytes()


def fit_regression_ensemble(algorithm, data, params):
    """The model, and the training rows' raw scores as its boosting loop
    summed them: base_score plus learning_rate times the outputs each round's
    fit_regression_tree wrote (fitted=). Each round's gradients must be those
    of the scores summed before it, bit for bit, so these are the loop's
    own scores."""
    rounds = []

    def recording_fit_regression_tree(X, g, *args, fitted, **kwargs):
        tree = fit_regression_tree(X, g, *args, fitted=fitted, **kwargs)
        rounds.append((g.copy(), fitted.copy()))
        return tree

    with mock.patch("boostlab.boost.fit_regression_tree", recording_fit_regression_tree):
        model = fit(algorithm, data, params)
    y = data.labels.astype(np.float64)
    F = np.full(data.n_rows, model.base_score)
    for g, out in rounds:
        assert g.tobytes() == (sigmoid(F) - y).tobytes()
        F = F + params.learning_rate * out
    return model, F


def assert_scores_equal_the_oracle(algorithm, data, held_out, params, leaf_seed):
    """raw_scores of the fitted model equal, on the training rows, the scores
    its boosting loop summed; and they equal, with a drawn leaf set to -0.0
    and a tree of one leaf -0.0 appended too, the per-node oracle's
    tree-order sum, on the training rows and on held-out rows; all bit for
    bit. Returns the model."""
    model, loop_scores = fit_regression_ensemble(algorithm, data, params)
    assert raw_scores(model, data).tobytes() == loop_scores.tobytes()
    rng = np.random.default_rng(leaf_seed)
    trees = [replace(tree, value=tree.value.copy()) for tree in model.trees]
    if trees:
        tree = trees[rng.integers(len(trees))]
        tree.value[rng.choice(tree.leaves())] = -0.0
    leaf = {"kind": "regression", "n_features": 4, "nodes": [{"value": -0.0}]}
    trees.append(tree_from_dict(leaf, model.schema.kinds))
    for m in (model, replace(model, trees=trees)):
        for rows in (data, held_out):
            assert raw_scores(m, rows).tobytes() == regression_predict_oracle.raw_scores(m, rows).tobytes()
    return model


@settings(max_examples=60, deadline=None)
@given(
    data=datasets(),
    held_out=datasets(),
    algorithm=st.sampled_from(("gbm", "xgboost")),
    n_rounds=st.integers(0, 8),
    max_depth=st.integers(1, 4),
    gamma=st.sampled_from((0.0, 0.05, 50.0)),
    leaf_seed=st.integers(0, 2**32 - 1),
)
def test_regression_scores_equal_the_per_node_oracle(
    data, held_out, algorithm, n_rounds, max_depth, gamma, leaf_seed
):
    # a gamma of 50 leaves every tree a single leaf
    params = replace(default_params(algorithm), n_rounds=n_rounds, max_depth=max_depth, gamma=gamma)
    assert_scores_equal_the_oracle(algorithm, data, held_out, params, leaf_seed)


def test_the_oracle_property_meets_every_kind_of_node():
    # what the property above draws: splits on a categorical column, both
    # default directions on a column with missing rows, and trees of one leaf
    seen = set()
    for seed in range(8):
        data, held_out = dataset_from(seed, 40), dataset_from(seed + 100, 25)
        for algorithm in ("gbm", "xgboost"):
            for gamma in (0.0, 50.0):
                params = replace(default_params(algorithm), n_rounds=6, gamma=gamma)
                model = assert_scores_equal_the_oracle(algorithm, data, held_out, params, seed)
                for tree in model.trees:
                    if tree.feature.size == 1:
                        seen.add("one leaf")
                    for f, default_left in zip(tree.feature, tree.default_left):
                        if f == 0:  # the column with missing cells
                            seen.add(f"missing {'left' if default_left else 'right'}")
                        elif f >= 0 and SCHEMA.kinds[f].is_categorical:
                            seen.add("categorical")
    assert seen == {"one leaf", "categorical", "missing left", "missing right"}


# Up to the float range, with 0 and the least subnormal as likely draws.
EXTREMES = st.sampled_from((0.0, 5e-324, 1e308)) | st.floats(0.0, 1e308)


@settings(max_examples=100, deadline=None)
@given(
    algorithm=st.sampled_from(ALGORITHMS),
    n_rounds=st.integers(1, 3),
    learning_rate=st.sampled_from((5e-324, 1e132, sys.float_info.max)) | st.floats(5e-324, sys.float_info.max),
    max_depth=st.integers(1, 16),
    reg_lambda=EXTREMES,
    gamma=EXTREMES,
    min_child_weight=EXTREMES,
)
# zero hessians after round 1 and a subnormal lambda: a level gain overflowed
# and the CatBoost fit failed with an IndexError
@example(
    algorithm="catboost",
    n_rounds=2,
    learning_rate=1e132,
    max_depth=3,
    reg_lambda=5e-324,
    gamma=0.0,
    min_child_weight=1.0,
)
def test_extreme_params_give_finite_scores_or_non_finite_scores(algorithm, **drawn):
    # the data of `synth --n 40 --seed 3 --missing-rate 0.2`; a numpy warning
    # fails the test too (the pytest settings turn warnings into errors)
    data = synthesize(pcos_default_schema(), 40, 3, 2.0, 0.2)
    try:
        scores = predict_scores(fit(algorithm, data, BoostParams(**drawn)), data)
    except NonFiniteScores:
        return
    assert np.isfinite(scores).all() and ((scores >= 0) & (scores <= 1)).all()


@settings(max_examples=60, deadline=None)
@given(data=datasets(), grad_seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 10))
def test_every_oblivious_level_splits_a_bucket(data, grad_seed, depth):
    # gradients and hessians of one logistic boosting round; deep trees run
    # out of buckets to split long before their depth
    p = np.random.default_rng(grad_seed).uniform(0.05, 0.95, data.n_rows)
    g, h = p - data.labels, p * (1 - p)
    tree = fit_oblivious_tree(data.values, g, h, SCHEMA.kinds, depth=depth, reg_lambda=1.0)
    leaf = tree.leaf_index(data.values)
    for level in range(tree.depth):
        bucket = leaf >> (tree.depth - level)  # the row's bucket above this level
        right = (leaf >> (tree.depth - level - 1)) & 1
        assert any(np.unique(right[bucket == b]).size == 2 for b in np.unique(bucket))


def assert_identical(got, want, where="model"):
    """got is want field for field: a dataclass by its fields, a list or tuple
    item by item, an array by its dtype and shape, then item by item if it
    holds objects, else bit for bit, and a float bit for bit."""
    assert type(got) is type(want), where
    if is_dataclass(got):
        for f in fields(got):
            assert_identical(getattr(got, f.name), getattr(want, f.name), f"{where}.{f.name}")
    elif isinstance(got, (list, tuple)):
        assert len(got) == len(want), where
        for k, (a, b) in enumerate(zip(got, want)):
            assert_identical(a, b, f"{where}[{k}]")
    elif isinstance(got, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape), where
        if got.dtype == object:
            assert_identical(got.tolist(), want.tolist(), where)
        else:
            assert got.tobytes() == want.tobytes(), where
    elif isinstance(got, float):
        assert got.hex() == want.hex(), where
    else:
        assert got == want, where


@settings(max_examples=60, deadline=None)
@given(
    data=datasets(),
    fitted=st.sampled_from([(a, {}) for a in ALGORITHMS] + [("catboost", {"cat_one_hot_max": 3})]),
)
@example(data=dataset_from(5, 40), fitted=("gbm", {}))
@example(data=dataset_from(5, 40), fitted=("xgboost", {}))
def test_a_fitted_model_is_its_loaded_model(data, fitted):
    # one-hot CatBoost: every categorical column of SCHEMA one-hot encoded
    algorithm, changes = fitted
    model = fit(algorithm, data, replace(small_params(algorithm), **changes))
    assert_identical(model_from_dict(json.loads(json.dumps(model_to_dict(model)))), model)


NUMPY_INTS = st.sampled_from((np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint32))


def numpy_ints(low, high):
    """An integer in [low, high] as one of several numpy integer types."""
    return st.tuples(NUMPY_INTS, st.integers(low, high)).map(lambda t: t[0](t[1]))


def ints_or_floats(low, high):
    """A number in [low, high]: a Python int, a float or a numpy float32."""
    return st.integers(low, high) | st.floats(low, high) | st.floats(low, high).map(np.float32)


@settings(max_examples=30, deadline=None)
@given(
    n_rounds=numpy_ints(2, 2),
    learning_rate=ints_or_floats(1, 2) | st.floats(0.01, 1.0),
    max_depth=numpy_ints(1, 3),
    reg_lambda=ints_or_floats(0, 3),
    gamma=ints_or_floats(0, 1),
    min_child_weight=ints_or_floats(0, 2),
    seed=numpy_ints(0, 127),
    cat_one_hot_max=numpy_ints(1, 4),
    cat_prior=st.floats(0.05, 0.95) | st.floats(0.05, 0.95).map(np.float32),
    threshold=st.floats(0.05, 0.95),
)
# an int learning_rate saved as 1 and re-saved as 1.0; a numpy int n_rounds
# trained, then failed to save
@example(
    n_rounds=np.int64(2), learning_rate=1, max_depth=np.int64(2), reg_lambda=1, gamma=0, min_child_weight=1,
    seed=np.int64(42), cat_one_hot_max=np.int64(2), cat_prior=0.5, threshold=0.5,
)
def test_params_of_any_number_type_round_trip_through_a_model_file(tmp_path_factory, **drawn):
    # an int field stores a numpy integer as int, a float field an int or a
    # numpy float as float, so the saved file loads to the params fitted and
    # saves again to the same bytes
    params = BoostParams(**drawn)
    assert {f.name: type(getattr(params, f.name)) for f in fields(params)} == {
        f.name: {"int": int, "float": float}[f.type] for f in fields(params)
    }
    data = dataset_from(5, 30)
    tmp = tmp_path_factory.mktemp("params")
    for algorithm in ALGORITHMS:
        model = fit(algorithm, data, params)
        path, again = tmp / f"{algorithm}.json", tmp / f"{algorithm}-again.json"
        save_model(model, path)
        loaded = load_model(path)
        assert_identical(loaded.params, model.params, f"{algorithm}.params")
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()


# The BoostParams fields each algorithm's fit reads (see BoostParams), and
# another valid value of each field
FIT_READS = {
    "adaboost": {"n_rounds"},
    "gbm": {"n_rounds", "learning_rate", "max_depth", "reg_lambda", "gamma", "min_child_weight"},
    "xgboost": {"n_rounds", "learning_rate", "max_depth", "reg_lambda", "gamma", "min_child_weight"},
    "catboost": {"n_rounds", "learning_rate", "max_depth", "reg_lambda", "seed", "cat_one_hot_max", "cat_prior"},
}
OTHER_VALUES = {
    "n_rounds": 2, "learning_rate": 0.3, "max_depth": 2, "reg_lambda": 0.5, "gamma": 0.25,
    "min_child_weight": 0.5, "seed": 7, "cat_one_hot_max": 3, "cat_prior": 0.25, "threshold": 0.3,
}


@pytest.mark.parametrize(
    "algorithm, name",
    [(a, name) for a in ALGORITHMS for name in OTHER_VALUES if name not in FIT_READS[a]],
)
def test_a_field_the_fit_does_not_read_changes_no_tree(algorithm, name):
    data = dataset_from(5, 40)
    params = small_params(algorithm)
    assert getattr(params, name) != OTHER_VALUES[name]
    want = fit(algorithm, data, params)
    got = fit(algorithm, data, replace(params, **{name: OTHER_VALUES[name]}))
    assert_identical(
        (got.base_score, got.cat_encoding_state, got.trees), (want.base_score, want.cat_encoding_state, want.trees)
    )


@settings(max_examples=60, deadline=None)
@given(data=datasets(), grad_seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 10))
def test_oblivious_tree_loads_as_fitted(data, grad_seed, depth):
    p = np.random.default_rng(grad_seed).uniform(0.05, 0.95, data.n_rows)
    g, h = p - data.labels, p * (1 - p)
    tree = fit_oblivious_tree(data.values, g, h, SCHEMA.kinds, depth=depth, reg_lambda=1.0)
    assert_identical(tree_from_dict(json.loads(json.dumps(tree_to_dict(tree))), SCHEMA.kinds), tree)


@settings(max_examples=60, deadline=None)
@given(data=datasets(), grad_seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 6))
def test_regression_tree_loads_as_fitted(data, grad_seed, depth):
    # the fit and the reader lay the nodes out alike, a split node's value 0.0
    p = np.random.default_rng(grad_seed).uniform(0.05, 0.95, data.n_rows)
    g, h = p - data.labels, p * (1 - p)
    tree = fit_regression_tree(data.values, g, h, SCHEMA.kinds, max_depth=depth, reg_lambda=1.0)
    assert_identical(tree_from_dict(json.loads(json.dumps(tree_to_dict(tree))), SCHEMA.kinds), tree)


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 1)), min_size=2, max_size=40).filter(
        lambda ps: {t for _, t in ps} == {0, 1}
    )
)
def test_roc_auc_is_mann_whitney_with_half_ties(pairs):
    # few distinct scores, so ties across the classes are common
    scores = np.array([s / 5 for s, _ in pairs])
    truth = np.array([t for _, t in pairs])
    pos, neg = scores[truth == 1], scores[truth == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    assert roc_curve(scores, truth).auc == pytest.approx(wins / (pos.size * neg.size), abs=1e-12)


@FEW
@given(
    n=st.integers(20, 80),
    seed=st.integers(0, 2**32 - 1),
    missing_rate=st.sampled_from([0.0, 0.1, 0.5]),
)
def test_inferring_while_loading_equals_inferring_first(tmp_path_factory, n, seed, missing_rate):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    write_csv(path, synthesize(pcos_default_schema(), n, seed, 1.0, missing_rate))
    one_pass = load_csv(path, label_column="pcos")
    two_pass = load_csv(path, infer_schema(path, "pcos"))
    assert one_pass.schema == two_pass.schema
    assert np.array_equal(one_pass.values, two_pass.values, equal_nan=True)
    assert np.array_equal(one_pass.labels, two_pass.labels, equal_nan=True)


# Cell texts: valid for each kind, then any text, valid or not: unparsable,
# missing, non-finite or out of range for some kind. EDGE_TOKENS, among the
# numeric ones too, lie at the edges of the byte path's number grammar: some
# in it, some just outside it but read by float() (16 or 17 digits), and "-"
# and "." that no kind reads.
EDGE_TOKENS = (
    "-0", "-0.0", "00", "01", ".5", "5.", "-.5", "-", ".", "123456789012345", "1234567890123456", "0.1234567890123456"
)
VALID_TOKENS = {
    "numeric": ("0", "1", "2.5", "-1", "1e3", "", "NA") + EDGE_TOKENS,
    "binary": ("0", "1"),
    "categorical": ("0", "1", "2"),
}
CELL_TOKENS = (
    "0", "1", "2", "9", "10", "-1", "+1", "0.5", "0.0", "1e3", "x", "", "NA", "inf", "nan", "-inf", "1e999", *EDGE_TOKENS
)
LABEL_TOKENS = ("0", "1", "2", "", "x")


@st.composite
def csv_texts(draw):
    """(text, schema): a header of 1-3 feature columns and the label in any
    order, and a schema with a drawn kind per feature column; then 0-6 rows,
    some short or long. The cells suit the schema, but in one column in four
    every other cell, at random, is any text. A cell may be padded with
    spaces. Some texts end their lines in CRLF, and in some a data cell may
    be quoted (as "1" or " 2.5"): csv.reader tokenizes those, and the
    others are tokenized from their bytes."""
    kinds = draw(st.lists(st.sampled_from([NUMERIC, BINARY, categorical(3)]), min_size=1, max_size=3))
    schema = FeatureSchema(tuple((f"c{j}", kind) for j, kind in enumerate(kinds)), "pcos")
    header = draw(st.permutations([*schema.feature_names, "pcos"]))
    valid = {name: VALID_TOKENS[kind.kind] for name, kind in schema.columns} | {"pcos": ("0", "1"), "c9": CELL_TOKENS}
    noisy = {name: not draw(st.integers(0, 3)) for name in [*header, "c9"]}
    pad = st.sampled_from(("", "", " "))
    quoting = draw(st.booleans())
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        width = len(header) if draw(st.integers(0, 9)) else draw(st.integers(1, len(header) + 1))
        row = []
        for name in (header + ["c9"])[:width]:
            anything = LABEL_TOKENS if name == "pcos" else CELL_TOKENS
            token = draw(st.sampled_from(anything if noisy[name] and draw(st.booleans()) else valid[name]))
            cell = draw(pad) + token + draw(pad)
            row.append(f'"{cell}"' if quoting and draw(st.booleans()) else cell)
        lines.append(",".join(row))
    ending = draw(st.sampled_from(("\n", "\r\n")))
    return ending.join(lines) + ending, schema


def outcome(read):
    """What a read gives: its arrays and schema, or its error's type and message."""
    try:
        result = read()
    except BoostlabError as exc:
        return type(exc), str(exc)
    if isinstance(result, np.ndarray):
        return result.dtype, result.tolist()
    if isinstance(result, Dataset):
        return result.schema, result.values.tolist(), result.labels.tolist()
    return result


@settings(max_examples=300, deadline=None)
@given(drawn=csv_texts())
def test_csv_readers_agree_with_a_row_by_row_oracle(tmp_path_factory, drawn):
    text, schema = drawn
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_text(text)
    oracle = csv_reader_oracle
    checks = {
        "load_csv, given schema": (lambda: load_csv(path, schema), lambda: Dataset(*oracle.read(path, schema))),
        "load_csv, inferred schema": (lambda: load_csv(path), lambda: Dataset(*oracle.read(path))),
        "load_labels_csv, given schema": (lambda: load_labels_csv(path, schema), lambda: oracle.read(path, schema)[2]),
        "load_labels_csv, inferred schema": (lambda: load_labels_csv(path), lambda: oracle.read(path)[2]),
        "load_features_csv": (
            lambda: load_features_csv(path, schema),
            lambda: oracle.read(path, schema, with_labels=False)[1],
        ),
        "infer_schema": (lambda: infer_schema(path, "pcos"), lambda: oracle.read(path)[0]),
    }
    for name, (read, reference) in checks.items():
        # NaN != NaN, so the outcomes are compared through their reprs
        assert repr(outcome(read)) == repr(outcome(reference)), (name, text)


@st.composite
def decimal_texts(draw, min_digits=1, max_digits=15):
    """A number written as the byte path's grammar writes one, but with
    min_digits to max_digits digits (1 to 15 are in the grammar): an
    optional "-", then digits (leading zeros too) with at most one "."
    anywhere among them, so also ".5", "5." and "-.5"."""
    digits = draw(st.text("0123456789", min_size=min_digits, max_size=max_digits))
    dot = draw(st.none() | st.integers(0, len(digits)))
    return draw(st.sampled_from(("", "-"))) + (digits if dot is None else digits[:dot] + "." + digits[dot:])


def decimals_of(texts):
    """dataset._decimals on the texts written one after another, each ended by a comma."""
    buf = np.frombuffer("".join(text + "," for text in texts).encode(), np.uint8)
    end = np.flatnonzero(buf == ord(","))
    return _decimals(buf, np.concatenate(([0], end[:-1] + 1)), end)


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(decimal_texts() | st.sampled_from(("", "NA")), min_size=1, max_size=20))
@example(texts=["-0", "-0.00", "0", "007", "-000.5", ".5", "5.", "-.5", "999999999999999", ".000000000000001"])
def test_decimal_parser_equals_float_bit_for_bit(texts):
    values, whole = decimals_of(texts)
    want = np.array([math.nan if text in ("", "NA") else float(text) for text in texts])
    assert values.view(np.int64).tolist() == want.view(np.int64).tolist(), texts
    assert whole == all(text not in ("", "NA") and "." not in text for text in texts)


OUTSIDE_THE_GRAMMAR = st.sampled_from(
    ("-", ".", "-.", "+1", " 1", "1 ", "1e3", "1E-3", "--1", "1-", "1.2.3", "..5", "inf", "nan", "0x1", "N", "NB", "NA ", "1_0")
)


@settings(max_examples=300, deadline=None)
@given(
    texts=st.lists(decimal_texts() | st.sampled_from(("", "NA")), max_size=5),
    outside=OUTSIDE_THE_GRAMMAR | decimal_texts(min_digits=16, max_digits=20),
    at=st.integers(0, 5),
)
@example(texts=["1", "NA"], outside="NB", at=1)
@example(texts=["1"], outside="1234567890123456", at=0)
def test_decimal_parser_declines_texts_outside_its_grammar(texts, outside, at):
    texts.insert(at, outside)
    assert decimals_of(texts) is None, texts


def csv_module_table(path):
    """read_csv_table's result, built from the rows csv.reader gives."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return None, [], 0, None
    width = len(rows[0])
    body = [row for row in rows[1:] if len(row) == width]
    wrong = [i for i, row in enumerate(rows) if len(row) != width]
    bad = (wrong[0] + 1, len(rows[wrong[0]])) if wrong else None
    return rows[0], [[row[j] for row in body] for j in range(width)], len(body), bad


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(st.text(alphabet=',\r" \0' + "019az", max_size=8), max_size=6),
    final_newline=st.booleans(),
    bom=st.sampled_from(("", "\ufeff")),
    limit=st.integers(1, 10),
)
def test_csv_tokenizer_agrees_with_the_csv_module(tmp_path_factory, lines, final_newline, bom, limit):
    # blank lines, CR, quotes, NUL and a byte-order mark go to csv.reader; a
    # low field size limit sends lines past it there too, where an over-long
    # field is an error
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes((bom + "\n".join(lines) + ("\n" if final_newline else "")).encode())
    old = csv.field_size_limit(limit)
    try:
        try:
            want = csv_module_table(path)
        except csv.Error as exc:
            want = f"{path}: {exc}"
        try:
            got = read_csv_table(path, raw=path.read_bytes())
        except MalformedCsv as exc:
            got = str(exc)
        assert got == want, lines
    finally:
        csv.field_size_limit(old)


def csv_writer_curve(series, x_name, y_name):
    """curve_to_csv as it was written with csv.writer, kept as the reference."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([x_name, y_name])
    for x, y in series.points:
        writer.writerow([f"{x:.6f}", f"{y:.6f}"])
    return buf.getvalue()


EDGE_VALUES = [0.0, 1.0, 5e-7, 0.9999995, 1e-300, 0.0000015, 0.1234565, 0.2500005, 0.4999995, 2 / 3]
unit_floats = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(0.0, 1.0))


@settings(max_examples=100, deadline=None)
@given(points=st.lists(st.tuples(unit_floats, unit_floats), min_size=1, max_size=30))
@example(points=[(v, v) for v in EDGE_VALUES])
@example(points=[(v, 1.0 - v) for v in EDGE_VALUES])
def test_curve_csv_bytes_equal_the_csv_writer_rendering(points):
    series = CurveSeries(*np.array(points, dtype=np.float64).T)
    for names in (("fpr", "tpr"), ("recall", "precision")):
        assert curve_to_csv(series, *names) == csv_writer_curve(series, *names)


@cache
def scoring_inputs(tmp_dir):
    """A saved 1-round model and a 10-row CSV it can score."""
    data = synthesize(pcos_default_schema(), 10, 0, 1.0)
    write_csv(tmp_dir / "data.csv", data)
    save_model(fit("gbm", data, replace(default_params("gbm"), n_rounds=1)), tmp_dir / "model.json")
    return tmp_dir / "model.json", tmp_dir / "data.csv"


@settings(max_examples=100, deadline=None)
@given(scores=st.lists(unit_floats, min_size=1, max_size=30))
@example(scores=EDGE_VALUES)
def test_predict_scores_file_bytes(tmp_path_factory, scores):
    model, data = scoring_inputs(tmp_path_factory.getbasetemp())
    out = tmp_path_factory.mktemp("scores") / "scores.csv"
    # the scores of any model, whatever the rows: the file is all that is tested
    with mock.patch.object(cli, "predict_scores", return_value=np.array(scores)), redirect_stdout(io.StringIO()):
        assert cli.main(["predict", "--model", str(model), "--data", str(data), "--scores-out", str(out)]) == 0
    assert out.read_text() == "\n".join(["score"] + [f"{s:.6f}" for s in scores]) + "\n"


class _Evaluated(Exception):
    """Raised in place of metrics.evaluate, once it is given eval's scores."""


@settings(max_examples=100, deadline=None)
@given(
    # drawn from a small pool with 0 and 1 in it, so ties are common
    scores=st.lists(unit_floats, max_size=8).flatmap(
        lambda pool: st.lists(st.sampled_from([0.0, 1.0, *pool]), min_size=1, max_size=40)
    )
)
@example(scores=EDGE_VALUES + EDGE_VALUES[::-1])
def test_eval_reads_a_scores_file_as_predict_writes_it_bit_for_bit(tmp_path_factory, scores):
    # the LF file is tokenized from its bytes, its CRLF copy by csv.reader
    folder = tmp_path_factory.mktemp("eval")
    text = "score\n" + format_6f(np.array(scores))
    (folder / "truth.csv").write_text("label\n" + "0\n" * len(scores))
    want = np.array([float("%.6f" % s) for s in scores]).view(np.int64).tolist()
    for ending in ("\n", "\r\n"):
        path = folder / f"scores{len(ending)}.csv"
        path.write_bytes(text.replace("\n", ending).encode())
        given = []

        def evaluate(scores, truth, threshold):
            given.append(scores)
            raise _Evaluated

        argv = ["eval", "--scores", str(path), "--truth", str(folder / "truth.csv"), "--out", str(folder / "ev")]
        with mock.patch.object(cli, "evaluate", evaluate), pytest.raises(_Evaluated):
            cli.main(argv)
        assert given[0].dtype == np.float64 and given[0].view(np.int64).tolist() == want, ending


# The bytes a byte edit writes: CSV and JSON punctuation, the characters of
# numbers, NA, NaN and inf, a space, NUL and a byte that is never UTF-8.
EDIT_BYTES = b',\n\r"0123456789.-eNAinf \x00\xff'


@st.composite
def byte_edits(draw, original: bytes) -> bytes:
    """original with 1-4 byte edits, each a byte replaced, inserted or deleted."""
    text = bytearray(original)
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        at = draw(st.integers(0, len(text) - (edit != "insert")))
        byte = draw(st.sampled_from(EDIT_BYTES))
        if edit == "insert":
            text.insert(at, byte)
        elif edit == "replace":
            text[at] = byte
        else:
            del text[at]
    return bytes(text)


@cache
def cli_inputs(tmp_dir):
    """A 30-row CSV with missing cells, each algorithm's 3-round model of
    it, and the scores file of one of them, as the commands write them."""
    folder = tmp_dir / "cli-inputs"
    folder.mkdir()
    files = {"data": folder / "data.csv", "scores": folder / "scores.csv"}
    write_csv(files["data"], synthesize(pcos_default_schema(), 30, 11, 1.5, missing_rate=0.1))
    with redirect_stdout(io.StringIO()):
        for algorithm in ALGORITHMS:
            files[algorithm] = folder / f"{algorithm}.json"
            argv = ["train", "--algo", algorithm, "--data", files["data"], "--rounds", "3"]
            assert cli.main([str(a) for a in argv + ["--model-out", files[algorithm]]]) == 0
        argv = ["predict", "--model", files["gbm"], "--data", files["data"], "--scores-out", files["scores"]]
        assert cli.main([str(a) for a in argv]) == 0
    return files


def commands_reading(target: str, path: Path, files: dict, out: Path) -> list[list[str]]:
    """The command lines that read path in place of files[target], writing under out."""
    if target == "data":
        train = ["train", "--data", path, "--rounds", "3", "--model-out", out / "m.json"]
        return [
            *([*train, "--algo", algorithm] for algorithm in ALGORITHMS),
            ["predict", "--model", files["xgboost"], "--data", path, "--scores-out", out / "s.csv"],
            ["eval", "--scores", files["scores"], "--data", path, "--out", out / "eval"],
            ["compare", "--data", path, "--rounds", "3", "--out", out / "compare"],
        ]
    if target == "scores":
        return [["eval", "--scores", path, "--data", files["data"], "--out", out / "eval"]]
    return [["predict", "--model", path, "--data", files["data"], "--scores-out", out / "s.csv"]]


@settings(max_examples=100, deadline=None)
@given(target=st.sampled_from(("data", "scores", *ALGORITHMS)), draw=st.data())
def test_byte_edits_to_an_input_file_exit_0_or_2_on_one_line(tmp_path_factory, target, draw):
    # every command that reads the edited file: a data or model error is
    # exit 2 and one stderr line, never a traceback or another code
    files = cli_inputs(tmp_path_factory.getbasetemp())
    out = tmp_path_factory.mktemp("edited")
    path = out / files[target].name
    path.write_bytes(draw.draw(byte_edits(files[target].read_bytes()), label="edited"))
    for argv in commands_reading(target, path, files, out):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
        assert code in (0, 2), argv
        if code == 2:
            assert err.getvalue().endswith("\n") and len(err.getvalue().splitlines()) == 1, err.getvalue()


def two_branch_sigmoid(z):
    """The logistic function as two masked branches, each on its rows apart."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def masked_divide_score(G, H, lam):
    """G*G / (H + lam) by a masked divide where H + lam > 0, else 0."""
    denom = H + lam
    positive = denom > 0
    out = G * G
    np.divide(out, denom, out=out, where=positive)
    out[~positive] = 0.0
    return out


def per_row_ordered_target_stats(levels, labels, permutation, prior):
    """CatBoost's ordered target statistics by a loop over the rows in
    permutation order, counting each level's rows and label-1 rows so far."""
    enc = np.empty(len(levels))
    count: dict[int, int] = {}
    ones: dict[int, int] = {}
    for r in permutation:
        lvl = int(levels[r])
        c = count.get(lvl, 0)
        enc[r] = (ones.get(lvl, 0) + prior) / (c + 1.0)
        count[lvl] = c + 1
        if labels[r] == 1:
            ones[lvl] = ones.get(lvl, 0) + 1
    return enc


def any_nan():
    """A NaN of either sign and any payload, quiet or signaling."""
    return st.builds(
        lambda sign, quiet, payload: np.array([sign | 0x7FF0 << 48 | quiet | payload], np.uint64).view(np.float64)[0],
        st.sampled_from((0, 1 << 63)),
        st.sampled_from((0, 1 << 51)),
        st.integers(1, (1 << 51) - 1),
    )


EDGE_FLOATS = st.sampled_from((0.0, -0.0, math.inf, -math.inf, 709.8, -709.8, 745.2, -745.2, 1e300, -1e300, 5e-324))


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64).tolist()


class TestRoundArithmeticMatchesOracle:
    """The boosting round's one-exp sigmoid and one-divide gain score keep the
    bits of the formulas they replaced, NaNs included; the split searches'
    complex pairs cumsum and np.add.at each part as the float cumsum and
    bincount do (a NaN sum of NaNs aside, whose payload may differ); CatBoost's
    ordered target statistics, counted by sorting, keep the per-row loop's."""

    @settings(max_examples=200, deadline=None)
    @given(
        parts=st.lists(st.tuples(*[st.floats() | any_nan() | EDGE_FLOATS] * 2), max_size=40),
        rows=st.sampled_from((1, 2)),
    )
    def test_pair_sums(self, parts, rows):
        a = np.array([x for x, _ in parts], dtype=np.float64)
        b = np.array([y for _, y in parts], dtype=np.float64)
        bins = np.arange(a.size) % 3  # interleaved, as the node scan lists its left rows
        at = np.zeros(3, dtype=complex)
        if a.size % rows == 0:
            a, b = a.reshape(rows, -1), b.reshape(rows, -1)
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, a signaling NaN
            pairs = np.cumsum(_pair(a, b), axis=-1)
            np.add.at(at, bins, _pair(a, b).reshape(-1))
            for got, want in (
                (pairs.real, np.cumsum(a, axis=-1)),
                (pairs.imag, np.cumsum(b, axis=-1)),
                (at.real, np.bincount(bins, weights=a.reshape(-1), minlength=3)),
                (at.imag, np.bincount(bins, weights=b.reshape(-1), minlength=3)),
            ):
                nan = np.isnan(want)  # the sum of two NaNs may keep either's payload
                assert np.isnan(got).tolist() == nan.tolist(), (a.tolist(), b.tolist())
                assert bits(np.where(nan, 0.0, got)) == bits(np.where(nan, 0.0, want)), (a.tolist(), b.tolist())

    @settings(max_examples=300, deadline=None)
    @given(z=st.lists(st.floats() | any_nan() | EDGE_FLOATS, max_size=40))
    @example(z=[0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 710.0, -710.0, 800.0, -800.0])
    def test_sigmoid(self, z):
        z = np.array(z, dtype=np.float64)
        with np.errstate(invalid="ignore"):  # a signaling NaN
            assert bits(sigmoid(z)) == bits(two_branch_sigmoid(z)), z.tolist()
            assert bits(sigmoid(z.reshape(-1, 1))) == bits(two_branch_sigmoid(z.reshape(-1, 1)))

    @settings(max_examples=300, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(
                st.floats() | any_nan() | EDGE_FLOATS,
                # a hessian sum: positive, zero, just below zero by rounding, or NaN
                st.floats(0, 1e6) | st.sampled_from((0.0, -0.0, -1e-17, -2.2e-16, math.nan)) | any_nan(),
            ),
            max_size=30,
        ),
        lam=st.sampled_from((0.0, 1.0)) | st.floats(0, 10) | st.floats(5e-324, 1e-300),
        rows=st.sampled_from((1, 2)),
    )
    @example(cells=[(1.0, 0.0), (2.0, -1e-17), (3.0, math.nan), (-0.0, 0.0)], lam=0.0, rows=1)
    @example(cells=[(1.0, 2.0), (-3.0, -1e-17), (math.inf, 1.0)], lam=1.0, rows=1)
    @example(cells=[(1.0, -2.0), (2.0, 1.0)], lam=1.0, rows=2)
    def test_safe_score(self, cells, lam, rows):
        G = np.array([g for g, _ in cells], dtype=np.float64)
        H = np.array([h for _, h in cells], dtype=np.float64)
        if G.size % rows == 0:  # a 2-D block as the level and node searches pass
            G, H = G.reshape(rows, -1), H.reshape(rows, -1)
        with np.errstate(over="ignore", invalid="ignore"):  # G*G past the float range, inf/inf, a signaling NaN
            want = bits(masked_divide_score(G, H, lam))
            assert bits(_safe_score(G, H, lam)) == want, (G.tolist(), H.tolist(), lam)
            pairs = _pair(G, H)  # the strided parts the level search passes
            assert bits(_safe_score(pairs.real, pairs.imag, lam)) == want

    @settings(max_examples=300, deadline=None)
    @given(
        cells=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 1)), min_size=1, max_size=400),
        cardinality=st.integers(1, 6),
        shuffle=st.integers(0, 2**32 - 1),
        prior=st.sampled_from((0.5,)) | st.floats(0, 1, exclude_min=True, exclude_max=True),
    )
    @example(cells=[(0, 1), (0, 0), (0, 1), (0, 0), (0, 0)], cardinality=1, shuffle=0, prior=0.5)  # one level
    @example(cells=[(0, 1), (1, 1), (0, 1), (2, 1), (1, 1)], cardinality=4, shuffle=1, prior=0.3)  # every label 1
    @example(cells=[(3, 0)], cardinality=6, shuffle=0, prior=0.5)  # one row
    def test_ordered_target_stats(self, cells, cardinality, shuffle, prior):
        # a categorical column's levels in [0, cardinality), some never drawn
        levels = np.array([lvl % cardinality for lvl, _ in cells], dtype=np.float64)
        labels = np.array([label for _, label in cells], dtype=np.int64)
        permutation = np.random.default_rng(shuffle).permutation(len(cells))
        want = bits(per_row_ordered_target_stats(levels, labels, permutation, prior))
        assert bits(ordered_target_stats(levels, labels, permutation, prior)) == want, (cells, cardinality, prior)


FAILING_PAIR = """
from hypothesis import given, strategies as st

@given(st.integers())
def test_fails(x):
    assert x < 5

def test_passes():
    pass
"""


def test_a_failing_property_is_reported_and_the_run_goes_on(tmp_path):
    # hypothesis' failure report raises a DeprecationWarning, which the
    # filterwarnings setting must not turn into an INTERNALERROR
    (tmp_path / "test_pair.py").write_text(FAILING_PAIR)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    argv = ["-c", config, "--rootdir", tmp_path, "-p", "no:cacheprovider", "test_pair.py"]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "Falsifying example: test_fails(" in run.stdout

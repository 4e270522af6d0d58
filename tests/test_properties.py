"""Property tests on small random datasets: persistence, determinism, typed
model reading, stump error, oblivious levels and leaves, AUC and CSV schema
inference; and that a failing property is reported under this repository's
pytest settings."""

import json
import subprocess
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostlab.boost import (
    ALGORITHMS,
    default_params,
    fit,
    load_model,
    model_from_dict,
    model_to_dict,
    predict_scores,
    save_model,
)
from boostlab.dataset import (
    BINARY,
    NUMERIC,
    Dataset,
    FeatureSchema,
    categorical,
    infer_schema,
    load_csv,
    pcos_default_schema,
    synthesize,
    write_csv,
)
from boostlab.errors import MalformedModel
from boostlab.metrics import roc_curve
from boostlab.tree import fit_oblivious_tree, fit_stump, predict_stump, tree_from_dict, tree_to_dict

SCHEMA = FeatureSchema(
    (("x", NUMERIC), ("flag", BINARY), ("level", categorical(3)), ("pair", categorical(2))), "y"
)

FEW = settings(max_examples=12, deadline=None)


@st.composite
def datasets(draw):
    """8-40 rows of every feature kind, some numeric cells missing, both classes present."""
    n = draw(st.integers(8, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=n).round(1)
    x[rng.random(n) < 0.15] = np.nan
    values = np.column_stack(
        [x, rng.integers(0, 2, n), rng.integers(0, 3, n), rng.integers(0, 2, n)]
    ).astype(float)
    labels = rng.integers(0, 2, n)
    labels[:2] = (0, 1)
    return Dataset(SCHEMA, values, labels)


def small_params(algorithm):
    params = default_params(algorithm)
    return replace(params, n_rounds=3, max_depth=min(3, params.max_depth))


@FEW
@given(data=datasets(), algorithm=st.sampled_from(ALGORITHMS))
def test_save_load_gives_identical_scores(tmp_path_factory, data, algorithm):
    model = fit(algorithm, data, small_params(algorithm))
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(model, path)
    assert np.array_equal(predict_scores(load_model(path), data), predict_scores(model, data))


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
NUMBERS, STRINGS = [0, 1, -1, 2.5], ["", "1", "left"]
OTHER_TYPES = {
    "number": [True, False, *STRINGS, None],
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


@settings(max_examples=60, deadline=None)
@given(data=datasets(), weight_seed=st.integers(0, 2**32 - 1))
def test_stump_error_is_misclassified_weight(data, weight_seed):
    # NaN goes left on the numeric column and right on the categorical ones
    X = data.values.copy()
    rng = np.random.default_rng(weight_seed)
    X[rng.random(data.n_rows) < 0.2, 2] = np.nan
    y = 2 * data.labels - 1
    w = rng.dirichlet(np.ones(data.n_rows))
    stump, err = fit_stump(X, y, w, SCHEMA.kinds)
    assert err == pytest.approx(w[predict_stump(stump, X) != y].sum(), abs=1e-12)


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


@settings(max_examples=60, deadline=None)
@given(data=datasets(), grad_seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 10))
def test_oblivious_tree_loads_as_fitted(data, grad_seed, depth):
    p = np.random.default_rng(grad_seed).uniform(0.05, 0.95, data.n_rows)
    g, h = p - data.labels, p * (1 - p)
    tree = fit_oblivious_tree(data.values, g, h, SCHEMA.kinds, depth=depth, reg_lambda=1.0)
    back = tree_from_dict(json.loads(json.dumps(tree_to_dict(tree))), SCHEMA.n_features)
    assert back.levels == tree.levels
    assert back.leaf_ids.dtype == tree.leaf_ids.dtype == np.int64
    assert back.leaf_ids.tobytes() == tree.leaf_ids.tobytes()
    assert back.leaf_values.tobytes() == tree.leaf_values.tobytes()


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

"""Property tests on small random datasets: persistence, determinism, stump
error and AUC."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostlab.boost import (
    ALGORITHMS,
    default_params,
    fit,
    load_model,
    model_to_json,
    predict_scores,
    save_model,
)
from boostlab.dataset import BINARY, NUMERIC, Dataset, FeatureSchema, categorical
from boostlab.metrics import roc_curve
from boostlab.tree import fit_stump, predict_stump

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
    first = model_to_json(fit(algorithm, data, params))
    assert model_to_json(fit(algorithm, data, params)) == first


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

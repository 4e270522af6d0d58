"""Property tests on small random datasets: persistence, determinism, typed
model reading, stump error, AdaBoost scores as stump sums, GBM and XGBoost
scores against a per-node oracle, oblivious levels and leaves, AUC, CSV
schema inference, the CSV tokenizer against the csv module, the CSV byte
path's number parser against float(), the CSV readers against a row-by-row
oracle, the bytes of the curve and score writers and fits at extreme
params; and that a failing property is reported under this repository's
pytest settings."""

import csv
import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from functools import cache
from pathlib import Path
from unittest import mock

import csv_reader_oracle
import numpy as np
import regression_predict_oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boostlab import cli
from boostlab.boost import (
    ALGORITHMS,
    BoostParams,
    default_params,
    deviance,
    fit,
    load_model,
    model_from_dict,
    model_to_dict,
    predict_scores,
    raw_scores,
    save_model,
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
from boostlab.metrics import CurveSeries, curve_to_csv, roc_curve
from boostlab.tree import fit_oblivious_tree, fit_stump, predict_stump, tree_from_dict, tree_to_dict

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
def test_save_load_gives_identical_scores(tmp_path_factory, data, algorithm):
    model = fit(algorithm, data, small_params(algorithm))
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(model, path)
    compact = json.dumps(model_to_dict(model), separators=(",", ":"), allow_nan=False)
    assert path.read_text(encoding="utf-8") == compact + "\n"
    scores = predict_scores(model, data)
    assert np.array_equal(predict_scores(load_model(path), data), scores)
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
    assert err == pytest.approx(w[predict_stump(stump, X) != y].sum(), abs=1e-12)


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


def assert_scores_equal_the_oracle(model, data, held_out, leaf_seed):
    """raw_scores of model, and of model with a drawn leaf set to -0.0 and a
    tree of one leaf -0.0 appended, equal the per-node oracle's tree-order sum
    bit for bit, on the training rows and on held-out rows; and the training
    rows score as the boosting loop summed them."""
    if model.trees:
        assert deviance(data.labels, raw_scores(model, data)) == model.train_loss[-1]
    rng = np.random.default_rng(leaf_seed)
    trees = [replace(tree, value=tree.value.copy()) for tree in model.trees]
    if trees:
        tree = trees[rng.integers(len(trees))]
        tree.value[rng.choice(tree.leaves())] = -0.0
    trees.append(tree_from_dict({"kind": "regression", "n_features": 4, "nodes": [{"value": -0.0}]}, 4))
    for m in (model, replace(model, trees=trees)):
        for rows in (data, held_out):
            assert raw_scores(m, rows).tobytes() == regression_predict_oracle.raw_scores(m, rows).tobytes()


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
    assert_scores_equal_the_oracle(fit(algorithm, data, params), data, held_out, leaf_seed)


def test_the_oracle_property_meets_every_kind_of_node():
    # what the property above draws: splits on a categorical column, both
    # default directions on a column with missing rows, and trees of one leaf
    seen = set()
    for seed in range(8):
        data, held_out = dataset_from(seed, 40), dataset_from(seed + 100, 25)
        for algorithm in ("gbm", "xgboost"):
            for gamma in (0.0, 50.0):
                params = replace(default_params(algorithm), n_rounds=6, gamma=gamma)
                model = fit(algorithm, data, params)
                assert_scores_equal_the_oracle(model, data, held_out, seed)
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
        "infer_schema": (lambda: infer_schema(path, "pcos"), lambda: oracle.infer(path, "pcos")),
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


def csv_module_table(path, skip_blank):
    """read_csv_table's result, built from the rows csv.reader gives."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows, ends = [], []
        for row in reader:
            rows.append(row)
            ends.append(reader.line_num)
    if not rows:
        return None, [], 0, None
    width = len(rows[0])
    body = [row for row in rows[1:] if len(row) == width]
    wrong = [i for i, row in enumerate(rows) if len(row) != width and (row or not skip_blank)]
    bad = (wrong[0] + 1, len(rows[wrong[0]]), ends[wrong[0]]) if wrong else None
    return rows[0], [[row[j] for row in body] for j in range(width)], len(body), bad


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(st.text(alphabet=',\r" \0' + "019az", max_size=8), max_size=6),
    final_newline=st.booleans(),
    limit=st.integers(1, 10),
)
def test_csv_tokenizer_agrees_with_the_csv_module(tmp_path_factory, lines, final_newline, limit):
    # blank lines, CR, quotes and NUL go to csv.reader; a low field size limit
    # sends lines past it there too, where an over-long field is an error
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes(("\n".join(lines) + ("\n" if final_newline else "")).encode())
    old = csv.field_size_limit(limit)
    try:
        for skip_blank in (False, True):
            try:
                want = csv_module_table(path, skip_blank)
            except csv.Error as exc:
                want = f"{path}: {exc}"
            try:
                got = read_csv_table(path, skip_blank=skip_blank)
            except MalformedCsv as exc:
                got = str(exc)
            assert got == want, (lines, skip_blank)
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

"""The four boosting algorithms behind one binary-classifier interface.

One model type, TreeEnsemble: a base_score plus a weighted sum of tree
outputs. GBM, XGBoost-style and CatBoost-style boosting share one boosting
loop on binomial deviance and weight each tree by params.learning_rate; the
score is sigmoid of the sum. Discrete AdaBoost's rounds are the one-level
oblivious trees fit_stump returns (a constant stump is a tree of no level and
one leaf) with their leaves, the classes ±1, scaled by the round's alpha,
summed unshrunk from base_score 0; the score is sigmoid(2 * sum). All models
emit per-row scores in [0, 1], which predict_labels labels by metrics.labels_at.

Model files are format v2, written as compact JSON (no whitespace) and a
newline, and read in any JSON layout, the indented files written earlier
included. They hold only what prediction reads: the params, the schema,
base_score, trees and cat_encoding_state (CatBoost's encodings, else null).
A regression tree stores a value at its leaves only; an oblivious tree lists
only its non-zero leaves, as leaf_index (ascending) and leaf_values, which is
also all that ObliviousTree holds in memory. Other keys are ignored, as the
leaf gradient and hessian sums of GBM and XGBoost files written before
regression leaves dropped them.

load_model raises MalformedModel for bad JSON, a format_version other than
2, a missing key (every params field must be given), a value of the wrong
type (a bool is not a number, a float is not an int, a name must be a
string), a number that is NaN, infinite or beyond the float range, a value
outside its set (default_direction "left" or "right"), a split on a column
the model does not have, a split whose test does not fit its column (a
non-empty list of levels, each in [0, cardinality) of its column, for a
categorical column of AdaBoost, GBM or XGBoost, else a number; CatBoost's
encoded columns all take a number), trees or levels that are not lists, a
tree of the wrong kind for its algorithm (oblivious for AdaBoost and
CatBoost, regression for GBM and XGBoost), a bad or repeated tree node
index, an oblivious tree deeper than 16 levels or whose leaf_index is not
strictly increasing ints in [0, 2**depth), one per leaf value, or a
cat_encoding_state other than null for AdaBoost, GBM and XGBoost, and for
CatBoost other than the encodings its schema and params plan
(_plan_encodings), in column order, with one statistic per level for each
target encoding.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from ._fields import as_index, as_number
from ._fileio import atomic_write_text
from .dataset import NUMERIC, Dataset, FeatureSchema
from .errors import MalformedModel, NonFiniteScores, SchemaMismatch, SingleClassDataset
from .metrics import check_threshold, labels_at
from .tree import (
    ObliviousTree,
    Presort,
    RegressionTree,
    _all,
    _max,
    _min,
    _sum,
    fit_oblivious_tree,
    fit_regression_tree,
    fit_stump,
    predict_trees,
    tree_from_dict,
    tree_to_dict,
)


class _Algorithm(NamedTuple):
    """What sets one of ALGORITHMS apart from the others."""

    max_depth: int  # its default
    paper: dict  # the paper preset's changes to its defaults
    tree: type  # the kind of tree it fits, and its model file holds


_ALGORITHM_TABLE = {
    "adaboost": _Algorithm(1, {}, ObliviousTree),
    "gbm": _Algorithm(3, {"learning_rate": 0.01}, RegressionTree),
    "xgboost": _Algorithm(3, {}, RegressionTree),
    "catboost": _Algorithm(6, {"max_depth": 16}, ObliviousTree),
}
ALGORITHMS = tuple(_ALGORITHM_TABLE)

MODEL_FORMAT_VERSION = 2


@dataclass(frozen=True)
class BoostParams:
    """One booster's hyperparameters, checked on construction. learning_rate
    must be positive and finite but has no upper bound, as scikit-learn's
    GradientBoostingClassifier takes any positive rate: a rate so large that
    the raw scores overflow ends the fit in NonFiniteScores instead.

    A fit ignores the fields it does not read. AdaBoost reads n_rounds (its
    stumps are one level deep); GBM and XGBoost n_rounds, learning_rate,
    max_depth, reg_lambda, gamma and min_child_weight; CatBoost n_rounds,
    learning_rate, max_depth, reg_lambda, seed, cat_one_hot_max and
    cat_prior. threshold is read only when labelling (predict_labels)."""

    n_rounds: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_child_weight: float = 1.0
    seed: int = 42
    cat_one_hot_max: int = 2
    cat_prior: float = 0.5
    threshold: float = 0.5

    def __post_init__(self):
        if self.n_rounds < 0:
            raise ValueError("n_rounds must be >= 0")
        if not self.learning_rate > 0 or not math.isfinite(self.learning_rate):
            raise ValueError("learning_rate must be positive and finite")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        for name in ("reg_lambda", "gamma", "min_child_weight"):
            v = getattr(self, name)
            if v < 0 or not math.isfinite(v):
                raise ValueError(f"{name} must be >= 0 and finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.cat_one_hot_max < 1:
            raise ValueError("cat_one_hot_max must be >= 1")
        if not 0.0 < self.cat_prior < 1.0:
            raise ValueError("cat_prior must lie in (0, 1)")
        check_threshold(self.threshold)


def default_params(algorithm: str) -> BoostParams:
    """Per-algorithm defaults: stump depth for AdaBoost, 3 for GBM/XGB, 6 for CatBoost."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return BoostParams(max_depth=_ALGORITHM_TABLE[algorithm].max_depth)


def paper_preset(algorithm: str) -> BoostParams:
    """Benchmark preset: GBM learning rate 0.01, CatBoost depth 16, seed 42."""
    return replace(default_params(algorithm), **_ALGORITHM_TABLE[algorithm].paper)


@dataclass(frozen=True)
class CategoricalEncoding:
    """Prediction-time treatment of one categorical feature."""

    feature_index: int
    mode: str  # "onehot" | "target"
    cardinality: int
    stats: tuple[float, ...] | None = None  # target mode only


@dataclass
class TreeEnsemble:
    """A model of any of ALGORITHMS: base_score plus a weighted sum of its
    trees' outputs (see raw_scores); the trees read the features through
    cat_encoding_state (CatBoost only). AdaBoost and CatBoost hold oblivious
    trees, GBM and XGBoost regression trees. It holds what scoring reads, as
    its model file does, and no per-round training loss."""

    algorithm: str
    base_score: float
    trees: list[RegressionTree] | list[ObliviousTree]
    schema: FeatureSchema
    params: BoostParams
    cat_encoding_state: tuple[CategoricalEncoding, ...] = ()


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) without overflow, as one exp: with e = e^-|z|, 1 / (1 +
    e) where z >= 0 and e / (1 + e) elsewhere. Each branch is the same float
    operations as 1 / (1 + exp(-z)) and exp(z) / (1 + exp(z)) taken on its
    rows apart, so the bits are theirs. -|z| is taken as min(z, -z), which
    keeps a NaN's sign and payload as exp(z) does."""
    z = np.asarray(z, dtype=np.float64)
    e = np.negative(z, out=np.empty_like(z))  # an array for a 0-d z too
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    out = np.where(z >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def _check_two_classes(data: Dataset):
    if _min(data.labels) == _max(data.labels):
        raise SingleClassDataset("training data contains a single class")


def _base_score(labels: np.ndarray) -> float:
    pos = int(_sum(labels))
    return math.log(pos / (labels.size - pos))


def _stump_tree(stump: ObliviousTree, alpha: float) -> ObliviousTree:
    """An AdaBoost round: the stump's tree with its leaves, the classes ±1.0,
    scaled by alpha."""
    return replace(stump, leaf_values=alpha * stump.leaf_values)


def fit_adaboost(train: Dataset, params: BoostParams | None = None) -> TreeEnsemble:
    """Discrete AdaBoost over exact greedy decision stumps.

    Per round: eps = weighted error, alpha = 0.5*ln((1-eps)/eps), misclassified
    weights scale by e^alpha and the rest by e^-alpha, then renormalize. A
    zero-error round gets the capped alpha for eps0 = 1/(2n) and stops early;
    a round at eps >= 0.5 stops without adding a stump. Each round keeps the
    stump's one-level oblivious tree with its leaves scaled by alpha
    (_stump_tree), summed unshrunk from 0. A round's classes on the training
    rows come from fit_stump (fitted=), as the other boosters take their
    rounds' outputs from their fitters, so X is never scored. No training
    loss is kept.
    """
    params = params if params is not None else default_params("adaboost")
    _check_two_classes(train)
    X = train.values
    kinds = train.schema.kinds
    y = train.signed_labels()
    n = train.n_rows
    w = np.full(n, 1.0 / n)
    trees: list[ObliviousTree] = []
    eps0 = 1.0 / (2.0 * n)
    presort = Presort(X, kinds)
    pred = np.empty(n)  # each row's class, ±1.0, under the round's stump
    for _ in range(params.n_rounds):
        stump, eps = fit_stump(X, y, w, kinds, presort=presort, fitted=pred)
        if eps >= 0.5:
            break
        e = eps0 if eps <= 0.0 else eps
        alpha = 0.5 * math.log((1.0 - e) / e)
        trees.append(_stump_tree(stump, alpha))
        if eps <= 0.0:
            break
        w = w * np.exp(-alpha * y * pred)
        w = w / _sum(w)
    return TreeEnsemble("adaboost", 0.0, trees, train.schema, params)


def ordered_target_stats(
    levels: np.ndarray, labels: np.ndarray, permutation: np.ndarray, prior: float
) -> np.ndarray:
    """Leakage-free mean encoding under a permutation.

    Row i's code for level v is (label-1 count among earlier-in-permutation
    rows with level v + prior) / (count of such rows + 1), so a row's own
    label never enters its own code. The counts are taken at once: a stable
    argsort of the permuted levels lists each level's rows in permutation
    order, a row's count is its place in its level's run (searchsorted finds
    where the run starts), and its label-1 count is the running count of
    label-1 rows before it less that count where its run starts. levels is a
    categorical column, its levels non-negative integers and never NaN as
    Dataset guarantees, labels are 0/1, and permutation orders the rows.
    """
    rows = permutation[levels[permutation].argsort(kind="stable")]
    level, one = levels[rows], labels[rows] == 1
    start = level.searchsorted(level)  # where each row's level run starts
    ones = one.cumsum() - one  # label-1 rows before each row, of any level
    enc = np.empty(len(rows))
    enc[rows] = (ones - ones[start] + prior) / (np.arange(len(rows)) - start + 1.0)
    return enc


def _full_target_stats(train: Dataset, j: int, prior: float) -> tuple[float, ...]:
    """Column j's code per level over every training row: (label-1 count +
    prior) / (row count + 1)."""
    idx = train.values[:, j].astype(np.int64)
    cardinality = train.schema.kinds[j].cardinality
    counts = np.bincount(idx, minlength=cardinality).astype(np.float64)
    ones = np.bincount(idx, weights=train.labels.astype(np.float64), minlength=cardinality)
    return tuple(float(s) for s in (ones + prior) / (counts + 1.0))


def _plan_encodings(
    schema: FeatureSchema, params: BoostParams, stats: Callable[[int], tuple[float, ...] | None]
) -> tuple[CategoricalEncoding, ...]:
    """Each categorical column's encoding, in column order: one-hot up to
    params.cat_one_hot_max levels, else target statistics, stats(j) for
    column j. The fit gives the training set's statistics, the model reader
    its file's."""
    return tuple(
        CategoricalEncoding(j, "onehot", kind.cardinality)
        if kind.cardinality <= params.cat_one_hot_max
        else CategoricalEncoding(j, "target", kind.cardinality, stats(j))
        for j, kind in enumerate(schema.kinds)
        if kind.is_categorical
    )


def _encoded_width(schema: FeatureSchema, encodings: tuple[CategoricalEncoding, ...]) -> int:
    """The columns of _encode_matrix's output, which the trees read: one-hot
    columns widen it."""
    return schema.n_features + sum(e.cardinality - 1 for e in encodings if e.mode == "onehot")


def _encode_matrix(
    values: np.ndarray,
    schema: FeatureSchema,
    encodings: tuple[CategoricalEncoding, ...],
    ordered: tuple[np.ndarray, np.ndarray, float] | None = None,
) -> np.ndarray:
    """Expand categoricals per plan: a one-hot column group by one compare
    with its levels, a target-stat column by its encoding's statistics or,
    when ordered = (labels, permutation, prior) is given, as in training, by
    ordered_target_stats(column, *ordered). The matrix is column-major, so
    predict_trees reads its columns without a transposed copy."""
    by_index = {e.feature_index: e for e in encodings}
    out = np.empty((values.shape[0], _encoded_width(schema, encodings)), order="F")
    k = 0
    for j in range(schema.n_features):
        col = values[:, j]
        enc = by_index.get(j)
        if enc is None:
            out[:, k] = col
        elif enc.mode == "onehot":
            out[:, k : k + enc.cardinality] = col[:, None] == np.arange(enc.cardinality)
            k += enc.cardinality - 1
        elif ordered is not None:
            out[:, k] = ordered_target_stats(col, *ordered)
        else:
            out[:, k] = np.asarray(enc.stats)[col.astype(np.int64)]
        k += 1
    return out


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in the finite check
def _fit_ensemble(algorithm: str, train: Dataset, params: BoostParams | None) -> TreeEnsemble:
    """The boosting loop of GBM, XGBoost-style and CatBoost-style boosting.

    GBM uses unit hessians (first-order residual trees), the others p(1-p).
    CatBoost fits oblivious trees on an encoded matrix: categoricals with
    cardinality <= cat_one_hot_max are one-hot expanded, the rest replaced by
    ordered target statistics under one seeded permutation during training
    and by full-training-set statistics at prediction time. GBM and XGBoost
    fit regression trees, with learned missing directions, on the raw values.
    The tree grower and the training matrix are chosen before the first
    round. The permutation is drawn for every CatBoost fit, from the fit's
    own generator, so a draw no target encoding uses changes nothing. Each
    round adds learning_rate times its tree's outputs on the training rows,
    which the fitter writes as it places the rows in leaves (fitted=): the
    values tree.predict(X) would give, so the same sum as scoring the
    training matrix again. The first round after which a training raw score
    is not finite (a learning rate too large for the float range) raises
    NonFiniteScores.
    """
    params = params if params is not None else default_params(algorithm)
    _check_two_classes(train)
    encodings: tuple[CategoricalEncoding, ...] = ()
    X, kinds = train.values, train.schema.kinds
    grow = partial(
        fit_regression_tree,
        max_depth=params.max_depth,
        min_child_weight=params.min_child_weight,
        reg_lambda=params.reg_lambda,
        gamma=params.gamma,
    )
    if algorithm == "catboost":
        encodings = _plan_encodings(train.schema, params, partial(_full_target_stats, train, prior=params.cat_prior))
        permutation = np.random.default_rng(params.seed).permutation(train.n_rows)
        ordered = (train.labels, permutation, params.cat_prior)
        X, kinds = _encode_matrix(train.values, train.schema, encodings, ordered), None
        grow = partial(fit_oblivious_tree, depth=params.max_depth, reg_lambda=params.reg_lambda)
    presort = Presort(X, kinds)
    y = train.labels.astype(np.float64)
    base = _base_score(train.labels)
    F = np.full(train.n_rows, base)
    fitted = np.empty(train.n_rows)  # each round's tree outputs on the training rows
    trees = []
    for _ in range(params.n_rounds):
        p = sigmoid(F)
        g = p - y
        h = np.ones_like(p) if algorithm == "gbm" else p * (1.0 - p)
        tree = grow(X, g, h, kinds, presort=presort, fitted=fitted)
        F = F + params.learning_rate * fitted
        if not _all(np.isfinite(F)):
            raise NonFiniteScores(
                f"{algorithm}: training raw scores are not finite after round {len(trees) + 1}"
                f" at learning_rate {params.learning_rate!r}"
            )
        trees.append(tree)
    return TreeEnsemble(algorithm, base, trees, train.schema, params, encodings)


# The per-algorithm entry points fit() dispatches through; the benchmark's
# tracer (perfbench/spans.py) times each algorithm's fit under these names.
fit_gbm = partial(_fit_ensemble, "gbm")
fit_xgb = partial(_fit_ensemble, "xgboost")
fit_catboost = partial(_fit_ensemble, "catboost")


def fit(algorithm: str, train: Dataset, params: BoostParams | None = None):
    """Fit one of ALGORITHMS; params default to default_params(algorithm)."""
    fitters = {
        "adaboost": fit_adaboost,
        "gbm": fit_gbm,
        "xgboost": fit_xgb,
        "catboost": fit_catboost,
    }
    if algorithm not in fitters:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return fitters[algorithm](train, params)


def _check_schema(model, data: Dataset):
    if data.schema.columns != model.schema.columns:
        raise SchemaMismatch("data does not conform to the model's training schema")


def raw_scores(model: TreeEnsemble, data: Dataset) -> np.ndarray:
    """base_score plus the trees' outputs times params.learning_rate, or
    unshrunk for AdaBoost: the additive margin of AdaBoost, the log-odds score
    of the others.

    The trees of every algorithm are scored by tree.predict_trees: each
    distinct split test of the trees is evaluated once per row, as one row of
    a bool matrix, in chunks of rows that keep it within
    tree.MAX_BIT_MATRIX_BYTES, and each tree turns its tests' rows into its
    outputs. The sum is the same, in the same tree order, as adding up
    tree.predict, so for GBM and XGBoost the training rows score as the
    boosting loop summed them; for AdaBoost it is the same as adding
    alpha times each round's ±1.0 classes, as fit_adaboost does, since
    alpha * ±1.0 is exact."""
    _check_schema(model, data)
    rate = 1.0 if model.algorithm == "adaboost" else model.params.learning_rate
    Xe = data.values
    if model.cat_encoding_state:
        Xe = _encode_matrix(data.values, model.schema, model.cat_encoding_state)
    return predict_trees(model.trees, Xe, model.base_score, rate)


def predict_scores(model: TreeEnsemble, data: Dataset) -> np.ndarray:
    """Per-row probability-like scores in [0, 1]: sigmoid of the raw score,
    of twice the margin for AdaBoost. A raw score that is not finite raises
    NonFiniteScores."""
    with np.errstate(over="ignore", invalid="ignore"):
        raw = raw_scores(model, data)
        bad = np.count_nonzero(~np.isfinite(raw))
        if bad:
            raise NonFiniteScores(f"{model.algorithm} model gives non-finite raw scores for {bad} of {raw.size} rows")
        return sigmoid(2.0 * raw if model.algorithm == "adaboost" else raw)


def predict_labels(model, data: Dataset) -> np.ndarray:
    """The labels of the model's scores at params.threshold, by metrics.labels_at."""
    return labels_at(predict_scores(model, data), model.params.threshold)


def model_to_dict(model: TreeEnsemble) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "algorithm": model.algorithm,
        "params": asdict(model.params),
        "schema": model.schema.to_dict(),
        "base_score": model.base_score,
        "trees": [tree_to_dict(t) for t in model.trees],
        "cat_encoding_state": (
            [asdict(e) for e in model.cat_encoding_state] if model.algorithm == "catboost" else None
        ),
    }


def _params_from_dict(entry: dict) -> BoostParams:
    """BoostParams from a model file, which must give every field: an int field
    takes a non-negative int, a float field an int or a float, and a bool is
    neither."""
    types = {f.name: f.type for f in fields(BoostParams)}
    if entry.keys() != types.keys():  # a default would change the model's scores silently
        raise MalformedModel(f"params: missing or unknown {sorted(types.keys() ^ entry.keys())}")
    checked = {}
    for name, value in entry.items():
        what = f"params.{name}"
        if types[name] == "int":
            checked[name] = as_index(value, math.inf, what)
        else:
            checked[name] = as_number(value, what)
    return BoostParams(**checked)


def model_from_dict(d: dict) -> TreeEnsemble:
    """Rebuild a model from its dict form; raises MalformedModel on any defect."""
    try:
        version = d["format_version"]
        if type(version) is not int or version != MODEL_FORMAT_VERSION:
            raise MalformedModel(f"unsupported format_version {version!r}")
        algorithm = d["algorithm"]
        params = _params_from_dict(d["params"])
        schema = FeatureSchema.from_dict(d["schema"])
        if algorithm not in ALGORITHMS:
            raise MalformedModel(f"unknown algorithm {algorithm!r}")
        state = d["cat_encoding_state"]
        if not (isinstance(state, list) if algorithm == "catboost" else state is None):
            takes = "a list" if algorithm == "catboost" else "null"
            raise MalformedModel(f"cat_encoding_state of a {algorithm} model must be {takes}")
        encodings = tuple(
            CategoricalEncoding(
                as_index(e["feature_index"], schema.n_features),
                e["mode"],
                as_index(e["cardinality"], math.inf, "cardinality"),
                tuple(as_number(s, "stats") for s in e["stats"]) if e["stats"] is not None else None,
            )
            for e in state or ()
        )
        if algorithm == "catboost":
            stats = {e.feature_index: e.stats for e in encodings}
            if encodings != _plan_encodings(schema, params, stats.get) or any(
                len(e.stats or ()) != e.cardinality for e in encodings if e.mode == "target"
            ):
                raise MalformedModel("cat_encoding_state: not one encoding per categorical column as params plan it")
        if not isinstance(d["trees"], list):
            raise MalformedModel("trees must be a list")
        # CatBoost's trees split its encoded matrix, whose columns are all numbers
        kinds = (NUMERIC,) * _encoded_width(schema, encodings) if encodings else schema.kinds
        trees = [tree_from_dict(t, kinds) for t in d["trees"]]
        kind = _ALGORITHM_TABLE[algorithm].tree
        if not all(isinstance(t, kind) for t in trees):
            raise MalformedModel(f"the trees of a {algorithm} model must all be {kind.__name__}s")
        base = as_number(d["base_score"], "base_score")
        return TreeEnsemble(algorithm, base, trees, schema, params, encodings)
    except KeyError as exc:
        raise MalformedModel(f"missing key {exc}") from None
    except (TypeError, ValueError, AttributeError, IndexError) as exc:
        raise MalformedModel(f"bad value: {exc}") from None


def save_model(model: TreeEnsemble, path) -> None:
    """Write the model as compact JSON and a newline to an atomically renamed
    file. A number that is not finite, which load_model would reject, is a
    ValueError, raised before any file is opened."""
    text = json.dumps(model_to_dict(model), separators=(",", ":"), allow_nan=False) + "\n"
    atomic_write_text(path, text)


def load_model(path):
    """Read a model file; bad JSON (nested too deep for the parser too) or
    content raises MalformedModel naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return model_from_dict(json.load(fh))
    except (ValueError, RecursionError, MalformedModel) as exc:  # ValueError: bad JSON or bad UTF-8
        raise MalformedModel(f"{path}: {exc}") from None

"""The four boosting algorithms behind one binary-classifier interface.

One model type, TreeEnsemble: a base_score plus a weighted sum of tree
outputs. GBM, XGBoost-style and CatBoost-style boosting share one boosting
loop on binomial deviance and weight each tree by params.learning_rate; the
score is sigmoid of the sum. Discrete AdaBoost's rounds are the one-level
oblivious trees fit_stump returns (a constant stump is a tree of no level and
one leaf) with their leaves, the classes ±1, scaled by the round's alpha,
summed unshrunk from base_score 0; the score is sigmoid(2 * sum). All models
emit per-row scores in [0, 1]; labels are 1 when score >= threshold.

Model files are format v2, written as compact JSON (no whitespace) and a
newline, and read in any JSON layout, the indented files written earlier
included. They hold only what prediction reads: the params, the schema,
base_score, trees and cat_encoding_state (CatBoost's encodings, else null).
A regression tree stores a value at its leaves only; an oblivious tree lists
only its non-zero leaves, as leaf_index (ascending) and leaf_values, which is
also all that ObliviousTree holds in memory. Older files load too, and their
extra keys are ignored: the leaf gradient and hessian sums of v1 files and of
earlier v2 GBM and XGBoost files. A v1 oblivious tree lists every leaf; its
zero leaves are dropped on load. An AdaBoost file written before its rounds
were trees lists stumps, each a stump and its alpha; the reader turns each
into the tree fit_stump would have returned (tree.stump_from_dict) and scales
it as a fit does, and ignores that file's base_score and cat_encoding_state.

load_model raises MalformedModel for bad JSON, a format_version other than 1
or 2, a missing key (every params field must be given), a value of the wrong
type (a bool is not a number, a float is not an int, a name must be a
string), a number that is NaN, infinite or beyond the float range, a value
outside its set (default_direction "left" or "right", stump classes -1 or
1), a split on a column the model does not have, a split whose test does
not fit its column (a list of levels for a categorical column of AdaBoost,
GBM or XGBoost, else a number; CatBoost's encoded columns all take a
number), trees or levels that are not lists, a tree of the wrong kind
for its algorithm (oblivious for AdaBoost and CatBoost, regression for GBM
and XGBoost), an entry of a legacy stumps list that is not a stump, a bad or
repeated tree node index, an oblivious tree deeper than 16 levels or whose
leaf_index is not strictly increasing ints in [0, 2**depth), one per leaf
value, or a cat_encoding_state other than CatBoost's one encoding per
categorical column, or null otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial

import numpy as np

from ._fields import as_index, as_number
from ._fileio import atomic_open
from .dataset import Dataset, FeatureKind, FeatureSchema
from .errors import MalformedModel, NonFiniteScores, SchemaMismatch, SingleClassDataset
from .tree import (
    ObliviousTree,
    Presort,
    RegressionTree,
    fit_oblivious_tree,
    fit_regression_tree,
    fit_stump,
    predict_trees,
    stump_from_dict,
    tree_from_dict,
    tree_to_dict,
)

ALGORITHMS = ("adaboost", "gbm", "xgboost", "catboost")

MODEL_FORMAT_VERSION = 2


def _check_threshold(threshold: float) -> None:
    """A label threshold lies in (0, 1); NaN does not."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")


@dataclass(frozen=True)
class BoostParams:
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
        _check_threshold(self.threshold)


_DEPTH_DEFAULTS = {"adaboost": 1, "gbm": 3, "xgboost": 3, "catboost": 6}


def default_params(algorithm: str) -> BoostParams:
    """Per-algorithm defaults: stump depth for AdaBoost, 3 for GBM/XGB, 6 for CatBoost."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return BoostParams(max_depth=_DEPTH_DEFAULTS[algorithm])


def paper_preset(algorithm: str) -> BoostParams:
    """Benchmark preset: GBM learning rate 0.01, CatBoost depth 16, seed 42."""
    params = default_params(algorithm)
    if algorithm == "gbm":
        params = replace(params, learning_rate=0.01)
    if algorithm == "catboost":
        params = replace(params, max_depth=16)
    return params


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
    trees, GBM and XGBoost regression trees."""

    algorithm: str
    base_score: float
    trees: list[RegressionTree] | list[ObliviousTree]
    schema: FeatureSchema
    params: BoostParams
    cat_encoding_state: tuple[CategoricalEncoding, ...] = ()
    train_loss: list[float] = field(default_factory=list, repr=False)


# The algorithms whose trees are oblivious; the others grow regression trees.
_OBLIVIOUS = ("adaboost", "catboost")


def sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def deviance(labels: np.ndarray, raw_scores: np.ndarray) -> float:
    """Mean binomial deviance of sigmoid(raw_scores) against 0/1 labels."""
    signs = np.where(labels == 1, -1.0, 1.0)
    return float(np.mean(np.logaddexp(0.0, signs * raw_scores)))


def _check_two_classes(data: Dataset):
    if data.labels.min() == data.labels.max():
        raise SingleClassDataset("training data contains a single class")


def _base_score(labels: np.ndarray) -> float:
    pos = int(labels.sum())
    return math.log(pos / (labels.size - pos))


def _stump_tree(stump: ObliviousTree, alpha: float) -> ObliviousTree:
    """An AdaBoost round: the stump's tree with its leaves, the classes,
    scaled by alpha. Zero leaves are dropped, as everywhere."""
    values = alpha * stump.leaf_values
    kept = values != 0
    return replace(stump, leaf_ids=stump.leaf_ids[kept], leaf_values=values[kept])


def fit_adaboost(train: Dataset, params: BoostParams | None = None) -> TreeEnsemble:
    """Discrete AdaBoost over exact greedy decision stumps.

    Per round: eps = weighted error, alpha = 0.5*ln((1-eps)/eps), misclassified
    weights scale by e^alpha and the rest by e^-alpha, then renormalize. A
    zero-error round gets the capped alpha for eps0 = 1/(2n) and stops early;
    a round at eps >= 0.5 stops without adding a stump. Each round keeps the
    stump's one-level oblivious tree with its leaves scaled by alpha
    (_stump_tree), summed unshrunk from 0. A round's classes on the training
    rows come from fit_stump (fitted=), as the other boosters take their
    rounds' outputs from their fitters, so X is never scored.
    """
    params = params if params is not None else default_params("adaboost")
    _check_two_classes(train)
    X = train.values
    kinds = train.schema.kinds
    y = train.signed_labels()
    n = train.n_rows
    w = np.full(n, 1.0 / n)
    margins = np.zeros(n)
    trees: list[ObliviousTree] = []
    losses: list[float] = []
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
        margins = margins + alpha * pred
        losses.append(float(np.mean(np.exp(-y * margins))))
        if eps <= 0.0:
            break
        w = w * np.exp(-alpha * y * pred)
        w = w / w.sum()
    return TreeEnsemble("adaboost", 0.0, trees, train.schema, params, (), losses)


def ordered_target_stats(
    levels: np.ndarray, labels: np.ndarray, permutation: np.ndarray, prior: float
) -> np.ndarray:
    """Leakage-free mean encoding under a permutation.

    Row i's code for level v is (label-1 count among earlier-in-permutation
    rows with level v + prior) / (count of such rows + 1), so a row's own
    label never enters its own code.
    """
    n = len(levels)
    enc = np.empty(n)
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


def _full_target_stats(
    levels: np.ndarray, labels: np.ndarray, cardinality: int, prior: float
) -> np.ndarray:
    idx = levels.astype(np.int64)
    counts = np.bincount(idx, minlength=cardinality).astype(np.float64)
    ones = np.bincount(idx, weights=labels.astype(np.float64), minlength=cardinality)
    return (ones + prior) / (counts + 1.0)


def _plan_encodings(train: Dataset, params: BoostParams) -> tuple[CategoricalEncoding, ...]:
    encodings = []
    for j, (_, kind) in enumerate(train.schema.columns):
        if not kind.is_categorical:
            continue
        if kind.cardinality <= params.cat_one_hot_max:
            encodings.append(CategoricalEncoding(j, "onehot", kind.cardinality))
        else:
            stats = _full_target_stats(
                train.values[:, j], train.labels, kind.cardinality, params.cat_prior
            )
            encodings.append(
                CategoricalEncoding(j, "target", kind.cardinality, tuple(float(s) for s in stats))
            )
    return tuple(encodings)


def _encoded_width(schema: FeatureSchema, encodings: tuple[CategoricalEncoding, ...]) -> int:
    """The columns of _encode_matrix's output, which the trees read: one-hot
    columns widen it."""
    return schema.n_features + sum(e.cardinality - 1 for e in encodings if e.mode == "onehot")


def _encode_matrix(
    values: np.ndarray,
    schema: FeatureSchema,
    encodings: tuple[CategoricalEncoding, ...],
    ordered_codes: dict[int, np.ndarray] | None = None,
) -> np.ndarray:
    """Expand categoricals per plan; ordered_codes overrides target-stat columns.
    The matrix is column-major, so predict_trees reads its columns without a
    transposed copy."""
    by_index = {e.feature_index: e for e in encodings}
    out = np.empty((values.shape[0], _encoded_width(schema, encodings)), order="F")
    k = 0
    for j in range(schema.n_features):
        col = values[:, j]
        enc = by_index.get(j)
        if enc is None:
            out[:, k] = col
        elif enc.mode == "onehot":
            for lvl in range(enc.cardinality):
                out[:, k + lvl] = col == lvl
            k += enc.cardinality - 1
        elif ordered_codes is not None:
            out[:, k] = ordered_codes[j]
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
    Each round adds learning_rate times its tree's outputs on the training
    rows, which the fitter writes as it places the rows in leaves (fitted=):
    the values tree.predict(X) would give, so the same sum as scoring the
    training matrix again. The first round after which a training raw score
    is not finite (a learning rate too large for the float range) raises
    NonFiniteScores.
    """
    params = params if params is not None else default_params(algorithm)
    _check_two_classes(train)
    encodings: tuple[CategoricalEncoding, ...] = ()
    X = train.values
    if algorithm == "catboost":
        encodings = _plan_encodings(train, params)
        ordered_codes = None
        target_features = [e.feature_index for e in encodings if e.mode == "target"]
        if target_features:
            permutation = np.random.default_rng(params.seed).permutation(train.n_rows)
            ordered_codes = {
                j: ordered_target_stats(
                    train.values[:, j], train.labels, permutation, params.cat_prior
                )
                for j in target_features
            }
        X = _encode_matrix(train.values, train.schema, encodings, ordered_codes)
    kinds = None if algorithm == "catboost" else train.schema.kinds
    presort = Presort(X, kinds)
    y = train.labels.astype(np.float64)
    base = _base_score(train.labels)
    F = np.full(train.n_rows, base)
    fitted = np.empty(train.n_rows)  # each round's tree outputs on the training rows
    trees = []
    losses: list[float] = []
    for _ in range(params.n_rounds):
        p = sigmoid(F)
        g = p - y
        h = np.ones_like(p) if algorithm == "gbm" else p * (1.0 - p)
        if algorithm == "catboost":
            tree = fit_oblivious_tree(
                X, g, h, depth=params.max_depth, reg_lambda=params.reg_lambda, presort=presort, fitted=fitted
            )
        else:
            tree = fit_regression_tree(
                X,
                g,
                h,
                kinds,
                max_depth=params.max_depth,
                min_child_weight=params.min_child_weight,
                reg_lambda=params.reg_lambda,
                gamma=params.gamma,
                presort=presort,
                fitted=fitted,
            )
        F = F + params.learning_rate * fitted
        if not np.isfinite(F).all():
            raise NonFiniteScores(
                f"{algorithm}: training raw scores are not finite after round {len(trees) + 1}"
                f" at learning_rate {params.learning_rate!r}"
            )
        trees.append(tree)
        losses.append(deviance(train.labels, F))
    return TreeEnsemble(algorithm, base, trees, train.schema, params, encodings, losses)


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


def predict_labels(model, data: Dataset, threshold: float | None = None) -> np.ndarray:
    """Hard 0/1 labels; a score exactly at the threshold maps to 1. A threshold
    outside (0, 1), or NaN, is a ValueError."""
    th = model.params.threshold if threshold is None else threshold
    _check_threshold(th)
    return (predict_scores(model, data) >= th).astype(np.int64)


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


def _check_encodings(encodings: tuple[CategoricalEncoding, ...], schema: FeatureSchema) -> None:
    """Each categorical column has exactly one encoding, of its cardinality; a
    target encoding carries one statistic per level, a one-hot one none."""
    kinds = dict(enumerate(schema.kinds))
    for e in encodings:
        if (
            kinds.pop(e.feature_index, None) != FeatureKind("categorical", e.cardinality)
            or e.mode not in ("onehot", "target")
            or (e.stats is None) != (e.mode == "onehot")
            or (e.mode == "target" and len(e.stats) != e.cardinality)
        ):
            raise MalformedModel(f"cat_encoding_state: bad entry for column {e.feature_index!r}")
    if any(kind.is_categorical for kind in kinds.values()):
        raise MalformedModel("cat_encoding_state: a categorical column has no encoding")


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
        if type(version) is not int or version not in (1, MODEL_FORMAT_VERSION):
            raise MalformedModel(f"unsupported format_version {version!r}")
        algorithm = d["algorithm"]
        params = _params_from_dict(d["params"])
        schema = FeatureSchema.from_dict(d["schema"])
        if algorithm not in ALGORITHMS:
            raise MalformedModel(f"unknown algorithm {algorithm!r}")
        if algorithm == "adaboost" and "stumps" in d:  # an older file: its rounds as stumps
            n = schema.n_features
            trees = [_stump_tree(stump_from_dict(s["stump"], n), as_number(s["alpha"], "alpha")) for s in d["stumps"]]
            return TreeEnsemble(algorithm, 0.0, trees, schema, params)
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
            _check_encodings(encodings, schema)
        if not isinstance(d["trees"], list):
            raise MalformedModel("trees must be a list")
        width = _encoded_width(schema, encodings)
        trees = [tree_from_dict(t, width, version) for t in d["trees"]]
        kind = ObliviousTree if algorithm in _OBLIVIOUS else RegressionTree
        if not all(isinstance(t, kind) for t in trees):
            raise MalformedModel(f"the trees of a {algorithm} model must all be {kind.__name__}s")
        # CatBoost's trees split its encoded matrix, whose columns are all numbers
        categorical = [False] * width if encodings else [k.is_categorical for k in schema.kinds]
        for t in trees:
            for f, thr, _ in t.tests():
                if isinstance(thr, frozenset) != categorical[f]:
                    takes = "a level set" if categorical[f] else "a number"
                    raise MalformedModel(f"a split on column {f} must test {takes}")
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
    with atomic_open(path) as fh:
        fh.write(text)


def load_model(path):
    """Read a model file; bad JSON (nested too deep for the parser too) or
    content raises MalformedModel naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return model_from_dict(json.load(fh))
    except (ValueError, RecursionError, MalformedModel) as exc:  # ValueError: bad JSON or bad UTF-8
        raise MalformedModel(f"{path}: {exc}") from None

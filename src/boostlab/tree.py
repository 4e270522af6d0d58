"""Weak learners: weighted decision stumps, depth-limited regression trees with
second-order split gain, and oblivious (symmetric) trees.

Split tests are "value <= threshold goes left" for numeric and binary columns
(thresholds are midpoints between consecutive distinct values) and "level in
set goes left" for categorical columns (single-level sets only; levels not in
the set, including levels unseen in training, go right).

Missing values (NaN): stumps route them left on numeric columns; regression
trees route them along a learned per-node default direction; oblivious trees
always route them left.

A regression tree is a set of parallel per-node arrays in pre-order, the node
order of the model file: node 0 is the root and a split node precedes its
children, its left child right after it. One pass in index order therefore
routes rows from the root down, and a dump writes the arrays as they are.

A fit sorts its matrix once (Presort): each column's rows in stable (value,
row) order with the missing rows last, and the candidate splits each column
offers over all rows. A boosting loop builds one Presort per fit and passes it
to every round's fitter, since X does not change between rounds.

Stumps and regression trees score their candidates through one kernel, _scan,
which returns every candidate of a set of rows with its left sums in one pass:
stumps call it once on all rows, a regression tree once per node. Each learner
passes its own per-row statistics (stump: the weight each leaf class
misclassifies; regression tree: gradient and hessian) and keeps its own
missing-value routing, gain or error formula and tie rule. A node's rows of
the sorted columns of several thresholds are its block; a stable partition on
the chosen split hands each child its block in the same order, so no node
sorts. Oblivious trees use a bucket-partitioned search instead, since a
level's gain sums over every leaf bucket (see fit_oblivious_tree).

Thresholds lie between consecutive distinct values lo < hi: their midpoint,
computed without overflow, or lo where the midpoint rounds to hi (_midpoints).
So a split routes the rows as its gain or error was scored.

Candidate enumeration order is feature index ascending, then threshold
ascending, then orientation / default direction, and ties keep the earliest
candidate, so fits are fully deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import FeatureKind
from .errors import EmptyData, MalformedModel, SchemaMismatch

_ORIENTATIONS = ((-1, 1), (1, -1))

# Candidate errors are float sums, so mathematically tied candidates can differ
# by an ulp depending on summation order; ties within this margin keep the
# earliest candidate (lowest feature, lowest threshold, first orientation).
_TIE_TOL = 1e-12

# An oblivious level's gain sums one term per bucket, so its rounding grows
# with the bucket count; candidates within this fraction of (1 + the parent
# score) of the best gain tie, and the earliest one wins.
_LEVEL_TIE_TOL = 1e-9

# The most levels an oblivious tree has, as in CatBoost on CPU: a fit stops there
# and a model file may not exceed it, so a lookup of 2**levels leaves stays small.
MAX_OBLIVIOUS_DEPTH = 16


@dataclass(frozen=True)
class Stump:
    """Single-split classifier with ±1 leaves.

    threshold is a float for numeric/binary features or a frozenset of level
    indices for categorical features. left_class == right_class marks the
    degenerate constant predictor.
    """

    feature_index: int
    threshold: float | frozenset[int]
    left_class: int
    right_class: int

    @property
    def is_constant(self) -> bool:
        return self.left_class == self.right_class


@dataclass
class RegressionTree:
    """Per-node arrays in pre-order (see the module docstring). feature is -1
    at a leaf; split node i sends a row to left[i] or right[i]. value is the
    node's -G/(H+lam) over its training rows; prediction reads it at leaves
    only, and a model file holds only those (split nodes load as 0)."""

    feature: np.ndarray
    threshold: np.ndarray  # float or frozenset of levels; None at a leaf
    default_left: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_features: int

    def leaves(self) -> np.ndarray:
        return np.flatnonzero(self.feature < 0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = _check_matrix(X, self.n_features)
        node = np.zeros(X.shape[0], dtype=np.int64)
        for i in np.flatnonzero(self.feature >= 0):
            rows = np.flatnonzero(node == i)
            left = _split_mask(X[rows, self.feature[i]], self.threshold[i], missing_left=self.default_left[i])
            node[rows] = np.where(left, self.left[i], self.right[i])
        return self.value[node]


# A node row as fit_regression_tree and tree_from_dict append it, in
# RegressionTree's field order.
_NODE_DTYPES = (np.int64, object, bool, np.int64, np.int64, np.float64)
_RIGHT = 4  # the position of right in a node row


def _regression_tree(nodes: list[list], n_features: int) -> RegressionTree:
    return RegressionTree(*(np.array(c, dtype=t) for c, t in zip(zip(*nodes), _NODE_DTYPES)), n_features)


@dataclass
class ObliviousTree:
    """Symmetric tree: one (feature, threshold) test per level.

    A row's leaf index is the bit string of its per-level comparisons, earlier
    levels in higher bits, with bit 1 meaning "went right". As in a model file,
    only the non-zero leaves are held: leaf_ids (int64, strictly ascending) and
    their leaf_values. Any other leaf predicts 0.
    """

    levels: tuple[tuple[int, float | frozenset[int]], ...]
    leaf_ids: np.ndarray
    leaf_values: np.ndarray
    n_features: int

    @property
    def depth(self) -> int:
        return len(self.levels)

    def leaf_index(self, X: np.ndarray) -> np.ndarray:
        X = _check_matrix(X, self.n_features)
        idx = np.zeros(X.shape[0], dtype=np.int64)
        for f, thr in self.levels:
            left = _split_mask(X[:, f], thr, missing_left=True)
            idx = idx * 2 + (~left)
        return idx

    def predict(self, X: np.ndarray) -> np.ndarray:
        leaves = np.zeros(1 << self.depth)  # per call: a gather beats a search of leaf_ids
        leaves[self.leaf_ids] = self.leaf_values
        return leaves[self.leaf_index(X)]


def _check_matrix(X, n_features: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise SchemaMismatch(f"expected {n_features} feature columns, got shape {X.shape}")
    return X


def _split_mask(col: np.ndarray, threshold, *, missing_left: bool) -> np.ndarray:
    """Boolean mask of rows routed left by a split test. NaN is in no level set
    and not <= any threshold, so a missing row goes left only if missing_left."""
    left = np.isin(col, list(threshold)) if isinstance(threshold, frozenset) else col <= threshold
    return left | np.isnan(col) if missing_left else left


def _midpoints(lo, hi):
    """Thresholds between consecutive distinct values lo < hi: the midpoint,
    computed without overflow (for normal values lo/2 + hi/2 has the bits of
    (lo + hi)/2), or lo where it does not lie in [lo, hi), as between two
    adjacent floats. So a threshold sends lo left and hi right."""
    mid = lo / 2 + hi / 2
    return np.where((lo <= mid) & (mid < hi), mid, lo)


def _fit_inputs(X, learner: str, names: str, *vectors) -> tuple[np.ndarray, ...]:
    """X as a float matrix with at least one row, and each per-row vector as a
    float array of one entry per row."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if X.shape[0] == 0:
        raise EmptyData(f"cannot fit a {learner} on zero rows")
    vectors = tuple(np.asarray(v, dtype=np.float64) for v in vectors)
    if any(v.shape != (X.shape[0],) for v in vectors):
        raise ValueError(f"{names} must match the row count")
    return (X, *vectors)


class Presort:
    """A training matrix with each column sorted and its candidate splits
    listed, built once per fit.

    Row j of order lists the rows of column j: its non-missing rows in stable
    (value, row) order, then its missing rows in row order; values[j] holds
    their values, NaN last, and n_observed[j] counts the non-missing ones.
    kinds marks the categorical columns, as the fitters' kinds argument does.

    The columns fall in three groups by the candidates they offer over all
    rows. A numeric column of several thresholds is swept: block holds the
    swept columns' rows of order and values, the block of a tree's root. A
    column of a single threshold, such as a binary one, is kept as the side
    each row takes (single_code). A categorical column offers its levels
    (cat_levels). A column of one distinct value offers nothing.

    Every fitter in this module takes a Presort as presort= and builds one
    itself without it; a boosting loop builds one per fit, since X does not
    change between its rounds.
    """

    def __init__(self, X, kinds: tuple[FeatureKind, ...] | None = None):
        self.X = X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        n, d = X.shape
        categorical = [kinds is not None and kinds[j].is_categorical for j in range(d)]
        self.categorical = np.array(categorical, dtype=bool)
        self.order = np.argsort(X.T, axis=1, kind="stable")  # NaN sorts last
        self.values = np.take_along_axis(X.T, self.order, axis=1)
        self.n_observed = n - np.isnan(X).sum(axis=0)
        n_thresholds = np.count_nonzero(self.values[:, :-1] < self.values[:, 1:], axis=1)
        self.swept = np.flatnonzero(~self.categorical & (n_thresholds > 1))
        self.block = (self.order[self.swept], self.values[self.swept])
        self.single = np.flatnonzero(~self.categorical & (n_thresholds == 1))
        lo = self.values[self.single, 0]  # a single threshold lies above the least value
        hi = np.array([v[v > v[0]][0] for v in self.values[self.single]])
        self.single_threshold = _midpoints(lo, hi)
        # per row and single-threshold column r: 3 * r, plus 1 above the
        # threshold or 2 when missing
        cells = X[:, self.single]
        self.single_code = 3 * np.arange(self.single.size) + np.where(
            np.isnan(cells), 2, cells > self.single_threshold
        )
        self.cat_levels = [
            (j, np.unique(self.values[j, : self.n_observed[j]]), X[:, j].copy())
            for j in np.flatnonzero(self.categorical)
        ]

    @cached_property
    def level_candidates(self) -> _LevelCandidates:
        """The candidates of an oblivious level (see _LevelCandidates)."""
        return _LevelCandidates(self)


def _presorted(X: np.ndarray, kinds, presort: Presort | None) -> Presort:
    """presort, or X sorted now; a presort of a matrix of another shape is a
    ValueError."""
    if presort is None:
        return Presort(X, kinds)
    if presort.X.shape != X.shape:
        raise ValueError(f"presort is of a {presort.X.shape} matrix, X is {X.shape}")
    return presort


def _scan(presort: Presort, idx: np.ndarray, block, stats: np.ndarray):
    """Every candidate split of the rows idx (ascending) and its sums: the
    split kernel of stumps and regression trees.

    block is those rows' part of presort.block, in its order; stats holds k
    per-row statistics, shape (k, n). Returns, per candidate in enumeration
    order, its column, its threshold (a float, or the level of a categorical
    column) and, shape (k, candidates), each statistic summed over the rows
    it sends left; and, shape (k, columns), each statistic summed over each
    column's missing rows, for every column with a candidate. Missing rows
    are in no left sum. Each sum adds its numbers in one fixed order, so a
    fit's bits do not depend on the rows outside a node: a swept column's
    left sums by one sequential cumsum along each block row, in (value, row)
    order; a single-threshold column's by one sequential bincount of its left
    rows, in row order; a level's and the missing rows' by np.sum's pairwise
    sum in row order.
    """
    order, values = block
    m = idx.size
    at = stats[:, idx]
    cols, thresholds, lefts = [], [], []
    missing = np.zeros((len(stats), presort.X.shape[1]))

    # swept columns
    swept = stats[:, order]
    row, end = np.nonzero(values[:, :-1] < values[:, 1:])  # False next to NaN
    cols.append(presort.swept[row])
    thresholds.append(_midpoints(values[row, end], values[row, end + 1]))
    lefts.append(np.cumsum(swept, axis=2)[:, row, end])
    n_observed = m - np.count_nonzero(np.isnan(values), axis=1)
    for r in np.flatnonzero(n_observed < m):
        missing[:, presort.swept[r]] = [b[r, n_observed[r] :].sum() for b in swept]

    # single-threshold columns: a candidate where both sides hold a row
    s = presort.single.size
    code = np.take(presort.single_code, idx, axis=0).reshape(-1)  # each bin's rows in row order
    count = np.bincount(code, minlength=3 * s).reshape(s, 3)
    sums = [np.bincount(code, weights=np.repeat(a, s), minlength=3 * s).reshape(s, 3) for a in at]
    offered = np.flatnonzero((count[:, 0] > 0) & (count[:, 1] > 0))
    cols.append(presort.single[offered])
    thresholds.append(presort.single_threshold[offered])
    lefts.append(np.array([x[offered, 0] for x in sums]))
    for r in offered[count[offered, 2] > 0]:
        skipped = code[r::s] == 3 * r + 2
        missing[:, presort.single[r]] = [a[skipped].sum() for a in at]

    # categorical columns: each level present
    for j, levels, column in presort.cat_levels:
        col = column[idx]
        for v in levels:
            in_level = col == v
            if in_level.any():
                cols.append([j])
                thresholds.append([v])
                lefts.append([[a[in_level].sum()] for a in at])
        skipped = np.isnan(col)
        if skipped.any():
            missing[:, j] = [a[skipped].sum() for a in at]

    col = np.concatenate(cols).astype(np.int64)
    ranked = np.argsort(col, kind="stable")  # each group is in enumeration order
    left = np.concatenate([np.asarray(x, dtype=np.float64).reshape(len(stats), -1) for x in lefts], axis=1)
    return col[ranked], np.concatenate(thresholds)[ranked], left[:, ranked], missing


def _threshold(presort: Presort, j: int, threshold: float):
    """A split test as stumps and trees store it."""
    return frozenset({int(threshold)}) if presort.categorical[j] else float(threshold)


def fit_stump(
    X: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    kinds: tuple[FeatureKind, ...] | None = None,
    *,
    presort: Presort | None = None,
) -> tuple[Stump, float]:
    """Exhaustive greedy stump minimizing weighted 0/1 error over all candidates.

    y must be ±1 and weights non-negative summing to 1. If one class carries
    zero weight the constant majority predictor is returned. The returned
    error never exceeds 0.5 because both orientations are searched.
    presort, if given, is Presort(X, kinds).
    """
    X, y, w = _fit_inputs(X, "stump", "y and weights", y, weights)
    if not np.isin(y, (-1, 1)).all():
        raise ValueError("labels must be -1 or +1")
    n = X.shape[0]

    w_pos = float(w[y == 1].sum())
    w_neg = float(w[y == -1].sum())

    def constant():
        c = 1 if w_pos >= w_neg else -1
        return Stump(0, 0.0, c, c), min(w_pos, w_neg)

    if w_pos == 0.0 or w_neg == 0.0:
        return constant()

    presort = _presorted(X, kinds, presort)
    # stats[missed[c]] is the weight a leaf of class c gets wrong
    missed = {-1: 0, 1: 1}
    stats = np.stack([w * (y != -1), w * (y != 1)])
    col, thresholds, left, _ = _scan(presort, np.arange(n), presort.block, stats)
    errs = np.empty((col.size, 2))
    categorical = presort.categorical[col]
    # Numeric, missing rows go left. A right side's error is the column's
    # total over its non-missing rows, summed in (value, row) order, minus the
    # left sum; the missing rows add their own sum in row order.
    num = np.flatnonzero(~categorical)
    total = np.zeros((2, X.shape[1]))
    missing = np.zeros((2, X.shape[1]))  # per orientation
    for j in np.unique(col[num]):
        n_obs = presort.n_observed[j]
        total[:, j] = [s[presort.order[j, :n_obs]].sum() for s in stats]
        tail = presort.order[j, n_obs:]
        missing[:, j] = [w[tail][y[tail] != lc].sum() for lc, _ in _ORIENTATIONS]
    for oi, (lc, rc) in enumerate(_ORIENTATIONS):
        right_mis = total[missed[rc], col[num]] - left[missed[rc], num]
        errs[num, oi] = left[missed[lc], num] + right_mis + missing[oi, col[num]]
    # Categorical, missing rows go right. Each error is one sum over the
    # misclassified rows in row order: a total minus the level sums would
    # round differently and move AdaBoost's alphas by an ulp.
    for c in np.flatnonzero(categorical):
        in_set = X[:, col[c]] == thresholds[c]
        for oi, (lc, rc) in enumerate(_ORIENTATIONS):
            errs[c, oi] = w[np.where(in_set, y != lc, y != rc)].sum()

    # Per feature, the first candidate within _TIE_TOL of its least error; it
    # replaces the best so far only if it beats it by more than _TIE_TOL.
    best_err = np.inf
    best = None  # (candidate, orientation)
    starts = np.flatnonzero(np.diff(col, prepend=-1))
    for a, b in zip(starts, [*starts[1:], col.size]):
        flat = errs[a:b].reshape(-1)
        k = int(np.flatnonzero(flat <= flat.min() + _TIE_TOL)[0])
        if flat[k] < best_err - _TIE_TOL:
            best_err = float(flat[k])
            best = divmod(2 * a + k, 2)
    if best is None:
        return constant()
    c, oi = best
    lc, rc = _ORIENTATIONS[oi]
    return Stump(int(col[c]), _threshold(presort, col[c], thresholds[c]), lc, rc), best_err


def predict_stump(stump: Stump, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if stump.is_constant:
        return np.full(X.shape[0], stump.left_class, dtype=np.int64)
    left = _split_mask(
        X[:, stump.feature_index],
        stump.threshold,
        missing_left=not isinstance(stump.threshold, frozenset),
    )
    return np.where(left, stump.left_class, stump.right_class).astype(np.int64)


def _safe_score(G: np.ndarray, H: np.ndarray, lam: float) -> np.ndarray:
    denom = H + lam
    out = np.zeros_like(np.asarray(G, dtype=np.float64))
    np.divide(G * G, denom, out=out, where=denom > 0)
    return out


def fit_regression_tree(
    X: np.ndarray,
    grads: np.ndarray,
    hessians: np.ndarray,
    kinds: tuple[FeatureKind, ...] | None = None,
    *,
    max_depth: int,
    min_child_weight: float = 0.0,
    reg_lambda: float = 0.0,
    gamma: float = 0.0,
    presort: Presort | None = None,
) -> RegressionTree:
    """Greedy top-down tree on gradient/hessian sums.

    Split gain is 0.5 * (GL^2/(HL+lam) + GR^2/(HR+lam) - G^2/(H+lam)) - gamma
    and a split is kept only when the gain is strictly positive and both
    children reach min_child_weight hessian mass. Missing rows follow the
    default direction that maximizes gain (left on ties). Leaf values are
    -G/(H+lam). Of equal gains the earliest candidate wins. presort, if
    given, is Presort(X, kinds).

    Each node scores all its candidates at once (_scan). A node's block, its
    rows of presort.block, is split between its children by a stable
    partition on the chosen split, so no node sorts.
    """
    X, g, h = _fit_inputs(X, "tree", "grads and hessians", grads, hessians)
    if (h < 0).any():
        raise ValueError("hessians must be non-negative")
    n, d = X.shape
    presort = _presorted(X, kinds, presort)
    stats = np.stack([g, h])
    side = np.zeros(n, dtype=bool)  # at a split, whether each of its rows goes left

    # A work list rather than a recursive closure, which would be a reference
    # cycle keeping the blocks alive until the garbage collector ran. A left
    # child is popped right after its parent, so nodes are appended in
    # pre-order; a right child enters its index in its parent when popped.
    nodes: list[list] = []
    todo = [(np.arange(n), presort.block, 0, -1)]  # (rows, block, depth, parent of a right child)
    while todo:
        idx, block, depth, right_of = todo.pop()
        i = len(nodes)
        if right_of >= 0:
            nodes[right_of][_RIGHT] = i
        G = float(g[idx].sum())
        H = float(h[idx].sum())
        denom = H + reg_lambda
        nodes.append([-1, None, True, -1, -1, -G / denom if denom > 0 else 0.0])
        if depth >= max_depth or idx.size < 2:
            continue
        col, thresholds, left, missing = _scan(presort, idx, block, stats)
        # one column per default direction: missing rows left, then right
        GL, HL = left[:, :, None] + np.stack([missing[:, col], np.zeros_like(left)], axis=2)
        GR = G - GL
        HR = H - HL
        valid = (HL >= min_child_weight) & (HR >= min_child_weight)
        parent = G * G / denom if denom > 0 else 0.0
        score = 0.5 * (_safe_score(GL, HL, reg_lambda) + _safe_score(GR, HR, reg_lambda) - parent) - gamma
        gains = np.where(valid, score, -np.inf).reshape(-1)  # (feature, threshold, direction) order
        if not (gains > 0).any():
            continue
        c, di = divmod(int(np.argmax(gains)), 2)
        f, thr, default_left = int(col[c]), _threshold(presort, col[c], thresholds[c]), di == 0
        nodes[i][:4] = [f, thr, default_left, i + 1]
        goes_left = _split_mask(X[idx, f], thr, missing_left=default_left)
        blocks = [None, None]  # a leaf searches nothing
        if depth + 1 < max_depth:
            side[idx] = goes_left
            bits = side[block[0]]
            n_left = int(goes_left.sum())
            blocks = [
                tuple(a[b].reshape(len(a), size) for a in block)
                for b, size in ((~bits, idx.size - n_left), (bits, n_left))
            ]
        todo += [(idx[~goes_left], blocks[0], depth + 1, i), (idx[goes_left], blocks[1], depth + 1, -1)]
    return _regression_tree(nodes, d)


class _LevelCandidates:
    """Every candidate split of an oblivious level, in enumeration order, and
    how the search finds their gains; built once per Presort.

    features and thresholds list the candidates. The candidates of
    categorical and single-threshold columns are masked: masked_at lists their
    places, left_rows the rows each sends left (missing rows included, in row
    order), one candidate after another, and left_of each such row's masked
    candidate. The columns of several thresholds are swept (_SweptColumns):
    swept_at lists their candidates, rows each column's rows in value order
    with the missing rows first, one column after another, and reads the
    flat position in rows of each candidate's last left row.
    """

    def __init__(self, presort: Presort):
        n = presort.X.shape[0]
        self.features: list[int] = []
        self.thresholds: list[float | frozenset[int]] = []
        masked: list[tuple[int, np.ndarray]] = []
        swept: list[tuple[int, np.ndarray, np.ndarray]] = []
        cat_levels = {j: levels for j, levels, _ in presort.cat_levels}
        for f, col in enumerate(presort.X.T):
            skipped = np.isnan(col)
            at = len(self.features)
            if f in cat_levels:
                levels = [frozenset({int(v)}) for v in cat_levels[f]]
                for i, v in enumerate(cat_levels[f]):
                    masked.append((at + i, np.flatnonzero((col == v) | skipped)))
            elif f in presort.single:
                r = int(np.searchsorted(presort.single, f))
                levels = [float(presort.single_threshold[r])]
                masked.append((at, np.flatnonzero((col <= levels[0]) | skipped)))
            elif f in presort.swept:
                n_obs = presort.n_observed[f]
                order, values = presort.order[f], presort.values[f]
                end = np.flatnonzero(values[:-1] < values[1:])  # False next to NaN
                levels = _midpoints(values[end], values[end + 1]).tolist()
                swept.append((at, np.concatenate([order[n_obs:], order[:n_obs]]), n - n_obs + end))
            else:
                levels = []
            self.features += [f] * len(levels)
            self.thresholds += levels
        self.masked_at = np.array([c for c, _ in masked], dtype=np.int64)
        self.left_rows = np.concatenate([r for _, r in masked]) if masked else np.empty(0, dtype=np.int64)
        self.left_of = np.repeat(np.arange(len(masked)), [r.size for _, r in masked])
        self.swept_at = np.concatenate([c + np.arange(b.size) for c, _, b in swept]) if swept else None
        self.reads = np.concatenate([j * n + b for j, (_, _, b) in enumerate(swept)]) if swept else None
        self.rows = np.concatenate([r for _, r, _ in swept]) if swept else None


class _SweptColumns:
    """The columns of several thresholds, searched together.

    order lists each column's rows in value order, missing rows first, one
    column after another, so flat position j * n + i names the i-th row of
    column j. at lists those positions in (bucket, value, row) order, one row
    of at per column. Every column holds every row, so bucket b fills the same
    span of each row of at.
    """

    def __init__(self, candidates: _LevelCandidates, g: np.ndarray, h: np.ndarray):
        self.candidates, self.reads, self.order = candidates.swept_at, candidates.reads, candidates.rows
        self.g, self.h = g[self.order], h[self.order]
        self.at = np.arange(self.order.size).reshape(-1, g.size)

    def gains(self, size, start, Gb, Hb, parent_b, reg_lambda: float):
        """Gain and "splits a bucket" of each candidate. Moving a bucket's rows
        left one at a time in value order, each row changes only its bucket's
        term and its bucket's "is split" flag; put back in value order, the
        changes' prefix sums at each threshold are the gain and the count of
        split buckets."""
        at = self.at
        pos = np.repeat(np.arange(size.size), size)  # the bucket at each position
        end = start + size - 1
        # a bucket's sums up to each position: the running sum minus the sums
        # of the buckets before it
        GL = np.cumsum(self.g[at], axis=1) - (np.cumsum(Gb) - Gb)[pos]
        HL = np.cumsum(self.h[at], axis=1) - (np.cumsum(Hb) - Hb)[pos]
        term = _safe_score(GL, HL, reg_lambda) + _safe_score(Gb[pos] - GL, Hb[pos] - HL, reg_lambda)
        change = np.empty_like(term)
        change[:, 1:] = term[:, 1:] - term[:, :-1]
        change[:, start] = term[:, start] - parent_b  # from all rows on the right
        moved = np.empty(at.size)
        moved[at] = change
        gains = 0.5 * np.cumsum(moved.reshape(at.shape), axis=1).ravel()[self.reads]
        # a bucket is split while its first row is left and its last is not
        flips = np.zeros(at.size, dtype=np.int32)
        two = size > 1
        flips[at[:, start[two]]] = 1
        flips[at[:, end[two]]] = -1
        splits = np.cumsum(flips.reshape(at.shape), axis=1, dtype=np.int32).ravel()[self.reads] > 0
        return gains, splits

    def partition(self, right, n_right, size, start) -> None:
        """Stable partition of each bucket's span, its left rows first. A
        bucket has as many left rows in every column, so the rows of one side
        keep their order, and bucket b's go to first[b] onward."""
        bits = right[self.order[self.at]]
        n_left = size - n_right
        parted = np.empty_like(self.at)
        for side, count, first in ((~bits, n_left, start), (bits, n_right, start + n_left)):
            to = np.repeat(first - (np.cumsum(count) - count), count) + np.arange(count.sum())
            parted[:, to] = self.at[side].reshape(self.at.shape[0], -1)
        self.at = parted


def fit_oblivious_tree(
    X: np.ndarray,
    grads: np.ndarray,
    hessians: np.ndarray,
    kinds: tuple[FeatureKind, ...] | None = None,
    *,
    depth: int,
    reg_lambda: float = 0.0,
    presort: Presort | None = None,
) -> ObliviousTree:
    """Level-by-level greedy symmetric tree.

    Each level picks the single (feature, threshold) maximizing the gain
    summed over all current leaf buckets. Missing rows always go left.
    Split rule: a candidate counts only if it splits at least one bucket into
    two non-empty parts, an exact row count with the missing rows on the
    left. Tie rule: of the candidates that count, the earliest in enumeration
    order whose gain is within _LEVEL_TIE_TOL * (1 + |parent score|) of the
    best wins. Stop rule: growth stops at the first level where no candidate
    counts or the best gain is not strictly positive, and after
    MAX_OBLIVIOUS_DEPTH levels, so the recorded depth may be shallower than
    requested, and every level splits a bucket of the rows.

    The search is bucket-partitioned, and its candidates are listed once per
    Presort (_LevelCandidates). For a categorical or single-threshold column,
    one bincount by bucket of each candidate's left rows gives its sums. The columns of several thresholds
    are swept (_SweptColumns): their rows stay in (bucket, value) order, a
    stable partition on each chosen level's bit carrying that order to the
    next level.
    """
    X, g, h = _fit_inputs(X, "tree", "grads and hessians", grads, hessians)
    n, d = X.shape
    candidates = _presorted(X, kinds, presort).level_candidates
    features, thresholds = candidates.features, candidates.thresholds
    masked_at, left_rows, left_of = candidates.masked_at, candidates.left_rows, candidates.left_of
    left_g, left_h = g[left_rows], h[left_rows]
    sweep = _SweptColumns(candidates, g, h) if candidates.swept_at is not None else None

    leaf = np.zeros(n, dtype=np.int64)  # a row's comparison bits so far
    bucket = np.zeros(n, dtype=np.int64)  # the rank of its leaf among the occupied ones
    levels: list[tuple[int, float | frozenset[int]]] = []
    for _ in range(min(depth, MAX_OBLIVIOUS_DEPTH)):
        size = np.bincount(bucket)
        B = size.size
        start = np.cumsum(size) - size
        Gb = np.bincount(bucket, weights=g, minlength=B)
        Hb = np.bincount(bucket, weights=h, minlength=B)
        parent_b = _safe_score(Gb, Hb, reg_lambda)
        parent = float(parent_b.sum())
        gains = np.empty(len(features))
        splits = np.empty(len(features), dtype=bool)
        if masked_at.size:
            cell = left_of * B + bucket[left_rows]
            GL, HL, CL = (
                np.bincount(cell, weights=w, minlength=masked_at.size * B).reshape(-1, B)
                for w in (left_g, left_h, None)
            )
            child = _safe_score(GL, HL, reg_lambda) + _safe_score(Gb - GL, Hb - HL, reg_lambda)
            gains[masked_at] = 0.5 * (child.sum(axis=1) - parent)
            splits[masked_at] = ((CL > 0) & (CL < size)).any(axis=1)
        if sweep is not None:
            gains[sweep.candidates], splits[sweep.candidates] = sweep.gains(
                size, start, Gb, Hb, parent_b, reg_lambda
            )
        if not splits.any():
            break
        best = gains[splits].max()
        if best <= 0:
            break
        tol = _LEVEL_TIE_TOL * (1.0 + abs(parent))
        k = int(np.flatnonzero(splits & (gains >= best - tol))[0])
        levels.append((features[k], thresholds[k]))
        right = ~_split_mask(X[:, features[k]], thresholds[k], missing_left=True)
        leaf = leaf * 2 + right
        if sweep is not None:
            sweep.partition(right, np.bincount(bucket[right], minlength=B), size, start)
        split_bucket = bucket * 2 + right
        bucket = (np.cumsum(np.bincount(split_bucket) > 0) - 1)[split_bucket]

    leaf_ids = np.unique(leaf)  # bucket ranks these; each bin sums its rows in row order
    denom = np.bincount(bucket, weights=h) + reg_lambda
    leaf_values = np.zeros(leaf_ids.size)
    np.divide(-np.bincount(bucket, weights=g), denom, out=leaf_values, where=denom > 0)
    kept = leaf_values != 0
    return ObliviousTree(tuple(levels), leaf_ids[kept], leaf_values[kept], d)


def _threshold_to_json(thr):
    if isinstance(thr, frozenset):
        return {"levels": sorted(int(v) for v in thr)}
    return float(thr)


def _threshold_from_json(obj):
    if isinstance(obj, dict):
        return frozenset(_index(v, math.inf, "categorical level") for v in obj["levels"])
    return _number(obj, "threshold")


def tree_to_dict(tree) -> dict:
    if isinstance(tree, Stump):
        return {
            "kind": "stump",
            "feature_index": tree.feature_index,
            "threshold": _threshold_to_json(tree.threshold),
            "left_class": tree.left_class,
            "right_class": tree.right_class,
        }
    if isinstance(tree, RegressionTree):
        nodes = []
        for i, f in enumerate(tree.feature.tolist()):
            if f < 0:
                nodes.append({"value": float(tree.value[i])})
                continue
            nodes.append(
                {
                    "feature_index": f,
                    "threshold": _threshold_to_json(tree.threshold[i]),
                    "default_direction": "left" if tree.default_left[i] else "right",
                    "left": int(tree.left[i]),
                    "right": int(tree.right[i]),
                }
            )
        return {"kind": "regression", "n_features": tree.n_features, "nodes": nodes}
    if isinstance(tree, ObliviousTree):
        return {
            "kind": "oblivious",
            "n_features": tree.n_features,
            "levels": [
                {"feature_index": f, "threshold": _threshold_to_json(t)} for f, t in tree.levels
            ],
            "leaf_index": tree.leaf_ids.tolist(),
            "leaf_values": tree.leaf_values.tolist(),
        }
    raise TypeError(f"not a serializable tree: {type(tree)!r}")


def _index(value, stop: int, what: str = "feature_index") -> int:
    """value as an index in [0, stop); anything else, a bool too, is MalformedModel."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < stop:
        raise MalformedModel(f"{what} {value!r} is not an int in [0, {stop})")
    return value


def _number(value, what: str) -> float:
    """value as a float; a bool or anything but an int or a float is MalformedModel."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedModel(f"{what} {value!r} is not a number")
    return float(value)


def _one_of(value, allowed: tuple, what: str):
    """value if it is one of allowed, of the same type (so True is not 1)."""
    if not any(type(value) is type(a) and value == a for a in allowed):
        raise MalformedModel(f"{what} {value!r} is not one of {allowed}")
    return value


def tree_from_dict(d: dict, n_features: int, format_version: int = 2):
    """Rebuild a learner that reads an n_features-column matrix; a tree that
    records another width or splits outside [0, n_features) is MalformedModel.
    Regression nodes are renumbered into pre-order from node 0, so any layout
    loads; a child index that is not a node, or a node reached twice, is not.
    An oblivious tree of format_version 1 lists every leaf and no leaf_index.
    """
    kind = d["kind"]
    if kind != "stump" and _index(d["n_features"], math.inf, "n_features") != n_features:
        raise MalformedModel(f"{kind} tree reads {d['n_features']!r} columns, not {n_features}")

    if kind == "stump":
        return Stump(
            _index(d["feature_index"], n_features),
            _threshold_from_json(d["threshold"]),
            _one_of(d["left_class"], (-1, 1), "left_class"),
            _one_of(d["right_class"], (-1, 1), "right_class"),
        )
    if kind == "regression":
        entries = d["nodes"]
        seen: set[int] = set()
        nodes: list[list] = []
        todo = [(0, -1)]  # (entry index, parent of a right child), as in the fit
        while todo:
            j, right_of = todo.pop()
            j = _index(j, len(entries), "node index")
            if j in seen:
                raise MalformedModel(f"node {j} is reached twice")
            seen.add(j)
            i = len(nodes)
            if right_of >= 0:
                nodes[right_of][_RIGHT] = i
            entry = entries[j]
            if "value" in entry:  # the gradient and hessian sums of older files are ignored
                nodes.append([-1, None, True, -1, -1, _number(entry["value"], "value")])
            else:
                f = _index(entry["feature_index"], n_features)
                thr = _threshold_from_json(entry["threshold"])
                direction = _one_of(entry["default_direction"], ("left", "right"), "default_direction")
                nodes.append([f, thr, direction == "left", i + 1, -1, 0.0])
                todo += [(entry["right"], i), (entry["left"], -1)]
        return _regression_tree(nodes, n_features)
    if kind == "oblivious":
        levels = tuple(
            (_index(lv["feature_index"], n_features), _threshold_from_json(lv["threshold"]))
            for lv in d["levels"]
        )
        if len(levels) > MAX_OBLIVIOUS_DEPTH:
            raise MalformedModel(f"an oblivious tree of {len(levels)} levels, over {MAX_OBLIVIOUS_DEPTH}")
        if format_version == 1:  # every leaf, zeros too (and sums, which are ignored)
            leaf_ids = np.arange(1 << len(levels), dtype=np.int64)
        else:
            index = [_index(i, 1 << len(levels), "leaf_index") for i in d["leaf_index"]]
            leaf_ids = np.array(index, dtype=np.int64)
            if (leaf_ids[1:] <= leaf_ids[:-1]).any():
                raise MalformedModel("leaf_index is not strictly increasing")
        if leaf_ids.size != len(d["leaf_values"]):
            raise MalformedModel("leaf_index and leaf_values differ in length")
        leaf_values = np.array([_number(v, "leaf value") for v in d["leaf_values"]], dtype=np.float64)
        kept = leaf_values != 0
        return ObliviousTree(levels, leaf_ids[kept], leaf_values[kept], n_features)
    raise MalformedModel(f"unknown tree kind {kind!r}")

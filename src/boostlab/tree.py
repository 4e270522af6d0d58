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

Stumps and regression trees enumerate their candidates through one kernel,
_candidates. A fit sorts each non-categorical column once (_sorted_rows): its
non-missing rows in stable (value, row) order. Any subset of the rows, such as
a tree node, keeps that order, so the kernel filters the presorted rows instead
of sorting again and its prefix sums add up the same numbers in the same order
as a sort of the subset would. Each learner passes its own per-row statistics
(stump: the weight each leaf class misclassifies; regression tree: gradient and
hessian) and keeps its own missing-value routing, gain or error formula and tie
rule. Oblivious trees use a bucket-partitioned search instead, since a level's
gain sums over every leaf bucket (see fit_oblivious_tree).

Candidate enumeration order is feature index ascending, then threshold
ascending, then orientation / default direction, and ties keep the earliest
candidate, so fits are fully deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    at a leaf; split node i sends a row to left[i] or right[i]. value,
    grad_sum and hess_sum are the node's -G/(H+lam), G and H."""

    feature: np.ndarray
    threshold: np.ndarray  # float or frozenset of levels; None at a leaf
    default_left: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    grad_sum: np.ndarray
    hess_sum: np.ndarray
    n_features: int

    def leaves(self) -> np.ndarray:
        return np.flatnonzero(self.feature < 0)

    def depth(self) -> int:
        depth = np.zeros(self.feature.size, dtype=np.int64)
        for i in np.flatnonzero(self.feature >= 0):
            depth[[self.left[i], self.right[i]]] = depth[i] + 1
        return int(depth.max())

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
_NODE_DTYPES = (np.int64, object, bool, np.int64, np.int64, np.float64, np.float64, np.float64)
_RIGHT = 4  # the position of right in a node row


def _regression_tree(nodes: list[list], n_features: int) -> RegressionTree:
    return RegressionTree(*(np.array(c, dtype=t) for c, t in zip(zip(*nodes), _NODE_DTYPES)), n_features)


@dataclass
class ObliviousTree:
    """Symmetric tree: one (feature, threshold) test per level.

    A row's leaf index is the bit string of its per-level comparisons, earlier
    levels in higher bits, with bit 1 meaning "went right". A model file lists
    only the non-zero leaf_values: an unlisted leaf predicts 0.
    """

    levels: tuple[tuple[int, float | frozenset[int]], ...]
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
        return self.leaf_values[self.leaf_index(X)]


def _check_matrix(X, n_features: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise SchemaMismatch(f"expected {n_features} feature columns, got shape {X.shape}")
    return X


def _split_mask(col: np.ndarray, threshold, *, missing_left: bool) -> np.ndarray:
    """Boolean mask of rows routed left by a split test."""
    missing = np.isnan(col)
    if isinstance(threshold, frozenset):
        left = np.isin(col, list(threshold))
    else:
        left = col <= threshold
    left = left & ~missing
    if missing_left:
        left |= missing
    return left


def _boundaries(sorted_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sizes and midpoint thresholds between consecutive distinct values."""
    change = np.flatnonzero(sorted_values[1:] > sorted_values[:-1])
    return change + 1, (sorted_values[change] + sorted_values[change + 1]) / 2.0


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


def _sorted_rows(X: np.ndarray, kinds) -> list[np.ndarray | None]:
    """Per column, its non-missing rows in stable (value, row) order; None for a
    categorical column. A subset of the rows keeps this order."""
    order = np.argsort(X.T, axis=1, kind="stable")  # NaN sorts last
    n_observed = X.shape[0] - np.isnan(X).sum(axis=0)
    return [
        None if kinds is not None and kinds[f].is_categorical else order[f, : n_observed[f]]
        for f in range(X.shape[1])
    ]


def _candidates(X: np.ndarray, sorted_rows, member: np.ndarray, stats: np.ndarray):
    """Yield (feature, thresholds, left) for each feature that offers a split of
    the member rows (a boolean row mask), in feature order.

    stats holds k per-row statistics, shape (n, k), and left has one row of k
    sums per threshold. Numeric and binary features: thresholds are the
    midpoints between consecutive distinct member values, ascending, and left
    sums the member rows at or below each one. Categorical features: thresholds
    are the single-level sets of the member levels, ascending, and left sums
    each level's rows. Missing rows are in no sum. Prefix sums run sequentially
    in (value, row) order and level sums are 1-D sums in row order, per column,
    so their bits do not depend on k or on the rows outside member.
    """
    members = None
    for f, order in enumerate(sorted_rows):
        if order is not None:
            rows = order[member[order]]
            prefix, thresholds = _boundaries(X[rows, f])
            if thresholds.size:
                left = stats[rows]
                np.cumsum(left, axis=0, out=left)  # in place: one (rows, k) copy
                left = left[prefix - 1]
                yield f, thresholds.tolist(), left
            continue
        if members is None:
            members = np.flatnonzero(member)
        col = X[members, f]
        levels = np.unique(col[~np.isnan(col)])
        if levels.size:
            # a transposed copy makes each column contiguous, so each sum is
            # the pairwise sum of a 1-D array
            left = [stats[members[col == v]].T.copy().sum(axis=1) for v in levels]
            yield f, [frozenset({int(v)}) for v in levels], np.array(left)


def fit_stump(
    X: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    kinds: tuple[FeatureKind, ...] | None = None,
) -> tuple[Stump, float]:
    """Exhaustive greedy stump minimizing weighted 0/1 error over all candidates.

    y must be ±1 and weights non-negative summing to 1. If one class carries
    zero weight the constant majority predictor is returned. The returned
    error never exceeds 0.5 because both orientations are searched.
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

    # stats column missed[c] is the weight a leaf of class c gets wrong
    missed = {-1: 0, 1: 1}
    stats = np.column_stack([w * (y != -1), w * (y != 1)])
    sorted_rows = _sorted_rows(X, kinds)
    best_err = np.inf
    best: Stump | None = None
    for f, thresholds, left in _candidates(X, sorted_rows, np.ones(n, dtype=bool), stats):
        errs = np.empty((len(thresholds), 2))
        if sorted_rows[f] is None:
            # Categorical, missing rows go right. Each error is one sum over the
            # misclassified rows in row order: a total minus the level sums in
            # left would round differently and move AdaBoost's alphas by an ulp.
            for ti, level in enumerate(thresholds):
                in_set = _split_mask(X[:, f], level, missing_left=False)
                for oi, (lc, rc) in enumerate(_ORIENTATIONS):
                    errs[ti, oi] = w[np.where(in_set, y != lc, y != rc)].sum()
        else:  # missing rows go left
            order, missing = sorted_rows[f], np.isnan(X[:, f])
            for oi, (lc, rc) in enumerate(_ORIENTATIONS):
                right_mis = stats[order, missed[rc]].sum() - left[:, missed[rc]]
                errs[:, oi] = left[:, missed[lc]] + right_mis + w[missing & (y != lc)].sum()
        flat = errs.reshape(-1)
        k = int(np.flatnonzero(flat <= flat.min() + _TIE_TOL)[0])
        if flat[k] < best_err - _TIE_TOL:
            ti, oi = divmod(k, 2)
            lc, rc = _ORIENTATIONS[oi]
            best_err = float(flat[k])
            best = Stump(f, thresholds[ti], lc, rc)
    if best is None:
        return constant()
    return best, best_err


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
) -> RegressionTree:
    """Greedy top-down tree on gradient/hessian sums.

    Split gain is 0.5 * (GL^2/(HL+lam) + GR^2/(HR+lam) - G^2/(H+lam)) - gamma
    and a split is kept only when the gain is strictly positive and both
    children reach min_child_weight hessian mass. Missing rows follow the
    default direction that maximizes gain (left on ties). Leaf values are
    -G/(H+lam).
    """
    X, g, h = _fit_inputs(X, "tree", "grads and hessians", grads, hessians)
    if (h < 0).any():
        raise ValueError("hessians must be non-negative")
    n, d = X.shape
    stats = np.column_stack([g, h])
    sorted_rows = _sorted_rows(X, kinds)

    # A work list rather than a recursive closure, which would be a reference
    # cycle keeping the presorted rows alive until the garbage collector ran.
    # A left child is popped right after its parent, so nodes are appended in
    # pre-order; a right child enters its index in its parent when popped.
    nodes: list[list] = []
    todo = [(np.arange(n), 0, -1)]  # (rows, depth, parent of a right child)
    while todo:
        idx, depth, right_of = todo.pop()
        i = len(nodes)
        if right_of >= 0:
            nodes[right_of][_RIGHT] = i
        G = float(g[idx].sum())
        H = float(h[idx].sum())
        denom = H + reg_lambda
        nodes.append([-1, None, True, -1, -1, -G / denom if denom > 0 else 0.0, G, H])
        if depth >= max_depth or idx.size < 2:
            continue
        parent = G * G / denom if denom > 0 else 0.0
        member = np.zeros(n, dtype=bool)
        member[idx] = True
        best_gain = 0.0
        best = None  # (feature, threshold, default_left)
        for f, thresholds, left in _candidates(X, sorted_rows, member, stats):
            missing = np.isnan(X[idx, f])
            gm = float(g[idx][missing].sum())
            hm = float(h[idx][missing].sum())
            gains = np.full((len(thresholds), 2), -np.inf)
            for di, default_left in enumerate((True, False)):
                GL = left[:, 0] + (gm if default_left else 0.0)
                HL = left[:, 1] + (hm if default_left else 0.0)
                GR = G - GL
                HR = H - HL
                valid = (HL >= min_child_weight) & (HR >= min_child_weight)
                score = 0.5 * (_safe_score(GL, HL, reg_lambda) + _safe_score(GR, HR, reg_lambda) - parent) - gamma
                gains[:, di] = np.where(valid, score, -np.inf)
            flat = gains.reshape(-1)
            k = int(np.argmax(flat))
            if flat[k] > best_gain:
                ti, di = divmod(k, 2)
                best_gain = float(flat[k])
                best = (f, thresholds[ti], di == 0)
        if best is None:
            continue
        f, thr, default_left = best
        nodes[i][:4] = [f, thr, default_left, i + 1]
        left_mask = _split_mask(X[idx, f], thr, missing_left=default_left)
        todo += [(idx[~left_mask], depth + 1, i), (idx[left_mask], depth + 1, -1)]
    return _regression_tree(nodes, d)


def _level_candidates(X: np.ndarray, kinds):
    """Every candidate split of an oblivious level, in enumeration order, as
    parallel lists of features and thresholds, and how the search finds their
    gains: masked lists (candidate, its left rows, missing rows included) for
    categorical and single-threshold columns, swept lists (first candidate,
    rows in value order with the missing rows first, position of the last
    left row at each threshold) for the columns of several thresholds."""
    n, d = X.shape
    missing = np.isnan(X)
    features: list[int] = []
    thresholds: list[float | frozenset[int]] = []
    masked: list[tuple[int, np.ndarray]] = []
    swept: list[tuple[int, np.ndarray, np.ndarray]] = []
    for f in range(d):
        col, skipped = X[:, f], missing[:, f]
        values, counts = np.unique(col[~skipped], return_counts=True)
        if kinds is not None and kinds[f].is_categorical:
            levels = [frozenset({int(v)}) for v in values]
            for i, v in enumerate(values):
                masked.append((len(features) + i, np.flatnonzero((col == v) | skipped)))
        else:
            levels = ((values[:-1] + values[1:]) / 2).tolist()
            if len(levels) == 1:
                masked.append((len(features), np.flatnonzero((col <= levels[0]) | skipped)))
            elif levels:  # argsort puts NaN last
                n_missing = int(skipped.sum())
                order = np.argsort(col, kind="stable")[: n - n_missing]
                rows = np.concatenate([np.flatnonzero(skipped), order])
                swept.append((len(features), rows, n_missing + np.cumsum(counts[:-1]) - 1))
        features += [f] * len(levels)
        thresholds += levels
    return features, thresholds, masked, swept


class _SweptColumns:
    """The columns of several thresholds, searched together.

    order lists each column's rows in value order, missing rows first, one
    column after another, so flat position j * n + i names the i-th row of
    column j. at lists those positions in (bucket, value, row) order, one row
    of at per column. Every column holds every row, so bucket b fills the same
    span of each row of at.
    """

    def __init__(self, swept, g: np.ndarray, h: np.ndarray):
        n = g.size
        self.candidates = np.concatenate([c + np.arange(b.size) for c, _, b in swept])
        self.reads = np.concatenate([j * n + b for j, (_, _, b) in enumerate(swept)])
        self.order = np.concatenate([r for _, r, _ in swept])
        self.g, self.h = g[self.order], h[self.order]
        self.at = np.arange(self.order.size).reshape(len(swept), n)

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
) -> ObliviousTree:
    """Level-by-level greedy symmetric tree.

    Each level picks the single (feature, threshold) maximizing the gain
    summed over all current leaf buckets. Missing rows always go left.
    Split rule: a candidate counts only if it splits at least one bucket into
    two non-empty parts, an exact row count with the missing rows on the
    left. Tie rule: of the candidates that count, the earliest in enumeration
    order whose gain is within _LEVEL_TIE_TOL * (1 + |parent score|) of the
    best wins. Growth stops at the first level where no candidate counts or
    the best gain is not strictly positive, so the recorded depth may be
    shallower than requested, and every level splits a bucket of the rows.

    The search is bucket-partitioned and sorts each column once. For a
    categorical or single-threshold column, one bincount by bucket of each
    candidate's left rows gives its sums. The columns of several thresholds
    are swept (_SweptColumns): their rows stay in (bucket, value) order, a
    stable partition on each chosen level's bit carrying that order to the
    next level.
    """
    X, g, h = _fit_inputs(X, "tree", "grads and hessians", grads, hessians)
    n, d = X.shape
    features, thresholds, masked, swept = _level_candidates(X, kinds)
    masked_at = np.array([c for c, _ in masked], dtype=np.int64)
    left_rows = np.concatenate([r for _, r in masked]) if masked else np.empty(0, dtype=np.int64)
    left_of = np.repeat(np.arange(len(masked)), [r.size for _, r in masked])
    left_g, left_h = g[left_rows], h[left_rows]
    sweep = _SweptColumns(swept, g, h) if swept else None

    leaf = np.zeros(n, dtype=np.int64)  # a row's comparison bits so far
    bucket = np.zeros(n, dtype=np.int64)  # the rank of its leaf among the occupied ones
    levels: list[tuple[int, float | frozenset[int]]] = []
    for _ in range(depth):
        size = np.bincount(bucket)
        B = size.size
        start = np.cumsum(size) - size
        Gb = np.bincount(bucket, weights=g, minlength=B)
        Hb = np.bincount(bucket, weights=h, minlength=B)
        parent_b = _safe_score(Gb, Hb, reg_lambda)
        parent = float(parent_b.sum())
        gains = np.empty(len(features))
        splits = np.empty(len(features), dtype=bool)
        if masked:
            cell = left_of * B + bucket[left_rows]
            GL, HL, CL = (
                np.bincount(cell, weights=w, minlength=len(masked) * B).reshape(-1, B)
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

    n_leaves = 1 << len(levels)
    leaf_g = np.bincount(leaf, weights=g, minlength=n_leaves)
    leaf_h = np.bincount(leaf, weights=h, minlength=n_leaves)
    denom = leaf_h + reg_lambda
    leaf_values = np.zeros(n_leaves)
    np.divide(-leaf_g, denom, out=leaf_values, where=denom > 0)
    return ObliviousTree(tuple(levels), leaf_values, d)


def predict_tree(tree, rows: np.ndarray):
    """Route one row (1-D) or a matrix (2-D) through a fitted learner."""
    rows = np.asarray(rows, dtype=np.float64)
    single = rows.ndim == 1
    X = rows[None, :] if single else rows
    if isinstance(tree, Stump):
        if X.ndim != 2 or (not tree.is_constant and X.shape[1] <= tree.feature_index):
            raise SchemaMismatch(f"row shape {rows.shape} does not fit the stump")
        out = predict_stump(tree, X)
        return int(out[0]) if single else out
    out = tree.predict(X)
    return float(out[0]) if single else out


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
                nodes.append({k: float(getattr(tree, k)[i]) for k in ("value", "grad_sum", "hess_sum")})
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
            "leaf_index": np.flatnonzero(tree.leaf_values).tolist(),
            "leaf_values": tree.leaf_values[tree.leaf_values != 0].tolist(),
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


def tree_from_dict(d: dict, n_features: int):
    """Rebuild a learner that reads an n_features-column matrix; a tree that
    records another width or splits outside [0, n_features) is MalformedModel.
    Regression nodes are renumbered into pre-order from node 0, so any layout
    loads; a child index that is not a node, or a node reached twice, is not.
    """
    kind = d["kind"]
    if kind != "stump" and d["n_features"] != n_features:
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
            if "value" in entry:
                sums = [_number(entry.get(k, 0.0), k) for k in ("value", "grad_sum", "hess_sum")]
                nodes.append([-1, None, True, -1, -1, *sums])
            else:
                f = _index(entry["feature_index"], n_features)
                thr = _threshold_from_json(entry["threshold"])
                direction = _one_of(entry["default_direction"], ("left", "right"), "default_direction")
                nodes.append([f, thr, direction == "left", i + 1, -1, 0.0, 0.0, 0.0])
                todo += [(entry["right"], i), (entry["left"], -1)]
        return _regression_tree(nodes, n_features)
    if kind == "oblivious":
        levels = tuple(
            (_index(lv["feature_index"], n_features), _threshold_from_json(lv["threshold"]))
            for lv in d["levels"]
        )
        leaf_values = np.zeros(2 ** len(levels))
        if len(d["leaf_index"]) != len(d["leaf_values"]):
            raise MalformedModel("leaf_index and leaf_values differ in length")
        index = [_index(i, leaf_values.size, "leaf_index") for i in d["leaf_index"]]
        if any(a >= b for a, b in zip(index, index[1:])):
            raise MalformedModel("leaf_index is not strictly increasing")
        leaf_values[index] = [_number(v, "leaf value") for v in d["leaf_values"]]
        return ObliviousTree(levels, leaf_values, n_features)
    raise MalformedModel(f"unknown tree kind {kind!r}")

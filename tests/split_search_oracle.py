"""The split search that stumps and regression trees used before the node
kernel, kept as an oracle: the new fitters must return the same learners bit
for bit. Each fit sorts every column, and each tree node filters the presorted
rows of the whole matrix and cumsums its statistics per feature. A stump is
the earliest candidate within _TIE_TOL of the least error, over all columns,
and its error the weight it misclassifies.

A numeric column offers a threshold between two neighbouring sorted rows whose
split keys differ (split_keys): the values themselves in a column of at most
MAX_BINS distinct observed values, else their equal-frequency bins, counted
here cell by cell."""

from collections import namedtuple

import numpy as np

from boostlab.tree import (
    _ORIENTATIONS,
    MAX_BINS,
    _TIE_TOL,
    _fit_inputs,
    _preorder_tree,
    _safe_score,
    _went_right,
)

# A stump as this oracle returns it; a constant one is (0, 0.0, c, c).
Stump = namedtuple("Stump", "feature_index threshold left_class right_class")


def split_keys(column):
    """Each cell's split key: its value, when the column holds at most MAX_BINS
    distinct observed values; otherwise the observed cells below the value
    times MAX_BINS over the observed cells, rounded down. A missing cell's is
    NaN."""
    observed = column[~np.isnan(column)]
    if np.unique(observed).size <= MAX_BINS:
        return column
    below = (observed < column[:, None]).sum(axis=1)
    return np.where(np.isnan(column), np.nan, below * MAX_BINS // observed.size)


def _boundaries(sorted_values, sorted_keys):
    change = np.flatnonzero(sorted_keys[1:] > sorted_keys[:-1])
    return change + 1, (sorted_values[change] + sorted_values[change + 1]) / 2.0


def _sorted_rows(X, kinds):
    order = np.argsort(X.T, axis=1, kind="stable")  # NaN sorts last
    n_observed = X.shape[0] - np.isnan(X).sum(axis=0)
    return [
        None if kinds is not None and kinds[f].is_categorical else order[f, : n_observed[f]]
        for f in range(X.shape[1])
    ]


def _candidates(X, sorted_rows, member, stats):
    members = None
    for f, order in enumerate(sorted_rows):
        if order is not None:
            rows = order[member[order]]
            prefix, thresholds = _boundaries(X[rows, f], split_keys(X[:, f])[rows])
            if thresholds.size:
                left = stats[rows]
                np.cumsum(left, axis=0, out=left)
                left = left[prefix - 1]
                yield f, thresholds.tolist(), left
            continue
        if members is None:
            members = np.flatnonzero(member)
        col = X[members, f]
        levels = np.unique(col[~np.isnan(col)])
        if levels.size:
            left = [stats[members[col == v]].T.copy().sum(axis=1) for v in levels]
            yield f, [frozenset({int(v)}) for v in levels], np.array(left)


def fit_stump(X, y, weights, kinds=None):
    X, y, w = _fit_inputs(X, "stump", "y and weights", y, weights)
    n = X.shape[0]
    w_pos = float(w[y == 1].sum())
    w_neg = float(w[y == -1].sum())

    def constant():
        c = 1 if w_pos >= w_neg else -1
        return Stump(0, 0.0, c, c), min(w_pos, w_neg)

    if w_pos == 0.0 or w_neg == 0.0:
        return constant()
    missed = {-1: 0, 1: 1}
    stats = np.column_stack([w * (y != -1), w * (y != 1)])
    sorted_rows = _sorted_rows(X, kinds)
    errs, stumps = [], []  # every candidate's, in enumeration order
    for f, thresholds, left in _candidates(X, sorted_rows, np.ones(n, dtype=bool), stats):
        errs.append(np.empty((len(thresholds), 2)))
        stumps += [Stump(f, thr, lc, rc) for thr in thresholds for lc, rc in _ORIENTATIONS]
        if sorted_rows[f] is None:
            for ti, level in enumerate(thresholds):
                in_set = ~_went_right(X[:, f], level, missing_left=True)  # the level's rows and NaN
                for oi, (lc, rc) in enumerate(_ORIENTATIONS):
                    errs[-1][ti, oi] = w[np.where(in_set, y != lc, y != rc)].sum()
        else:
            order, missing = sorted_rows[f], np.isnan(X[:, f])
            for oi, (lc, rc) in enumerate(_ORIENTATIONS):
                right_mis = stats[order, missed[rc]].sum() - left[:, missed[rc]]
                errs[-1][:, oi] = left[:, missed[lc]] + right_mis + w[missing & (y != lc)].sum()
    if not stumps:
        return constant()
    flat = np.concatenate(errs, axis=None)
    best = stumps[int(np.flatnonzero(flat <= flat.min() + _TIE_TOL)[0])]
    right = _went_right(X[:, best.feature_index], best.threshold, missing_left=True)
    return best, float(w[np.where(right, y != best.right_class, y != best.left_class)].sum())


def fit_regression_tree(
    X, grads, hessians, kinds=None, *, max_depth, min_child_weight=0.0, reg_lambda=0.0, gamma=0.0
):
    X, g, h = _fit_inputs(X, "tree", "grads and hessians", grads, hessians)
    n, d = X.shape
    stats = np.column_stack([g, h])
    sorted_rows = _sorted_rows(X, kinds)

    def expand(item):
        idx, depth = item
        G = float(g[idx].sum())
        H = float(h[idx].sum())
        denom = H + reg_lambda
        value = -G / denom if denom > 0 else 0.0
        if depth >= max_depth or idx.size < 2:
            return value, ()
        parent = G * G / denom if denom > 0 else 0.0
        member = np.zeros(n, dtype=bool)
        member[idx] = True
        best_gain = 0.0
        best = None
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
                child = _safe_score(GL, HL, reg_lambda) + _safe_score(GR, HR, reg_lambda)
                score = 0.5 * (child - parent) - gamma
                gains[:, di] = np.where(valid, score, -np.inf)
            flat = gains.reshape(-1)
            k = int(np.argmax(flat))
            if flat[k] > best_gain:
                ti, di = divmod(k, 2)
                best_gain = float(flat[k])
                best = (f, thresholds[ti], di == 0)
        if best is None:
            return value, ()
        f, thr, default_left = best
        left_mask = ~_went_right(X[idx, f], thr, missing_left=default_left)
        return best, ((idx[~left_mask], depth + 1), (idx[left_mask], depth + 1))

    return _preorder_tree((np.arange(n), 0), expand, d)

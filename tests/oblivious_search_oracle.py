"""The oblivious level search as it was before each level sorted its bucket
ids, kept as an oracle: fit_oblivious_tree must return the same tree, leaf
values and fitted outputs bit for bit. The swept columns' rows are kept in
(bucket, value) order by a stable partition on each chosen level's bit, and
the leaves are found by np.unique. A swept column offers a threshold where
the split keys of two neighbouring sorted rows differ, as in
split_search_oracle."""

import numpy as np

from boostlab.tree import (
    _TIE_TOL,
    MAX_OBLIVIOUS_DEPTH,
    ObliviousTree,
    _fit_inputs,
    _midpoint,
    _presorted,
    _went_right,
)

from split_search_oracle import split_keys


def _safe_score(G, H, lam):
    denom = H + lam
    out = np.zeros_like(np.asarray(G, dtype=np.float64))
    np.divide(G * G, denom, out=out, where=denom > 0)
    return out


class _LevelCandidates:
    """Every candidate split of an oblivious level, in enumeration order:
    masked (categorical and single-threshold) candidates with the rows each
    sends left, and swept columns with their rows in value order, missing
    rows first."""

    def __init__(self, presort):
        n = presort.X.shape[0]
        self.features, self.thresholds = [], []
        masked, swept = [], []
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
                keys = split_keys(col)[order]
                end = np.flatnonzero(keys[:-1] < keys[1:])
                levels = [_midpoint(lo, hi) for lo, hi in zip(values[end].tolist(), values[end + 1].tolist())]
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
    """The columns of several thresholds; at holds their flat positions in
    (bucket, value, row) order, one row per column, partitioned per level."""

    def __init__(self, candidates, g, h):
        self.candidates, self.reads, self.order = candidates.swept_at, candidates.reads, candidates.rows
        self.g, self.h = g[self.order], h[self.order]
        self.at = np.arange(self.order.size).reshape(-1, g.size)

    def gains(self, size, start, Gb, Hb, parent_b, reg_lambda):
        at = self.at
        pos = np.repeat(np.arange(size.size), size)
        end = start + size - 1
        GL = np.cumsum(self.g[at], axis=1) - (np.cumsum(Gb) - Gb)[pos]
        HL = np.cumsum(self.h[at], axis=1) - (np.cumsum(Hb) - Hb)[pos]
        term = _safe_score(GL, HL, reg_lambda) + _safe_score(Gb[pos] - GL, Hb[pos] - HL, reg_lambda)
        change = np.empty_like(term)
        change[:, 1:] = term[:, 1:] - term[:, :-1]
        change[:, start] = term[:, start] - parent_b
        moved = np.empty(at.size)
        moved[at] = change
        gains = 0.5 * np.cumsum(moved.reshape(at.shape), axis=1).ravel()[self.reads]
        flips = np.zeros(at.size, dtype=np.int32)
        two = size > 1
        flips[at[:, start[two]]] = 1
        flips[at[:, end[two]]] = -1
        splits = np.cumsum(flips.reshape(at.shape), axis=1, dtype=np.int32).ravel()[self.reads] > 0
        return gains, splits

    def partition(self, right, n_right, size, start):
        bits = right[self.order[self.at]]
        n_left = size - n_right
        parted = np.empty_like(self.at)
        for side, count, first in ((~bits, n_left, start), (bits, n_right, start + n_left)):
            to = np.repeat(first - (np.cumsum(count) - count), count) + np.arange(count.sum())
            parted[:, to] = self.at[side].reshape(self.at.shape[0], -1)
        self.at = parted


def fit_oblivious_tree(X, grads, hessians, kinds=None, *, depth, reg_lambda=0.0, fitted=None):
    X, g, h = _fit_inputs(X, "tree", "grads and hessians", grads, hessians)
    n, d = X.shape
    candidates = _LevelCandidates(_presorted(X, kinds, None))
    features, thresholds = candidates.features, candidates.thresholds
    masked_at, left_rows, left_of = candidates.masked_at, candidates.left_rows, candidates.left_of
    left_g, left_h = g[left_rows], h[left_rows]
    sweep = _SweptColumns(candidates, g, h) if candidates.swept_at is not None else None

    leaf = np.zeros(n, dtype=np.int64)
    bucket = np.zeros(n, dtype=np.int64)
    levels = []
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
        tol = _TIE_TOL * (1.0 + abs(parent))
        if not best > 0 or np.isnan(best - tol):
            break
        k = int(np.flatnonzero(splits & (gains >= best - tol))[0])
        levels.append((features[k], thresholds[k]))
        right = _went_right(X[:, features[k]], thresholds[k], missing_left=True)
        leaf = leaf * 2 + right
        if sweep is not None:
            sweep.partition(right, np.bincount(bucket[right], minlength=B), size, start)
        split_bucket = bucket * 2 + right
        bucket = (np.cumsum(np.bincount(split_bucket) > 0) - 1)[split_bucket]

    leaf_ids = np.unique(leaf)
    denom = np.bincount(bucket, weights=h) + reg_lambda
    leaf_values = np.zeros(leaf_ids.size)
    np.divide(-np.bincount(bucket, weights=g), denom, out=leaf_values, where=denom > 0)
    if fitted is not None:  # a zero leaf, which the tree drops, predicts +0.0
        fitted[:] = np.where(leaf_values != 0, leaf_values, 0.0)[bucket]
    return ObliviousTree(tuple(levels), leaf_ids, leaf_values, d)

"""Weak learners: weighted decision stumps, depth-limited regression trees with
second-order split gain, and oblivious (symmetric) trees.

Split tests are "value <= threshold goes left" for numeric and binary columns
(thresholds are midpoints between consecutive distinct values) and "level in
set goes left" for categorical columns (single-level sets only; levels not in
the set, including levels unseen in training, go right).

Missing values (NaN): stumps route them left on numeric columns; regression
trees route them along a learned per-node default direction; oblivious trees
always route them left.

Candidate enumeration order is feature index ascending, then threshold
ascending, then orientation / default direction, and ties keep the earliest
candidate, so fits are fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import FeatureKind
from .errors import EmptyData, MalformedModel, SchemaMismatch

_ORIENTATIONS = ((-1, 1), (1, -1))

# Candidate errors are float sums, so mathematically tied candidates can differ
# by an ulp depending on summation order; ties within this margin keep the
# earliest candidate (lowest feature, lowest threshold, first orientation).
_TIE_TOL = 1e-12


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
class TreeNode:
    is_leaf: bool = True
    feature_index: int = -1
    threshold: float | frozenset[int] | None = None
    default_left: bool = True
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0
    grad_sum: float = 0.0
    hess_sum: float = 0.0


@dataclass
class RegressionTree:
    root: TreeNode
    n_features: int

    def leaves(self) -> list[TreeNode]:
        out: list[TreeNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node)
            else:
                stack.append(node.right)
                stack.append(node.left)
        return out

    def depth(self) -> int:
        def rec(node):
            if node.is_leaf:
                return 0
            return 1 + max(rec(node.left), rec(node.right))

        return rec(self.root)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = _check_matrix(X, self.n_features)
        out = np.empty(X.shape[0])

        def rec(node, idx):
            if node.is_leaf:
                out[idx] = node.value
                return
            col = X[idx, node.feature_index]
            left = _split_mask(col, node.threshold, missing_left=node.default_left)
            rec(node.left, idx[left])
            rec(node.right, idx[~left])

        rec(self.root, np.arange(X.shape[0]))
        return out


@dataclass
class ObliviousTree:
    """Symmetric tree: one (feature, threshold) test per level.

    A row's leaf index is the bit string of its per-level comparisons, earlier
    levels in higher bits, with bit 1 meaning "went right".
    """

    levels: tuple[tuple[int, float | frozenset[int]], ...]
    leaf_values: np.ndarray
    leaf_grad_sums: np.ndarray
    leaf_hess_sums: np.ndarray
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


def _is_categorical(kinds, f: int) -> bool:
    return kinds is not None and kinds[f].is_categorical


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
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    w = np.asarray(weights, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    n, d = X.shape
    if n == 0:
        raise EmptyData("cannot fit a stump on zero rows")
    if y.shape != (n,) or w.shape != (n,):
        raise ValueError("y and weights must match the row count")
    if not np.isin(y, (-1, 1)).all():
        raise ValueError("labels must be -1 or +1")

    w_pos = float(w[y == 1].sum())
    w_neg = float(w[y == -1].sum())

    def constant():
        c = 1 if w_pos >= w_neg else -1
        return Stump(0, 0.0, c, c), min(w_pos, w_neg)

    if w_pos == 0.0 or w_neg == 0.0:
        return constant()

    best_err = np.inf
    best: Stump | None = None
    for f in range(d):
        col = X[:, f]
        missing = np.isnan(col)
        if _is_categorical(kinds, f):
            for lvl in np.unique(col[~missing]):
                in_set = col == lvl
                for lc, rc in _ORIENTATIONS:
                    err = float(w[np.where(in_set, y != lc, y != rc)].sum())
                    if err < best_err - _TIE_TOL:
                        best_err = err
                        best = Stump(f, frozenset({int(lvl)}), lc, rc)
            continue
        obs = ~missing
        if not obs.any():
            continue
        order = np.argsort(col[obs], kind="stable")
        vs = col[obs][order]
        ys = y[obs][order]
        ws = w[obs][order]
        prefix, thresholds = _boundaries(vs)
        if thresholds.size == 0:
            continue
        errs = np.empty((thresholds.size, 2))
        for oi, (lc, rc) in enumerate(_ORIENTATIONS):
            left_mis = np.cumsum(ws * (ys != lc))[prefix - 1]
            right_all = ws * (ys != rc)
            right_mis = right_all.sum() - np.cumsum(right_all)[prefix - 1]
            miss_mis = float(w[missing][y[missing] != lc].sum())
            errs[:, oi] = left_mis + right_mis + miss_mis
        flat = errs.reshape(-1)
        k = int(np.flatnonzero(flat <= flat.min() + _TIE_TOL)[0])
        if flat[k] < best_err - _TIE_TOL:
            ti, oi = divmod(k, 2)
            lc, rc = _ORIENTATIONS[oi]
            best_err = float(flat[k])
            best = Stump(f, float(thresholds[ti]), lc, rc)
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


def _leaf_value(G: float, H: float, lam: float) -> float:
    denom = H + lam
    return -G / denom if denom > 0 else 0.0


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
    X = np.asarray(X, dtype=np.float64)
    g = np.asarray(grads, dtype=np.float64)
    h = np.asarray(hessians, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    n, d = X.shape
    if n == 0:
        raise EmptyData("cannot fit a tree on zero rows")
    if g.shape != (n,) or h.shape != (n,):
        raise ValueError("grads and hessians must match the row count")
    if (h < 0).any():
        raise ValueError("hessians must be non-negative")

    def best_split(idx, G, H):
        parent_denom = H + reg_lambda
        parent = G * G / parent_denom if parent_denom > 0 else 0.0
        best_gain = 0.0
        best = None  # (feature, threshold, default_left, left_mask)
        for f in range(d):
            col = X[idx, f]
            missing = np.isnan(col)
            gm = float(g[idx][missing].sum())
            hm = float(h[idx][missing].sum())
            cand: list[tuple[float, object]] = []
            if _is_categorical(kinds, f):
                gl_list, hl_list, thr_list = [], [], []
                for lvl in np.unique(col[~missing]):
                    sel = col == lvl
                    gl_list.append(float(g[idx][sel].sum()))
                    hl_list.append(float(h[idx][sel].sum()))
                    thr_list.append(frozenset({int(lvl)}))
                if not thr_list:
                    continue
                GLo = np.array(gl_list)
                HLo = np.array(hl_list)
                thresholds = thr_list
            else:
                obs = ~missing
                if not obs.any():
                    continue
                order = np.argsort(col[obs], kind="stable")
                vs = col[obs][order]
                prefix, thr = _boundaries(vs)
                if thr.size == 0:
                    continue
                GLo = np.cumsum(g[idx][obs][order])[prefix - 1]
                HLo = np.cumsum(h[idx][obs][order])[prefix - 1]
                thresholds = [float(t) for t in thr]
            gains = np.full((len(thresholds), 2), -np.inf)
            for di, default_left in enumerate((True, False)):
                GL = GLo + (gm if default_left else 0.0)
                HL = HLo + (hm if default_left else 0.0)
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
            return None
        f, thr, default_left = best
        left_mask = _split_mask(X[idx, f], thr, missing_left=default_left)
        return f, thr, default_left, left_mask

    def grow(idx, depth):
        G = float(g[idx].sum())
        H = float(h[idx].sum())
        node = TreeNode(value=_leaf_value(G, H, reg_lambda), grad_sum=G, hess_sum=H)
        if depth >= max_depth or idx.size < 2:
            return node
        found = best_split(idx, G, H)
        if found is None:
            return node
        f, thr, default_left, left_mask = found
        node.is_leaf = False
        node.feature_index = f
        node.threshold = thr
        node.default_left = default_left
        node.left = grow(idx[left_mask], depth + 1)
        node.right = grow(idx[~left_mask], depth + 1)
        return node

    return RegressionTree(grow(np.arange(n), 0), d)


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
    summed over all current leaf buckets; growth stops at the first level
    without a strictly positive gain, so the recorded depth may be shallower
    than requested. Missing rows always go left.
    """
    X = np.asarray(X, dtype=np.float64)
    g = np.asarray(grads, dtype=np.float64)
    h = np.asarray(hessians, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    n, d = X.shape
    if n == 0:
        raise EmptyData("cannot fit a tree on zero rows")
    if g.shape != (n,) or h.shape != (n,):
        raise ValueError("grads and hessians must match the row count")

    bucket = np.zeros(n, dtype=np.int64)
    levels: list[tuple[int, float | frozenset[int]]] = []
    for _ in range(depth):
        uniq, dense = np.unique(bucket, return_inverse=True)
        B = uniq.size
        Gb = np.bincount(dense, weights=g, minlength=B)
        Hb = np.bincount(dense, weights=h, minlength=B)
        parent = float(_safe_score(Gb, Hb, reg_lambda).sum())
        best_gain = 0.0
        best = None
        for f in range(d):
            col = X[:, f]
            missing = np.isnan(col)
            if _is_categorical(kinds, f):
                for lvl in np.unique(col[~missing]):
                    left = (col == lvl) | missing
                    GL = np.bincount(dense[left], weights=g[left], minlength=B)
                    HL = np.bincount(dense[left], weights=h[left], minlength=B)
                    child = _safe_score(GL, HL, reg_lambda) + _safe_score(Gb - GL, Hb - HL, reg_lambda)
                    gain = 0.5 * (float(child.sum()) - parent)
                    if gain > best_gain:
                        best_gain = gain
                        best = (f, frozenset({int(lvl)}))
                continue
            obs = np.flatnonzero(~missing)
            if obs.size == 0:
                continue
            order = obs[np.argsort(col[obs], kind="stable")]
            prefix, thresholds = _boundaries(col[order])
            if thresholds.size == 0:
                continue
            m = order.size
            Gmat = np.zeros((m, B))
            Hmat = np.zeros((m, B))
            rows = np.arange(m)
            Gmat[rows, dense[order]] = g[order]
            Hmat[rows, dense[order]] = h[order]
            GL = np.cumsum(Gmat, axis=0)[prefix - 1]
            HL = np.cumsum(Hmat, axis=0)[prefix - 1]
            if missing.any():
                GL = GL + np.bincount(dense[missing], weights=g[missing], minlength=B)
                HL = HL + np.bincount(dense[missing], weights=h[missing], minlength=B)
            child = _safe_score(GL, HL, reg_lambda) + _safe_score(Gb - GL, Hb - HL, reg_lambda)
            gains = 0.5 * (child.sum(axis=1) - parent)
            k = int(np.argmax(gains))
            if gains[k] > best_gain:
                best_gain = float(gains[k])
                best = (f, float(thresholds[k]))
        if best is None:
            break
        f, thr = best
        levels.append((f, thr))
        left = _split_mask(X[:, f], thr, missing_left=True)
        bucket = bucket * 2 + (~left)

    D = len(levels)
    n_leaves = 1 << D
    leaf_g = np.zeros(n_leaves)
    leaf_h = np.zeros(n_leaves)
    np.add.at(leaf_g, bucket, g)
    np.add.at(leaf_h, bucket, h)
    denom = leaf_h + reg_lambda
    leaf_values = np.zeros(n_leaves)
    np.divide(-leaf_g, denom, out=leaf_values, where=denom > 0)
    return ObliviousTree(tuple(levels), leaf_values, leaf_g, leaf_h, d)


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
        return frozenset(int(v) for v in obj["levels"])
    return float(obj)


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
        nodes: list[dict] = []

        def rec(node) -> int:
            i = len(nodes)
            if node.is_leaf:
                nodes.append(
                    {"value": node.value, "grad_sum": node.grad_sum, "hess_sum": node.hess_sum}
                )
            else:
                entry = {
                    "feature_index": node.feature_index,
                    "threshold": _threshold_to_json(node.threshold),
                    "default_direction": "left" if node.default_left else "right",
                }
                nodes.append(entry)
                entry["left"] = rec(node.left)
                entry["right"] = rec(node.right)
            return i

        rec(tree.root)
        return {"kind": "regression", "n_features": tree.n_features, "nodes": nodes}
    if isinstance(tree, ObliviousTree):
        return {
            "kind": "oblivious",
            "n_features": tree.n_features,
            "levels": [
                {"feature_index": f, "threshold": _threshold_to_json(t)} for f, t in tree.levels
            ],
            "leaf_values": [float(v) for v in tree.leaf_values],
            "leaf_grad_sums": [float(v) for v in tree.leaf_grad_sums],
            "leaf_hess_sums": [float(v) for v in tree.leaf_hess_sums],
        }
    raise TypeError(f"not a serializable tree: {type(tree)!r}")


def tree_from_dict(d: dict, n_features: int):
    """Rebuild a learner that reads an n_features-column matrix; a tree that
    records another width or splits outside [0, n_features) is MalformedModel."""
    kind = d["kind"]
    if kind != "stump" and d["n_features"] != n_features:
        raise MalformedModel(f"{kind} tree reads {d['n_features']!r} columns, not {n_features}")

    def feature(index):
        if not (isinstance(index, int) and 0 <= index < n_features):
            raise MalformedModel(f"feature_index {index!r} is outside [0, {n_features})")
        return index

    if kind == "stump":
        return Stump(
            feature(d["feature_index"]),
            _threshold_from_json(d["threshold"]),
            int(d["left_class"]),
            int(d["right_class"]),
        )
    if kind == "regression":
        nodes = d["nodes"]

        def rec(i: int) -> TreeNode:
            entry = nodes[i]
            if "value" in entry:
                return TreeNode(
                    value=float(entry["value"]),
                    grad_sum=float(entry.get("grad_sum", 0.0)),
                    hess_sum=float(entry.get("hess_sum", 0.0)),
                )
            return TreeNode(
                is_leaf=False,
                feature_index=feature(entry["feature_index"]),
                threshold=_threshold_from_json(entry["threshold"]),
                default_left=entry["default_direction"] == "left",
                left=rec(entry["left"]),
                right=rec(entry["right"]),
            )

        return RegressionTree(rec(0), n_features)
    if kind == "oblivious":
        levels = tuple(
            (feature(lv["feature_index"]), _threshold_from_json(lv["threshold"]))
            for lv in d["levels"]
        )
        leaves = [
            np.array(d[key], dtype=np.float64)
            for key in ("leaf_values", "leaf_grad_sums", "leaf_hess_sums")
        ]
        if any(a.shape != (2 ** len(levels),) for a in leaves):
            raise MalformedModel(f"oblivious tree of depth {len(levels)} with wrong leaf count")
        return ObliviousTree(levels, *leaves, n_features)
    raise MalformedModel(f"unknown tree kind {kind!r}")

import math
from dataclasses import replace

import numpy as np
import pytest
import split_search_oracle as oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boostlab import tree as tree_module
from boostlab.dataset import BINARY, NUMERIC, categorical
from boostlab.errors import EmptyData, SchemaMismatch
from boostlab.tree import (
    MAX_OBLIVIOUS_DEPTH,
    ObliviousTree,
    Presort,
    RegressionTree,
    Stump,
    _split_mask,
    fit_oblivious_tree,
    fit_regression_tree,
    fit_stump,
    predict_stump,
    tree_from_dict,
    tree_to_dict,
)

ORIENTATIONS = ((-1, 1), (1, -1))


def node_of(tree, X):
    """The leaf each row of X reaches in a regression tree."""
    return replace(tree, value=np.arange(tree.feature.size, dtype=np.float64)).predict(X).astype(int)


def oracle_best_stump(X, y, w, kinds=None):
    """Exhaustive candidate scan in the documented enumeration order.

    Ties within 1e-12 keep the earliest candidate, mirroring the library's
    tolerance for summation-order float noise.
    """
    X = np.asarray(X, float)
    n, d = X.shape
    w_pos = w[y == 1].sum()
    w_neg = w[y == -1].sum()
    if w_pos == 0 or w_neg == 0:
        c = 1 if w_pos >= w_neg else -1
        return Stump(0, 0.0, c, c), float(min(w_pos, w_neg))
    best, best_err = None, np.inf
    for f in range(d):
        col = X[:, f]
        miss = np.isnan(col)
        if kinds is not None and kinds[f].is_categorical:
            for lvl in np.unique(col[~miss]):
                left = col == lvl
                for lc, rc in ORIENTATIONS:
                    err = float(w[np.where(left, y != lc, y != rc)].sum())
                    if err < best_err - 1e-12:
                        best, best_err = Stump(f, frozenset({int(lvl)}), lc, rc), err
        else:
            vals = np.unique(col[~miss])
            for a, b in zip(vals, vals[1:]):
                t = (a + b) / 2
                left = (col <= t) | miss
                for lc, rc in ORIENTATIONS:
                    err = float(w[np.where(left, y != lc, y != rc)].sum())
                    if err < best_err - 1e-12:
                        best, best_err = Stump(f, float(t), lc, rc), err
    if best is None:
        c = 1 if w_pos >= w_neg else -1
        return Stump(0, 0.0, c, c), float(min(w_pos, w_neg))
    return best, best_err


def candidate_tests(X, kinds):
    """(feature, threshold, rows the test sends left before missing rows are
    routed) of every candidate split, in the documented enumeration order."""
    for f in range(X.shape[1]):
        col = X[:, f]
        miss = np.isnan(col)
        if kinds[f].is_categorical:
            for v in np.unique(col[~miss]):
                yield f, frozenset({int(v)}), col == v
        else:
            vals = np.unique(col[~miss])
            for a, b in zip(vals, vals[1:]):
                yield f, (a + b) / 2, col <= (a + b) / 2


def oracle_split_gains(X, g, h, kinds, lam, directions):
    """Gain of every depth-1 split, with each side summed over a row mask.

    Yields (gain, feature, threshold, default_left) in the documented
    enumeration order; default_left says where missing rows go.
    """
    G, H = g.sum(), h.sum()

    def score(gs, hs):
        return gs * gs / (hs + lam) if hs + lam > 0 else 0.0

    for f, thr, goes_left in candidate_tests(X, kinds):
        miss = np.isnan(X[:, f])
        for default_left in directions:
            left = (goes_left & ~miss) | (miss & default_left)
            GL, HL = g[left].sum(), h[left].sum()
            gain = 0.5 * (score(GL, HL) + score(G - GL, H - HL) - score(G, H))
            yield gain, f, thr, default_left


def kernel_fixture(rng, n):
    """Numeric, binary and categorical columns, with NaNs in the numeric and the
    categorical one; gradients lean on the missing rows so either side can win."""
    X = np.column_stack(
        [
            rng.normal(size=n).round(1),
            rng.integers(0, 2, n).astype(float),
            rng.integers(0, 3, n).astype(float),
        ]
    )
    X[rng.random(n) < 0.25, 0] = np.nan
    X[rng.random(n) < 0.25, 2] = np.nan
    g = rng.normal(size=n) + rng.normal() * np.isnan(X).any(axis=1)
    h = rng.uniform(0.1, 1.0, n)
    return X, g, h, (NUMERIC, BINARY, categorical(3))


class TestFitStump:
    def test_separable(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([-1, -1, 1, 1])
        stump, err = fit_stump(X, y, np.full(4, 0.25))
        assert stump.threshold == 2.5
        assert (stump.left_class, stump.right_class) == (-1, 1)
        assert err == 0.0

    def test_alternating_error_quarter(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([1, -1, -1, 1])
        stump, err = fit_stump(X, y, np.full(4, 0.25))
        assert err == pytest.approx(0.25)
        # exhaustive scan agrees (ties broken by lowest threshold)
        oracle, oracle_err = oracle_best_stump(X, y, np.full(4, 0.25))
        assert stump == oracle and err == pytest.approx(oracle_err, abs=1e-12)

    def test_concentrated_weight(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([1, -1, -1, 1])
        w = np.array([1.0, 0.0, 0.0, 0.0])
        stump, err = fit_stump(X, y, w)
        assert err == 0.0
        assert predict_stump(stump, X)[0] == 1

    def test_error_never_above_half(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(2, 30))
            X = rng.integers(0, 3, (n, 2)).astype(float)
            y = rng.choice([-1, 1], n)
            if len(set(y)) < 2:
                continue
            w = rng.dirichlet(np.ones(n))
            _, err = fit_stump(X, y, w)
            assert err <= 0.5 + 1e-12

    def test_empty_data(self):
        with pytest.raises(EmptyData):
            fit_stump(np.empty((0, 1)), np.empty(0, int), np.empty(0))

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(1)
        kinds = (NUMERIC, BINARY, categorical(3))
        for trial in range(40):
            n = int(rng.integers(2, 40))
            X = np.column_stack(
                [
                    rng.normal(size=n).round(1),
                    rng.integers(0, 2, n).astype(float),
                    rng.integers(0, 3, n).astype(float),
                ]
            )
            y = rng.choice([-1, 1], n)
            if len(set(y)) < 2:
                continue
            w = np.full(n, 1.0 / n) if trial % 2 else rng.dirichlet(np.ones(n))
            got, got_err = fit_stump(X, y, w, kinds)
            want, want_err = oracle_best_stump(X, y, w, kinds)
            assert got == want
            assert got_err == pytest.approx(want_err, abs=1e-12)


class TestRegressionTree:
    def test_zero_grads_and_hessians(self):
        X = np.array([[1.0], [2.0], [3.0]])
        tree = fit_regression_tree(
            X, np.zeros(3), np.zeros(3), max_depth=3, reg_lambda=1.0
        )
        assert tree.feature.tolist() == [-1]
        assert tree.value[0] == 0.0

    def test_hand_arithmetic_leaves(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        grads = np.array([-1.0, -1.0, 1.0, 1.0])
        tree = fit_regression_tree(
            X, grads, np.ones(4), max_depth=1, reg_lambda=1.0, gamma=0.0
        )
        assert tree.feature[0] == 0
        assert tree.threshold[0] == 2.5
        assert tree.value[tree.left[0]] == pytest.approx(2.0 / 3.0)
        assert tree.value[tree.right[0]] == pytest.approx(-2.0 / 3.0)
        assert grads[node_of(tree, X) == tree.left[0]].sum() == -2.0

    def test_gamma_prunes_root(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        grads = np.array([-1.0, -1.0, 1.0, 1.0])
        # best root gain is 4/3 at lambda=1; any larger gamma kills the split
        tree = fit_regression_tree(
            X, grads, np.ones(4), max_depth=3, reg_lambda=1.0, gamma=1.5
        )
        assert tree.feature.tolist() == [-1]

    def test_min_child_weight_blocks_split(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        grads = np.array([-1.0, -1.0, 1.0, 1.0])
        tree = fit_regression_tree(
            X, grads, np.ones(4), max_depth=1, reg_lambda=0.0, min_child_weight=3.0
        )
        assert tree.feature.tolist() == [-1]

    def test_depth_limit(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(64, 3))
        grads = rng.normal(size=64)
        tree = fit_regression_tree(X, grads, np.ones(64), max_depth=2, reg_lambda=1.0)
        depth = np.zeros(tree.feature.size, dtype=int)
        for i in np.flatnonzero(tree.feature >= 0):  # a parent precedes its children
            depth[[tree.left[i], tree.right[i]]] = depth[i] + 1
        assert depth.max() <= 2

    def test_missing_takes_learned_direction(self):
        # missing rows carry strong negative gradient: best routed right with x>=3 rows
        X = np.array([[1.0], [2.0], [3.0], [4.0], [np.nan], [np.nan]])
        grads = np.array([1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
        tree = fit_regression_tree(X, grads, np.ones(6), max_depth=1, reg_lambda=0.0)
        assert tree.feature[0] == 0
        assert not tree.default_left[0]
        missing_row = np.array([[np.nan]])
        assert tree.predict(missing_row)[0] == tree.value[tree.right[0]]

    def test_unseen_categorical_level_routes_right(self):
        kinds = (categorical(4),)
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        grads = np.array([-1.0, -1.0, 1.0, 1.0])
        tree = fit_regression_tree(
            X, grads, np.ones(4), kinds, max_depth=1, reg_lambda=0.0
        )
        assert isinstance(tree.threshold[0], frozenset)
        unseen = np.array([[3.0]])
        assert tree.predict(unseen)[0] == tree.value[tree.right[0]]

    def test_leaf_identity(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 4)).round(1)
        X[rng.random((80, 4)) < 0.15] = np.nan
        grads = rng.normal(size=80)
        hess = rng.uniform(0.01, 1.0, 80)
        lam = 0.7
        tree = fit_regression_tree(
            X, grads, hess, max_depth=4, reg_lambda=lam, min_child_weight=0.0
        )
        node = node_of(tree, X)
        for leaf in tree.leaves():
            g_sum = grads[node == leaf].sum()
            resid = tree.value[leaf] * (hess[node == leaf].sum() + lam) + g_sum
            assert abs(resid) <= 1e-12 * max(1.0, abs(g_sum))

    def test_matches_stump_split_on_signed_labels(self):
        # unit hessians, lambda = gamma = 0: depth-1 tree and stump pick the same split
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(4, 30))
            X = rng.normal(size=(n, 2)).round(1)
            y = rng.choice([-1, 1], n)
            if len(set(y)) < 2:
                continue
            stump, err = fit_stump(X, y, np.full(n, 1.0 / n))
            if stump.is_constant or err == 0.5:
                continue
            tree = fit_regression_tree(
                X, -y.astype(float), np.ones(n), max_depth=1, reg_lambda=0.0
            )
            if err == 0.0:
                # separable data: both must find a clean split at the same place
                assert tree.feature[0] == stump.feature_index
                assert tree.threshold[0] == stump.threshold


    def test_depth_one_gain_matches_oracle(self):
        rng = np.random.default_rng(8)
        directions_taken = set()
        for _ in range(40):
            n = int(rng.integers(4, 50))
            X, g, h, kinds = kernel_fixture(rng, n)
            tree = fit_regression_tree(X, g, h, kinds, max_depth=1, reg_lambda=0.5)
            gains = {
                (f, thr, dl): gain
                for gain, f, thr, dl in oracle_split_gains(X, g, h, kinds, 0.5, (True, False))
            }
            best = max(gains.values(), default=0.0)
            f = int(tree.feature[0])
            if f < 0:
                assert best <= 1e-12
                continue
            key = (f, tree.threshold[0], bool(tree.default_left[0]))
            assert gains[key] == pytest.approx(best, abs=1e-12)
            if np.isnan(X[:, f]).any():
                directions_taken.add(key[2])
        assert directions_taken == {True, False}


class TestObliviousTree:
    def test_depth_one_matches_regression_tree(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        grads = np.array([-1.0, -1.0, 1.0, 1.0])
        reg = fit_regression_tree(X, grads, np.ones(4), max_depth=1, reg_lambda=1.0)
        obl = fit_oblivious_tree(X, grads, np.ones(4), depth=1, reg_lambda=1.0)
        assert obl.levels == ((0, 2.5),)
        assert obl.leaf_values[0] == pytest.approx(reg.value[reg.left[0]])
        assert obl.leaf_values[1] == pytest.approx(reg.value[reg.right[0]])

    def xor_fixture(self):
        # quadrant counts 3/2/1/2 keep every level's gain strictly positive
        rows = [(0, 0)] * 3 + [(0, 1)] * 2 + [(1, 0)] * 1 + [(1, 1)] * 2
        grads = np.array([-1.0] * 3 + [1.0] * 2 + [1.0] * 1 + [-1.0] * 2)
        return np.array(rows, dtype=float), grads

    def oracle_level_gain(self, X, grads, hess, bucket, f, t, lam):
        gain = 0.0
        for b in np.unique(bucket):
            sel = bucket == b
            left = sel & (X[:, f] <= t)
            right = sel & ~(X[:, f] <= t)
            GL, HL = grads[left].sum(), hess[left].sum()
            GR, HR = grads[right].sum(), hess[right].sum()
            G, H = grads[sel].sum(), hess[sel].sum()

            def score(g, h):
                return g * g / (h + lam) if h + lam > 0 else 0.0

            gain += 0.5 * (score(GL, HL) + score(GR, HR) - score(G, H))
        return gain

    def test_xor_two_levels(self):
        X, grads = self.xor_fixture()
        hess = np.ones(len(grads))
        lam = 1.0
        tree = fit_oblivious_tree(X, grads, hess, depth=2, reg_lambda=lam)
        # oracle: enumerate both candidate features at level 1
        g_f0 = self.oracle_level_gain(X, grads, hess, np.zeros(8, int), 0, 0.5, lam)
        g_f1 = self.oracle_level_gain(X, grads, hess, np.zeros(8, int), 1, 0.5, lam)
        assert g_f1 > 0 and g_f1 > g_f0
        assert tree.levels[0] == (1, 0.5)
        bucket = (X[:, 1] > 0.5).astype(int)
        g2_f0 = self.oracle_level_gain(X, grads, hess, bucket, 0, 0.5, lam)
        g2_f1 = self.oracle_level_gain(X, grads, hess, bucket, 1, 0.5, lam)
        assert g2_f0 > g2_f1
        assert tree.levels[1] == (0, 0.5)
        # hand-computed leaf values: quadrants (x2<=.5,x1<=.5), ..., alternating signs
        assert tree.leaf_values == pytest.approx([0.75, -0.5, -2.0 / 3.0, 2.0 / 3.0])
        signs = np.sign(tree.leaf_values)
        assert list(signs) == [1, -1, -1, 1]

    def test_constant_gradients_stop_early(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        grads = np.full(4, 2.0)
        tree = fit_oblivious_tree(X, grads, np.ones(4), depth=3, reg_lambda=1.0)
        assert tree.depth == 0
        assert tree.leaf_values == pytest.approx([-8.0 / 5.0])

    def test_leaf_index_is_comparison_bits(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 3)).round(1)
        grads = rng.normal(size=60)
        tree = fit_oblivious_tree(X, grads, np.ones(60), depth=3, reg_lambda=1.0)
        idx = tree.leaf_index(X)
        manual = np.zeros(60, dtype=int)
        for f, t in tree.levels:
            bit = ~((X[:, f] <= t) | np.isnan(X[:, f]))
            manual = manual * 2 + bit.astype(int)
        assert np.array_equal(idx, manual)

    def test_missing_routes_left(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0], [np.nan]])
        grads = np.array([-1.0, -1.0, 1.0, 1.0, -1.0])
        tree = fit_oblivious_tree(X, grads, np.ones(5), depth=1, reg_lambda=1.0)
        row = np.array([[np.nan]])
        assert tree.leaf_index(row)[0] == 0

    def test_depth_one_gain_matches_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(4, 50))
            X, g, h, kinds = kernel_fixture(rng, n)
            tree = fit_oblivious_tree(X, g, h, kinds, depth=1, reg_lambda=0.5)
            gains = {
                (f, thr): gain for gain, f, thr, _ in oracle_split_gains(X, g, h, kinds, 0.5, (True,))
            }
            best = max(gains.values(), default=0.0)
            if tree.depth == 0:
                assert best <= 1e-12
                continue
            assert gains[tree.levels[0]] == pytest.approx(best, abs=1e-12)

    def test_split_rule_outranks_the_tie_rule(self):
        # {0} sends both rows left, a gain of exactly 0 that is earlier than the
        # numeric split and within the tie margin of its gain of 1e-12
        X = np.array([[0.0, 1.0], [0.0, 2.0]])
        kinds = (categorical(2), NUMERIC)
        tree = fit_oblivious_tree(X, np.array([1e-6, -1e-6]), np.ones(2), kinds, depth=1)
        assert tree.levels == ((1, 1.5),)

    def test_levels_match_row_mask_oracle(self):
        # Each level against every candidate that splits some bucket of the
        # levels above, summed over row masks with NaN on the left: the level
        # is the earliest candidate within the tie margin of the best gain. A
        # tree that stops early has no candidate left with a positive gain.
        rng = np.random.default_rng(11)
        lam = 0.5
        for _ in range(30):
            n = int(rng.integers(4, 60))
            X, g, h, kinds = kernel_fixture(rng, n)
            # and a numeric column of one threshold, with NaNs
            flag = np.where(rng.random(n) < 0.25, np.nan, rng.integers(0, 2, n))
            X, kinds = np.column_stack([X, flag]), (*kinds, NUMERIC)
            depth = int(rng.integers(2, 5))
            tree = fit_oblivious_tree(X, g, h, kinds, depth=depth, reg_lambda=lam)

            def score(rows):
                return g[rows].sum() ** 2 / (h[rows].sum() + lam)

            bucket = np.zeros(n, dtype=int)
            for level in range(tree.depth + 1):
                groups = [bucket == b for b in np.unique(bucket)]
                parent = sum(score(rows) for rows in groups)
                cands = []
                for f, thr, goes_left in candidate_tests(X, kinds):
                    left = goes_left | np.isnan(X[:, f])
                    if any((rows & left).any() and (rows & ~left).any() for rows in groups):
                        child = sum(score(rows & left) + score(rows & ~left) for rows in groups)
                        cands.append((0.5 * (child - parent), (f, thr)))
                tol = 1e-9 * (1 + parent)
                best = max((gain for gain, _ in cands), default=0.0)
                if level == tree.depth:
                    assert depth == tree.depth or best <= tol
                    break
                assert best > 0
                assert tree.levels[level] == next(c for gain, c in cands if gain >= best - tol)
                f, thr = tree.levels[level]
                goes_left = X[:, f] == min(thr) if isinstance(thr, frozenset) else X[:, f] <= thr
                bucket = bucket * 2 + ~(goes_left | np.isnan(X[:, f]))
            # the tree holds the non-zero leaves of the occupied buckets, by id
            assert set(tree.leaf_ids.tolist()) <= set(np.unique(bucket).tolist())
            leaves = dict(zip(tree.leaf_ids.tolist(), tree.leaf_values))
            for b in np.unique(bucket):
                rows = bucket == b
                value = -g[rows].sum() / (h[rows].sum() + lam)
                assert leaves.get(b, 0.0) == pytest.approx(value, abs=1e-12)

    def test_empty_data(self):
        with pytest.raises(EmptyData):
            fit_oblivious_tree(np.empty((0, 2)), np.empty(0), np.empty(0), depth=1)

    def test_growth_stops_at_max_depth(self, monkeypatch):
        # random gradients on 3 000 distinct rows keep a positive gain past 16 levels
        rng = np.random.default_rng(0)
        X, g = rng.normal(size=(3000, 3)), rng.normal(size=3000)
        tree = fit_oblivious_tree(X, g, np.ones(3000), depth=40)
        assert tree.depth == MAX_OBLIVIOUS_DEPTH == 16
        assert 0 < tree.leaf_ids.size <= 3000 and tree.leaf_ids[-1] < 2**16
        monkeypatch.setattr(tree_module, "MAX_OBLIVIOUS_DEPTH", 18)
        assert fit_oblivious_tree(X, g, np.ones(3000), depth=40).depth == 18


# (lo, hi) pairs whose midpoint (lo + hi) / 2 overflows or rounds up to hi
WIDE_OR_ADJACENT = [
    (1e308, 1.7e308),
    (-1.7e308, -1e308),
    (math.nextafter(1.0, 2.0), math.nextafter(math.nextafter(1.0, 2.0), 2.0)),
    (5e-324, 1e-323),
]


class TestThresholds:
    """A threshold t between consecutive values lo < hi has lo <= t < hi, so
    the split routes the rows as its gain or error was scored."""

    @pytest.mark.parametrize("lo, hi", WIDE_OR_ADJACENT)
    def test_stump(self, lo, hi):
        X = np.array([[lo], [hi], [lo], [hi]])
        y = np.array([-1, 1, -1, 1])
        stump, err = fit_stump(X, y, np.full(4, 0.25))
        assert lo <= stump.threshold < hi
        assert err == 0.0
        assert predict_stump(stump, X).tolist() == y.tolist()

    @pytest.mark.parametrize("lo, hi", WIDE_OR_ADJACENT)
    def test_regression_tree(self, lo, hi):
        X = np.array([[lo], [hi], [lo], [hi]])
        tree = fit_regression_tree(X, np.array([1.0, -1.0, 1.0, -1.0]), np.ones(4), max_depth=1)
        assert lo <= tree.threshold[0] < hi
        assert tree.predict(X).tolist() == [-1.0, 1.0, -1.0, 1.0]

    @pytest.mark.parametrize("lo, hi", WIDE_OR_ADJACENT)
    def test_oblivious_tree(self, lo, hi):
        X = np.array([[lo], [hi], [lo], [hi]])
        tree = fit_oblivious_tree(X, np.array([1.0, -1.0, 1.0, -1.0]), np.ones(4), depth=1)
        assert lo <= tree.levels[0][1] < hi
        assert tree.predict(X).tolist() == [-1.0, 1.0, -1.0, 1.0]


class TestPredictAndSerialize:
    def test_predict_tree_row_and_matrix(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        grads = np.array([-1.0, -1.0, 1.0, 1.0])
        tree = fit_regression_tree(X, grads, np.ones(4), max_depth=1, reg_lambda=1.0)
        assert tree.predict(X[:1]) == pytest.approx([2 / 3])
        assert tree.predict(X) == pytest.approx([2 / 3, 2 / 3, -2 / 3, -2 / 3])
        stump, _ = fit_stump(X, -grads, np.full(4, 0.25))
        assert predict_stump(stump, X[:1]).tolist() == [1]
        assert predict_stump(stump, X).tolist() == [1, 1, -1, -1]

    def test_training_rows_hit_training_leaves(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 3)).round(1)
        grads = rng.normal(size=40)
        tree = fit_regression_tree(X, grads, np.ones(40), max_depth=3, reg_lambda=1.0)
        preds = tree.predict(X)
        leaf_values = tree.value[tree.leaves()]
        assert set(np.round(preds, 12)) <= set(np.round(leaf_values, 12))

    def test_schema_mismatch(self):
        X = np.array([[1.0, 2.0]])
        tree = fit_regression_tree(X, np.array([1.0]), np.ones(1), max_depth=1)
        with pytest.raises(SchemaMismatch):
            tree.predict(np.array([[1.0, 2.0, 3.0]]))

    def test_round_trip_all_kinds(self):
        rng = np.random.default_rng(7)
        X = np.column_stack(
            [rng.normal(size=30).round(1), rng.integers(0, 3, 30).astype(float)]
        )
        kinds = (NUMERIC, categorical(3))
        grads = rng.normal(size=30)

        stump, _ = fit_stump(X, np.sign(grads).astype(int), np.full(30, 1 / 30), kinds)
        reg = fit_regression_tree(X, grads, np.ones(30), kinds, max_depth=3, reg_lambda=1.0)
        obl = fit_oblivious_tree(X, grads, np.ones(30), kinds, depth=3, reg_lambda=1.0)

        for tree in (stump, reg, obl):
            back = tree_from_dict(tree_to_dict(tree), X.shape[1])
            if isinstance(tree, Stump):
                assert back == tree
            else:
                probe = np.column_stack(
                    [rng.normal(size=20).round(1), rng.integers(0, 3, 20).astype(float)]
                )
                assert np.array_equal(back.predict(probe), tree.predict(probe))

    @pytest.mark.parametrize("missing_left", [True, False])
    @pytest.mark.parametrize(
        "threshold", [-math.inf, -1.0, 0.0, 2.5, math.inf, frozenset(), frozenset({0}), frozenset({1, 3})]
    )
    def test_split_mask_is_the_written_rule(self, threshold, missing_left):
        # a missing row goes left only if missing_left; any other row goes left
        # when its value is in the level set, or is <= the threshold
        col = np.array([np.nan, -math.inf, -1.0, 0.0, 1.0, 2.5, 3.0, math.inf, np.nan])
        levels = isinstance(threshold, frozenset)
        want = [
            missing_left if math.isnan(v) else v in threshold if levels else v <= threshold
            for v in col.tolist()
        ]
        assert _split_mask(col, threshold, missing_left=missing_left).tolist() == want

    def test_regression_nodes_in_any_order_load_into_pre_order(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(60, 3)).round(1)
        tree = fit_regression_tree(X, rng.normal(size=60), np.ones(60), max_depth=3)
        d = tree_to_dict(tree)
        assert len(d["nodes"]) > 3
        # keep the root first, reverse the others and renumber the child links
        order = [0] + list(range(len(d["nodes"]) - 1, 0, -1))
        new = {old: i for i, old in enumerate(order)}
        shuffled = [dict(d["nodes"][old]) for old in order]
        for node in shuffled:
            if "left" in node:
                node["left"], node["right"] = new[node["left"]], new[node["right"]]
        back = tree_from_dict({**d, "nodes": shuffled}, 3)
        assert tree_to_dict(back) == d
        assert np.array_equal(back.predict(X), tree.predict(X))


# Cell values whose midpoints are exact, so no threshold lands on a value (a
# defect of the old search, which the oracle keeps).
GRID = (-2.5, -1.0, 0.0, 0.5, 1.0, 3.0, 7.25)


@st.composite
def split_inputs(draw):
    """A small matrix of numeric, binary, categorical and constant columns
    with missing cells and repeated values, and gradient statistics."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds, cols = [], []
    for kind in draw(st.lists(st.sampled_from(["numeric", "binary", "categorical", "constant"]), max_size=4)):
        if kind == "numeric":
            col = rng.choice(GRID, n)
            kinds.append(NUMERIC)
        elif kind == "binary":
            col = rng.integers(0, 2, n).astype(float)
            kinds.append(BINARY)
        elif kind == "categorical":
            col = rng.integers(0, 4, n).astype(float)
            kinds.append(categorical(4))
        else:
            col = np.full(n, rng.choice(GRID))
            kinds.append(NUMERIC)
        col[rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = np.nan
        cols.append(col)
    X = np.column_stack(cols) if cols else np.empty((n, 0))
    g = rng.normal(size=n).round(draw(st.sampled_from([1, 8])))
    h = draw(st.sampled_from([np.ones(n), rng.uniform(0.0, 1.0, n), np.zeros(n)]))
    return X, g, h, tuple(kinds)


# Inputs the properties always see: no non-categorical column (categorical
# ones only, or none at all), and one or two rows.
EDGE_INPUTS = [
    (
        np.array([[0.0, 1.0], [2.0, np.nan], [0.0, 1.0], [1.0, 0.0], [np.nan, 1.0]]),
        np.array([1.0, -2.0, 0.5, -1.0, 3.0]),
        np.ones(5),
        (categorical(3), categorical(2)),
    ),
    (np.empty((3, 0)), np.array([1.0, -1.0, 0.5]), np.ones(3), ()),
    (np.array([[1.0, 0.0]]), np.array([0.5]), np.ones(1), (NUMERIC, BINARY)),
    (np.array([[1.0, np.nan], [3.0, 1.0]]), np.array([0.5, -0.5]), np.ones(2), (NUMERIC, categorical(2))),
]


def with_edge_inputs(*rest):
    """Run a property on each of EDGE_INPUTS too, with the other arguments rest."""

    def decorate(test):
        for inputs in EDGE_INPUTS:
            test = example(inputs, *rest)(test)
        return test

    return decorate


def assert_same_tree(got, want):
    assert tree_to_dict(got) == tree_to_dict(want)
    assert got.value.tobytes() == want.value.tobytes()  # split nodes' values too


class TestSplitKernelMatchesOracle:
    """The node kernel against the search it replaced (split_search_oracle)."""

    @settings(max_examples=300, deadline=None)
    @with_edge_inputs(3, 0.0, 0.0, 1.0)
    @given(
        split_inputs(),
        st.integers(1, 4),
        st.sampled_from([0.0, 0.5]),
        st.sampled_from([0.0, 0.3]),
        st.sampled_from([0.0, 1.0]),
    )
    def test_regression_tree(self, inputs, max_depth, min_child_weight, gamma, reg_lambda):
        X, g, h, kinds = inputs
        params = dict(
            max_depth=max_depth, min_child_weight=min_child_weight, gamma=gamma, reg_lambda=reg_lambda
        )
        want = oracle.fit_regression_tree(X, g, h, kinds, **params)
        assert_same_tree(fit_regression_tree(X, g, h, kinds, **params), want)

    @settings(max_examples=300, deadline=None)
    @with_edge_inputs(True)
    @given(split_inputs(), st.booleans())
    def test_stump(self, inputs, uniform):
        X, g, _, kinds = inputs
        n = X.shape[0]
        y = np.where(g > 0, 1, -1)
        rng = np.random.default_rng(n)
        w = np.full(n, 1.0 / n) if uniform else rng.dirichlet(np.ones(n))
        got, got_err = fit_stump(X, y, w, kinds)
        want, want_err = oracle.fit_stump(X, y, w, kinds)
        assert got == want
        assert got_err == want_err

    @settings(max_examples=60, deadline=None)
    @with_edge_inputs()
    @given(split_inputs())
    def test_a_given_presort_changes_nothing(self, inputs):
        X, g, h, kinds = inputs
        presort = Presort(X, kinds)
        assert_same_tree(
            fit_regression_tree(X, g, h, kinds, max_depth=3, presort=presort),
            fit_regression_tree(X, g, h, kinds, max_depth=3),
        )
        y = np.where(g > 0, 1, -1)
        w = np.full(X.shape[0], 1.0 / X.shape[0])
        assert fit_stump(X, y, w, kinds, presort=presort) == fit_stump(X, y, w, kinds)
        numeric = Presort(X)
        for depth in (1, 3):
            a = fit_oblivious_tree(X, g, h, depth=depth, presort=numeric)
            b = fit_oblivious_tree(X, g, h, depth=depth)
            assert tree_to_dict(a) == tree_to_dict(b)
            assert a.leaf_values.tobytes() == b.leaf_values.tobytes()

    def test_presort_of_another_matrix_is_rejected(self):
        presort = Presort(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="presort"):
            fit_regression_tree(np.zeros((4, 2)), np.zeros(4), np.ones(4), max_depth=2, presort=presort)

import math

import numpy as np
import pytest

from boostlab.dataset import BINARY, NUMERIC, categorical
from boostlab.errors import EmptyData, SchemaMismatch
from boostlab.tree import (
    ObliviousTree,
    RegressionTree,
    Stump,
    fit_oblivious_tree,
    fit_regression_tree,
    fit_stump,
    predict_stump,
    predict_tree,
    tree_from_dict,
    tree_to_dict,
)

ORIENTATIONS = ((-1, 1), (1, -1))


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


def oracle_split_gains(X, g, h, kinds, lam, directions):
    """Gain of every depth-1 split, with each side summed over a row mask.

    Yields (gain, feature, threshold, default_left) in the documented
    enumeration order; default_left says where missing rows go.
    """
    G, H = g.sum(), h.sum()

    def score(gs, hs):
        return gs * gs / (hs + lam) if hs + lam > 0 else 0.0

    for f in range(X.shape[1]):
        col = X[:, f]
        miss = np.isnan(col)
        if kinds[f].is_categorical:
            tests = [(frozenset({int(v)}), col == v) for v in np.unique(col[~miss])]
        else:
            vals = np.unique(col[~miss])
            tests = [((a + b) / 2, col <= (a + b) / 2) for a, b in zip(vals, vals[1:])]
        for thr, goes_left in tests:
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
        assert tree.root.is_leaf
        assert tree.root.value == 0.0

    def test_hand_arithmetic_leaves(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        grads = np.array([-1.0, -1.0, 1.0, 1.0])
        tree = fit_regression_tree(
            X, grads, np.ones(4), max_depth=1, reg_lambda=1.0, gamma=0.0
        )
        root = tree.root
        assert not root.is_leaf
        assert root.threshold == 2.5
        assert root.left.value == pytest.approx(2.0 / 3.0)
        assert root.right.value == pytest.approx(-2.0 / 3.0)
        assert root.left.grad_sum == -2.0

    def test_gamma_prunes_root(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        grads = np.array([-1.0, -1.0, 1.0, 1.0])
        # best root gain is 4/3 at lambda=1; any larger gamma kills the split
        tree = fit_regression_tree(
            X, grads, np.ones(4), max_depth=3, reg_lambda=1.0, gamma=1.5
        )
        assert tree.root.is_leaf

    def test_min_child_weight_blocks_split(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        grads = np.array([-1.0, -1.0, 1.0, 1.0])
        tree = fit_regression_tree(
            X, grads, np.ones(4), max_depth=1, reg_lambda=0.0, min_child_weight=3.0
        )
        assert tree.root.is_leaf

    def test_depth_limit(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(64, 3))
        grads = rng.normal(size=64)
        tree = fit_regression_tree(X, grads, np.ones(64), max_depth=2, reg_lambda=1.0)
        assert tree.depth() <= 2

    def test_missing_takes_learned_direction(self):
        # missing rows carry strong negative gradient: best routed right with x>=3 rows
        X = np.array([[1.0], [2.0], [3.0], [4.0], [np.nan], [np.nan]])
        grads = np.array([1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
        tree = fit_regression_tree(X, grads, np.ones(6), max_depth=1, reg_lambda=0.0)
        root = tree.root
        assert not root.is_leaf
        assert root.default_left is False
        missing_row = np.array([[np.nan]])
        assert tree.predict(missing_row)[0] == root.right.value

    def test_unseen_categorical_level_routes_right(self):
        kinds = (categorical(4),)
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        grads = np.array([-1.0, -1.0, 1.0, 1.0])
        tree = fit_regression_tree(
            X, grads, np.ones(4), kinds, max_depth=1, reg_lambda=0.0
        )
        root = tree.root
        assert isinstance(root.threshold, frozenset)
        unseen = np.array([[3.0]])
        assert tree.predict(unseen)[0] == root.right.value

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
        for leaf in tree.leaves():
            resid = leaf.value * (leaf.hess_sum + lam) + leaf.grad_sum
            assert abs(resid) <= 1e-12 * max(1.0, abs(leaf.grad_sum))

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
                assert not tree.root.is_leaf
                assert tree.root.feature_index == stump.feature_index
                assert tree.root.threshold == stump.threshold


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
            root = tree.root
            if root.is_leaf:
                assert best <= 1e-12
                continue
            key = (root.feature_index, root.threshold, root.default_left)
            assert gains[key] == pytest.approx(best, abs=1e-12)
            if np.isnan(X[:, root.feature_index]).any():
                directions_taken.add(root.default_left)
        assert directions_taken == {True, False}


class TestObliviousTree:
    def test_depth_one_matches_regression_tree(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        grads = np.array([-1.0, -1.0, 1.0, 1.0])
        reg = fit_regression_tree(X, grads, np.ones(4), max_depth=1, reg_lambda=1.0)
        obl = fit_oblivious_tree(X, grads, np.ones(4), depth=1, reg_lambda=1.0)
        assert obl.levels == ((0, 2.5),)
        assert obl.leaf_values[0] == pytest.approx(reg.root.left.value)
        assert obl.leaf_values[1] == pytest.approx(reg.root.right.value)

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

    def test_empty_data(self):
        with pytest.raises(EmptyData):
            fit_oblivious_tree(np.empty((0, 2)), np.empty(0), np.empty(0), depth=1)


class TestPredictAndSerialize:
    def test_predict_tree_row_and_matrix(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        grads = np.array([-1.0, -1.0, 1.0, 1.0])
        tree = fit_regression_tree(X, grads, np.ones(4), max_depth=1, reg_lambda=1.0)
        assert predict_tree(tree, np.array([1.0])) == pytest.approx(2.0 / 3.0)
        out = predict_tree(tree, X)
        assert out == pytest.approx([2 / 3, 2 / 3, -2 / 3, -2 / 3])

    def test_training_rows_hit_training_leaves(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 3)).round(1)
        grads = rng.normal(size=40)
        tree = fit_regression_tree(X, grads, np.ones(40), max_depth=3, reg_lambda=1.0)
        preds = tree.predict(X)
        leaf_values = {id(l): l.value for l in tree.leaves()}
        assert set(np.round(preds, 12)) <= set(np.round(list(leaf_values.values()), 12))

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

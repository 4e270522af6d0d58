import json
import math
from collections import namedtuple
from dataclasses import replace
from unittest import mock

import numpy as np
import oblivious_search_oracle
import pytest
import regression_predict_oracle
import split_search_oracle as oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boostlab import boost as boost_module
from boostlab import tree as tree_module
from boostlab.boost import _stump_tree, default_params, fit, model_to_dict
from boostlab.dataset import BINARY, NUMERIC, categorical, pcos_default_schema, synthesize
from boostlab.errors import EmptyData, MalformedModel, SchemaMismatch
from boostlab.tree import (
    MAX_OBLIVIOUS_DEPTH,
    ObliviousTree,
    Presort,
    RegressionTree,
    _split_bits,
    _went_right,
    fit_oblivious_tree,
    fit_regression_tree,
    fit_stump,
    predict_stump,
    predict_trees,
    stump_from_dict,
    tree_from_dict,
    tree_to_dict,
)

ORIENTATIONS = ((-1, 1), (1, -1))

# A stump as the oracles record it; a constant one is (0, 0.0, c, c).
Stump = namedtuple("Stump", "feature_index threshold left_class right_class")


def stump_record(tree):
    """fit_stump's tree as an oracle's Stump: its level and its leaves, the
    classes as ±1.0 (equal to the oracle's ints)."""
    if tree.depth == 0:
        (c,) = tree.leaf_values.tolist()
        assert tree.leaf_ids.tolist() == [0]
        return Stump(0, 0.0, c, c)
    ((f, thr),) = tree.levels
    assert tree.depth == 1 and tree.leaf_ids.tolist() == [0, 1]
    return Stump(f, thr, *tree.leaf_values.tolist())


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
                left = (col == lvl) | miss
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
        assert stump_record(stump) == (0, 2.5, -1, 1)
        assert err == 0.0

    def test_alternating_error_quarter(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([1, -1, -1, 1])
        stump, err = fit_stump(X, y, np.full(4, 0.25))
        assert err == pytest.approx(0.25)
        # exhaustive scan agrees (ties broken by lowest threshold)
        oracle, oracle_err = oracle_best_stump(X, y, np.full(4, 0.25))
        assert stump_record(stump) == oracle and err == pytest.approx(oracle_err, abs=1e-12)

    def test_concentrated_weight(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([1, -1, -1, 1])
        w = np.array([1.0, 0.0, 0.0, 0.0])
        stump, err = fit_stump(X, y, w)
        assert err == 0.0
        assert (stump.levels, stump.leaf_ids.tolist(), stump.leaf_values.tolist()) == ((), [0], [1.0])
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

    def test_a_missing_categorical_cell_goes_left(self):
        # level 0 with the NaN row on the left errs on no row; were the NaN
        # row on the right, level 0 would err on it and level 1 would win
        X = np.array([[0.0], [0.0], [1.0], [1.0], [np.nan]])
        y = np.array([1, 1, -1, -1, 1])
        stump, err = fit_stump(X, y, np.full(5, 0.2), (categorical(2),))
        assert (stump_record(stump), err) == ((0, frozenset({0}), 1, -1), 0.0)
        assert predict_stump(stump, X).tolist() == y.tolist()

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
            assert stump_record(got) == want
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
            if stump.depth == 0 or err == 0.5:
                continue
            tree = fit_regression_tree(
                X, -y.astype(float), np.ones(n), max_depth=1, reg_lambda=0.0
            )
            if err == 0.0:
                # separable data: both must find a clean split at the same place
                assert ((tree.feature[0], tree.threshold[0]),) == stump.levels


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

    def test_a_level_whose_gain_is_not_a_number_stops_growth(self):
        # zero hessians and a subnormal lambda: G^2 / 5e-324 overflows, so the
        # best gain less the tie margin is NaN; the boosting loop fits under the
        # same errstate
        with np.errstate(over="ignore", invalid="ignore"):
            tree = fit_oblivious_tree([[0], [1], [2], [3]], [1, -1, 1, -1], np.zeros(4), depth=2, reg_lambda=5e-324)
        assert tree.depth == 0

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


COPY_CASES = {  # kinds and values of columns 0 and 2, whose best splits send the same rows left
    "numeric copy": (NUMERIC, [0.1, 0.2, 0.3, 0.7, 0.8, 0.9], NUMERIC, [0.1, 0.2, 0.3, 0.7, 0.8, 0.9]),
    "binary copy": (BINARY, [0, 0, 0, 1, 1, 1], BINARY, [0, 0, 0, 1, 1, 1]),
    "categorical copy": (categorical(3), [0, 0, 0, 1, 1, 2], categorical(3), [0, 0, 0, 1, 1, 2]),
    "binary, then swept": (BINARY, [0, 0, 0, 1, 1, 1], NUMERIC, [0.1, 0.2, 0.3, 0.7, 0.8, 0.9]),
    "categorical, then swept": (categorical(3), [0, 0, 0, 1, 1, 2], NUMERIC, [0.1, 0.2, 0.3, 0.7, 0.8, 0.9]),
}


class TestTieRule:
    """A node's candidates come from _scan in group order (swept columns,
    single-threshold columns, categorical levels), not in column order; of
    exactly equal gains or errors the least column and then the lowest
    threshold still win."""

    @pytest.mark.parametrize("case", COPY_CASES)
    def test_an_exact_copy_of_a_column_loses_to_it(self, case):
        kind0, col0, kind2, col2 = COPY_CASES[case]
        X = np.column_stack([col0, [0, 1, 0, 1, 0, 1], col2]).astype(float)
        kinds = (kind0, BINARY, kind2)
        g = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
        tree = fit_regression_tree(X, g, np.ones(6), kinds, max_depth=1, reg_lambda=1.0)
        assert tree.feature[0] == 0
        stump, err = fit_stump(X, np.where(g < 0, 1, -1), np.full(6, 1 / 6), kinds)
        assert (stump.levels[0][0], err) == (0, 0.0)

    def test_an_exact_tie_within_a_column_takes_the_lower_threshold(self):
        # the rows of 2.0 and 3.0 carry no gradient and no hessian, so the
        # thresholds 1.5, 2.5 and 3.5 split with the same sums
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        tree = fit_regression_tree(
            X, np.array([-1.0, 0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0, 1.0]), max_depth=1, reg_lambda=1.0
        )
        assert (tree.feature[0], tree.threshold[0]) == (0, 1.5)
        stump, err = fit_stump(X, np.array([1, 1, -1, -1]), np.array([0.5, 0.0, 0.0, 0.5]))
        assert (stump.levels, err) == (((0, 1.5),), 0.0)

    def test_a_column_without_missing_rows_at_a_node_sends_them_left(self):
        # both directions give the same gain there, and left comes first
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 3)).round(1)
        X[rng.random(60) < 0.3, 1] = np.nan
        X[:30, 2] = np.nan
        g = rng.normal(size=60) + 2.0 * np.isnan(X[:, 1])
        tree = fit_regression_tree(X, g, np.ones(60), max_depth=3, reg_lambda=1.0)
        nodes = tree_to_dict(tree)["nodes"]
        reach = {0: np.ones(60, dtype=bool)}
        checked = 0
        for i in np.flatnonzero(tree.feature >= 0):
            f = tree.feature[i]
            goes_left = ~_went_right(X[:, f], tree.threshold[i], missing_left=tree.default_left[i])
            reach[tree.left[i]], reach[tree.right[i]] = reach[i] & goes_left, reach[i] & ~goes_left
            if not np.isnan(X[reach[i], f]).any():
                assert nodes[i]["default_direction"] == "left"
                checked += 1
        assert checked > 0
        assert not tree.default_left.all()  # a node with missing rows sent them right

    def test_a_nan_gradient_gives_one_leaf_of_nan(self):
        # no gain is positive (each is NaN or -inf), so the root stays a leaf; no warning
        X = np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 0.0], [4.0, 1.0]])
        tree = fit_regression_tree(X, np.array([1.0, np.nan, -1.0, 0.5]), np.ones(4), max_depth=3, reg_lambda=1.0)
        assert tree.feature.tolist() == [-1]
        assert np.isnan(tree.value[0])


class TestFittedOutputs:
    """fitted= receives each training row's output, as predict would give it."""

    def test_regression_tree(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(80, 3)).round(1)
        X[rng.random((80, 3)) < 0.2] = np.nan
        kinds = (NUMERIC, NUMERIC, NUMERIC)
        for g in (rng.normal(size=80), np.zeros(80)):  # zero gradients: one leaf of -0.0
            fitted = np.full(80, np.nan)
            tree = fit_regression_tree(X, g, np.ones(80), kinds, max_depth=3, reg_lambda=1.0, fitted=fitted)
            assert fitted.tobytes() == tree.predict(X).tobytes()
        assert np.signbit(fitted).all()

    def test_oblivious_tree(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(80, 3)).round(1)
        X[rng.random((80, 3)) < 0.2] = np.nan
        for g in (rng.normal(size=80), np.zeros(80)):  # zero gradients: a dropped leaf of -0.0
            fitted = np.full(80, np.nan)
            tree = fit_oblivious_tree(X, g, np.ones(80), depth=3, reg_lambda=1.0, fitted=fitted)
            assert fitted.tobytes() == tree.predict(X).tobytes()
        assert tree.leaf_ids.size == 0 and not np.signbit(fitted).any()

    def test_stump(self):
        rng = np.random.default_rng(8)
        X = np.column_stack([rng.normal(size=80).round(1), rng.integers(0, 3, 80)])
        X[rng.random(80) < 0.2, 0] = np.nan
        kinds = (NUMERIC, categorical(3))
        low = np.where(~(X[:, 0] > 0.3), 1, -1)  # a numeric split, missing cells left
        level = np.where(X[:, 1] == 2, 1, -1)  # a categorical level
        w = np.full(80, 1 / 80)
        splits = set()
        for y in (low, -low, level, -level):
            fitted = np.full(80, np.nan)
            stump, err = fit_stump(X, y, w, kinds, fitted=fitted)
            assert err == pytest.approx(0.0, abs=1e-12)
            assert fitted.tobytes() == predict_stump(stump, X).tobytes()
            splits.add((stump.levels[0][0], *stump.leaf_values.tolist()))
        assert splits == {(0, 1.0, -1.0), (0, -1.0, 1.0), (1, 1.0, -1.0), (1, -1.0, 1.0)}
        for y in (level, -level):  # one class of zero weight: the constant stump of the other
            fitted = np.full(80, np.nan)
            stump, err = fit_stump(X, y, np.where(y > 0, 0.0, 1 / np.sum(y < 0)), kinds, fitted=fitted)
            assert stump.depth == 0 and fitted.tobytes() == predict_stump(stump, X).tobytes()
            assert (fitted == -1.0).all()


class TestThresholds:
    """A threshold t between consecutive values lo < hi has lo <= t < hi, so
    the split routes the rows as its gain or error was scored."""

    @pytest.mark.parametrize("lo, hi", WIDE_OR_ADJACENT)
    def test_stump(self, lo, hi):
        X = np.array([[lo], [hi], [lo], [hi]])
        y = np.array([-1, 1, -1, 1])
        stump, err = fit_stump(X, y, np.full(4, 0.25))
        assert lo <= stump.levels[0][1] < hi
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


def written_right(col, threshold, missing_left):
    """Whether each cell goes right, by the written rule: a missing cell goes
    left only if missing_left; any other cell goes left when its value is in
    the level set, or is <= the threshold."""
    levels = isinstance(threshold, frozenset)
    return [
        not missing_left if math.isnan(v) else v not in threshold if levels else not v <= threshold
        for v in col.tolist()
    ]


class TestPredictAndSerialize:
    def test_predict_tree_row_and_matrix(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        grads = np.array([-1.0, -1.0, 1.0, 1.0])
        tree = fit_regression_tree(X, grads, np.ones(4), max_depth=1, reg_lambda=1.0)
        assert tree.predict(X[:1]) == pytest.approx([2 / 3])
        assert tree.predict(X) == pytest.approx([2 / 3, 2 / 3, -2 / 3, -2 / 3])
        stump, _ = fit_stump(X, -grads, np.full(4, 0.25))
        assert predict_stump(stump, X[:1]).tolist() == [1.0]
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

        probe = np.column_stack(
            [rng.normal(size=20).round(1), rng.integers(0, 3, 20).astype(float)]
        )
        # a stump is written as the one-level tree of an AdaBoost round
        round_tree = _stump_tree(stump, 0.5)
        assert np.array_equal(round_tree.predict(probe), 0.5 * predict_stump(stump, probe))
        for tree in (round_tree, reg, obl):
            back = tree_from_dict(tree_to_dict(tree), X.shape[1])
            assert tree_to_dict(back) == tree_to_dict(tree)
            assert np.array_equal(back.predict(probe), tree.predict(probe))

    @pytest.mark.parametrize("missing_left", [True, False])
    @pytest.mark.parametrize(
        "threshold", [-math.inf, -1.0, 0.0, 2.5, math.inf, frozenset(), frozenset({0}), frozenset({1, 3})]
    )
    def test_split_mask_is_the_written_rule(self, threshold, missing_left):
        # _went_right, the one routing rule, is the negated mask of the rows
        # that go left
        col = np.array([np.nan, -math.inf, -1.0, 0.0, 1.0, 2.5, 3.0, math.inf, np.nan])
        want = written_right(col, threshold, missing_left)
        assert _went_right(col, threshold, missing_left=missing_left).tolist() == want

    @pytest.mark.parametrize("missing_left", [True, False])
    @pytest.mark.parametrize("threshold", [-0.0, 0.0, 1.5, -math.inf, math.inf, frozenset({0, 2})])
    def test_split_bits_are_the_negated_split_mask(self, threshold, missing_left):
        # NaN, signed zeros, infinities, the threshold itself and its neighbours
        edges = [] if isinstance(threshold, frozenset) else [threshold, *np.nextafter(threshold, [-math.inf, math.inf])]
        col = np.array([np.nan, -0.0, 0.0, -math.inf, math.inf, 1.5, 2.0, *edges])
        bits = _split_bits([(0, threshold, missing_left)], col[None])
        assert bits.dtype == bool and bits.shape == (1, col.size)
        assert bits[0].tolist() == _went_right(col, threshold, missing_left=missing_left).tolist()
        assert bits[0].tolist() == written_right(col, threshold, missing_left)

    def test_a_stump_is_a_legacy_entry_not_a_tree_kind(self):
        stump = {"kind": "stump", "feature_index": 0, "threshold": 0.5, "left_class": -1, "right_class": 1}
        with pytest.raises(MalformedModel, match="unknown tree kind 'stump'"):
            tree_from_dict({**stump, "n_features": 1}, 1)
        assert stump_record(stump_from_dict(stump, 1)) == (0, 0.5, -1, 1)
        with pytest.raises(MalformedModel, match="kind 'oblivious'"):
            stump_from_dict({**stump, "kind": "oblivious"}, 1)

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


# Cells and thresholds of the ensemble scorer's tests: signed zeros, NaN,
# category levels, and values on either side of the float thresholds.
CELLS = (np.nan, -0.0, 0.0, 1.0, 2.0, 3.0, -1.5, 0.75)
FLOAT_THRESHOLDS = (-0.0, 0.0, 0.5, 1.0, -1.0, 2.5)


@st.composite
def oblivious_ensembles(draw):
    """(trees, X): up to 5 oblivious trees of up to 5 levels drawn from a pool
    of at most 4 tests, so tests are often shared across trees and repeated
    within one; float and level-set thresholds; 0-30 rows with missing cells."""
    d = draw(st.integers(1, 3))
    thresholds = st.sampled_from(FLOAT_THRESHOLDS) | st.frozensets(st.integers(0, 3), max_size=3)
    pool = draw(st.lists(st.tuples(st.integers(0, d - 1), thresholds), min_size=1, max_size=4))
    trees = []
    for _ in range(draw(st.integers(0, 5))):
        levels = tuple(draw(st.lists(st.sampled_from(pool), max_size=5)))
        slots = 1 << len(levels)
        ids = sorted(draw(st.sets(st.integers(0, slots - 1), max_size=min(slots, 8))))
        values = draw(st.lists(st.floats(-100, 100).filter(bool), min_size=len(ids), max_size=len(ids)))
        trees.append(ObliviousTree(levels, np.array(ids, dtype=np.int64), np.array(values), d))
    n = draw(st.integers(0, 30))
    X = np.array(draw(st.lists(st.sampled_from(CELLS), min_size=n * d, max_size=n * d))).reshape(n, d)
    return trees, X


def per_level_predict(tree, X):
    """ObliviousTree.predict as it was first written: every level of the tree
    compared on its own column, and the dense leaf lookup."""
    idx = np.zeros(X.shape[0], dtype=np.int64)
    for f, thr in tree.levels:
        idx = idx * 2 + _went_right(X[:, f], thr, missing_left=True)
    leaves = np.zeros(1 << tree.depth)
    leaves[tree.leaf_ids] = tree.leaf_values
    return leaves[idx]


class TestPredictOblivious:
    @settings(max_examples=300, deadline=None)
    @given(
        ensemble=oblivious_ensembles(),
        base=st.sampled_from((0.0, -0.0, 0.3, -1.25)),
        lr=st.sampled_from((1.0, 0.1, 0.03)),
    )
    def test_equals_the_per_tree_sum_bit_for_bit(self, ensemble, base, lr):
        trees, X = ensemble
        want = np.full(X.shape[0], base)
        for tree in trees:
            want = want + lr * per_level_predict(tree, X)
        got = predict_trees(trees, X, base, lr)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        for tree in trees:
            assert tree.predict(X).tobytes() == per_level_predict(tree, X).tobytes()
        if trees:
            with pytest.raises(SchemaMismatch):
                predict_trees(trees, np.zeros((X.shape[0], trees[0].n_features + 1)), base, lr)


class TestPredictTrees:
    @pytest.mark.parametrize("kind", ["oblivious", "regression"])
    def test_rows_are_scored_in_chunks_under_the_byte_limit(self, monkeypatch, kind):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 3)).round(1)
        X[rng.random(X.shape) < 0.1] = np.nan
        g, h = rng.normal(size=(4, 30)), np.ones(30)
        if kind == "oblivious":
            trees = [fit_oblivious_tree(X, g[t], h, depth=3, reg_lambda=1.0) for t in range(4)]
            predict = per_level_predict
        else:
            trees = [fit_regression_tree(X, g[t], h, max_depth=3) for t in range(4)]
            predict = regression_predict_oracle.predict
        n_tests = len({test for tree in trees for test in tree.tests()})
        assert n_tests > 1
        whole = predict_trees(trees, X, 0.2, 0.1)
        want = np.full(30, 0.2)
        for tree in trees:
            want = want + 0.1 * predict(tree, X)
        assert whole.tobytes() == want.tobytes()

        chunks = []
        split_bits = tree_module._split_bits

        def spy(tests, XT):
            chunks.append((len(tests), XT.shape[1]))
            return split_bits(tests, XT)

        monkeypatch.setattr(tree_module, "_split_bits", spy)
        monkeypatch.setattr(tree_module, "MAX_BIT_MATRIX_BYTES", 7 * n_tests)
        chunked = predict_trees(trees, X, 0.2, 0.1)
        assert chunks == [(n_tests, 7)] * 4 + [(n_tests, 2)]
        assert chunked.tobytes() == whole.tobytes()


def chain_tree(n_splits: int) -> RegressionTree:
    """A right-leaning chain of n_splits split nodes: split i tests column 0
    against i, with its missing rows going left at odd i, and has a leaf of
    value i + 0.5 on its left; the last split's right child is a leaf of -1."""
    nodes = []
    for i in range(n_splits):
        direction = "left" if i % 2 else "right"
        nodes.append({"feature_index": 0, "threshold": float(i), "default_direction": direction,
                      "left": 2 * i + 1, "right": 2 * i + 2})
        nodes.append({"value": i + 0.5})
    nodes.append({"value": -1.0})
    return tree_from_dict({"kind": "regression", "n_features": 1, "nodes": nodes}, 1)


def bit_string_predict(tree: ObliviousTree, X: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Each row's leaf index and output, one row at a time: the leaf index is
    the string of its levels' "went right" bits, read in base 2."""
    leaves = dict(zip(tree.leaf_ids.tolist(), tree.leaf_values.tolist()))
    index = []
    for row in X.tolist():
        bits = ""
        for f, thr in tree.levels:
            v = row[f]
            left = math.isnan(v) or (v in thr if isinstance(thr, frozenset) else v <= thr)
            bits += "0" if left else "1"
        index.append(int(bits, 2))
    return index, np.array([leaves.get(i, 0.0) for i in index])


class TestScorerBoundaries:
    @pytest.mark.parametrize("n_nodes", [32_767, 32_769])  # either side of what 16-bit node codes hold
    def test_chain_regression_tree_against_the_per_node_oracle(self, n_nodes):
        tree = chain_tree((n_nodes - 1) // 2)
        assert tree.feature.size == n_nodes
        rng = np.random.default_rng(4)
        X = np.concatenate(
            [[-1.0, np.nan, 0.0, -0.0, 1.0, 16_382.0, 16_382.5, 16_383.0, 16_384.0, math.inf, -math.inf],
             rng.uniform(-2, n_nodes // 2 + 2, 200).round(1)]
        )[:, None]
        got = predict_trees([tree], X, 0.25, 0.5)
        want = 0.25 + 0.5 * regression_predict_oracle.predict(tree, X)
        assert got.tobytes() == want.tobytes()
        assert (want == -0.25).any()  # some row reaches the last leaf

    def test_depth_16_oblivious_tree_against_the_bit_strings(self):
        # one level per column: a float test, or a level set on columns 3 and 9
        levels = tuple((j, frozenset({1, 2}) if j in (3, 9) else 0.5) for j in range(MAX_OBLIVIOUS_DEPTH))
        leaf_ids = np.array([0, 1, 12_345, 40_000, 65_534, 65_535])
        tree = ObliviousTree(levels, leaf_ids, np.array([1.5, -2.0, 0.25, -0.0, 3.0, 7.0]), MAX_OBLIVIOUS_DEPTH)
        rows = []
        for target in [*leaf_ids.tolist(), 2, 65_533, 30_000]:
            bits = [(target >> (15 - j)) & 1 for j in range(MAX_OBLIVIOUS_DEPTH)]
            rows.append([(0.0 if b else 1.0) if j in (3, 9) else float(b) for j, b in enumerate(bits)])
        rng = np.random.default_rng(8)
        random_rows = rng.choice([np.nan, -0.0, 0.5, 1.0, 2.0, -1.0], size=(100, MAX_OBLIVIOUS_DEPTH))
        X = np.vstack([rows, random_rows])
        index, want = bit_string_predict(tree, X)
        assert index[:9] == [*leaf_ids.tolist(), 2, 65_533, 30_000]
        assert tree.leaf_index(X).tolist() == index
        assert tree.predict(X).tobytes() == want.tobytes()

    def test_an_oblivious_tree_deeper_than_16_levels_is_rejected(self):
        levels = ((0, 0.5),) * (MAX_OBLIVIOUS_DEPTH + 1)
        with pytest.raises(ValueError, match="17 levels"):
            ObliviousTree(levels, np.array([0]), np.array([1.0]), 1)


class TestPredictRegression:
    def test_a_negative_zero_leaf_keeps_its_sign(self):
        tree = tree_from_dict({"kind": "regression", "n_features": 1, "nodes": [{"value": -0.0}]}, 1)
        assert np.signbit(tree.predict(np.zeros((3, 1)))).all()
        assert predict_trees([], np.zeros((2, 1)), -0.0, 0.1).tobytes() == np.full(2, -0.0).tobytes()

    def test_schema_mismatch(self):
        tree = fit_regression_tree(np.array([[1.0], [2.0]]), np.array([1.0, -1.0]), np.ones(2), max_depth=1)
        with pytest.raises(SchemaMismatch):
            predict_trees([tree], np.zeros((2, 2)), 0.0, 0.1)


# Cell values whose midpoints are exact, so no threshold lands on a value (a
# defect of the old search, which the oracle keeps).
GRID = (-2.5, -1.0, 0.0, 0.5, 1.0, 3.0, 7.25)


@st.composite
def split_inputs(draw):
    """A small matrix of numeric, binary, categorical and constant columns
    with missing cells and repeated values, row- or column-major, and
    gradient statistics."""
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
    X = np.asarray(X, order=draw(st.sampled_from("CF")))  # a fit reads either layout alike
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
        assert stump_record(got) == want
        assert got_err == want_err

    @settings(max_examples=60, deadline=None)
    @with_edge_inputs([3, 1, 4])
    @given(split_inputs(), st.lists(st.integers(1, 4), min_size=3, max_size=3))
    def test_a_given_presort_changes_nothing(self, inputs, depths):
        """Round after round of drawn statistics and depths, the regression
        trees and stumps fit on one Presort, which remembers their nodes, have
        the bytes of fits on a fresh Presort each; so do fits on one Presort
        whose memo holds nothing (a budget of 0 bytes drops every node)."""
        X, g, h, kinds = inputs
        n = X.shape[0]
        rng = np.random.default_rng(n)
        # halved gradients mostly grow the same nodes again, new ones other nodes
        rounds = [(g, h, depths[0]), (g / 2, h, depths[1]), (rng.normal(size=n), rng.uniform(0.0, 1.0, n), depths[2])]
        weights = rng.dirichlet(np.ones(n), size=len(rounds))  # the stumps'

        def fits(presort):
            out = []
            for (g, h, depth), w in zip(rounds, weights):
                fitted = np.full(n, np.nan)
                tree = fit_regression_tree(X, g, h, kinds, max_depth=depth, presort=presort, fitted=fitted)
                stump, err = fit_stump(X, np.where(g > 0, 1, -1), w, kinds, presort=presort)
                err = np.float64(err).tobytes()
                out.append((tree_to_dict(tree), tree.value.tobytes(), fitted.tobytes(), tree_to_dict(stump), err))
            return out

        want = fits(None)
        shared = Presort(X, kinds)
        assert fits(shared) == want
        assert shared.node_bytes == sum(node.nbytes() for node, _ in shared.nodes.values())
        with mock.patch.object(tree_module, "MAX_NODE_CACHE_BYTES", 0):
            empty = Presort(X, kinds)
            assert fits(empty) == want
            assert (empty.nodes, empty.node_bytes) == ({}, 0)
        numeric = Presort(X)
        for depth in (1, 3):
            a = fit_oblivious_tree(X, g, h, depth=depth, presort=numeric)
            b = fit_oblivious_tree(X, g, h, depth=depth)
            assert tree_to_dict(a) == tree_to_dict(b)
            assert a.leaf_values.tobytes() == b.leaf_values.tobytes()

    def test_a_gbm_fit_keeps_its_node_memo_within_the_budget(self, monkeypatch):
        """The nodes of a 4 000-row GBM fit with 10 % missing cells hold more
        bytes than MAX_NODE_CACHE_BYTES: the memo drops the least recently
        used ones, stays within the budget and holds fewer nodes than the
        fit visited, and the model keeps its bytes."""
        presorts = []

        class Recorded(Presort):
            def __init__(self, *args):
                super().__init__(*args)
                presorts.append(self)

        monkeypatch.setattr(boost_module, "Presort", Recorded)
        data = synthesize(pcos_default_schema(), 4000, 3, 2.0, missing_rate=0.1)
        params = replace(default_params("gbm"), n_rounds=20)
        model = fit("gbm", data, params)
        with mock.patch.object(tree_module, "MAX_NODE_CACHE_BYTES", 1 << 40):
            unbounded = fit("gbm", data, params)
        bounded, whole = presorts
        assert json.dumps(model_to_dict(model)) == json.dumps(model_to_dict(unbounded))
        assert whole.node_bytes > tree_module.MAX_NODE_CACHE_BYTES
        assert 0 < bounded.node_bytes <= tree_module.MAX_NODE_CACHE_BYTES
        assert bounded.node_bytes == sum(size for _, size in bounded.nodes.values())
        assert len(bounded.nodes) < sum(tree.feature.size for tree in model.trees)

    def test_presort_of_another_matrix_is_rejected(self):
        presort = Presort(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="presort"):
            fit_regression_tree(np.zeros((4, 2)), np.zeros(4), np.ones(4), max_depth=2, presort=presort)


def wide_inputs():
    """400 rows of 10 numeric columns of mostly distinct values: a depth-16
    fit without regularisation passes 256 occupied buckets, so its bucket ids
    need both bytes of the sort keys."""
    rng = np.random.default_rng(11)
    X = rng.normal(size=(400, 10)).round(3)
    return X, rng.normal(size=400).round(8), np.ones(400), (NUMERIC,) * 10


class TestObliviousSearchMatchesOracle:
    """The level search against the partitioning search it replaced
    (oblivious_search_oracle)."""

    @settings(max_examples=300, deadline=None)
    @with_edge_inputs(True, 16, 0.0)
    @example(wide_inputs(), True, 16, 0.0)
    @given(split_inputs(), st.booleans(), st.integers(1, 16), st.sampled_from([0.0, 1.0, 5e-324]))
    def test_oblivious_tree(self, inputs, with_kinds, depth, reg_lambda):
        X, g, h, kinds = inputs
        kinds = kinds if with_kinds else None
        got_fitted, want_fitted = np.full((2, X.shape[0]), np.nan)
        params = dict(depth=depth, reg_lambda=reg_lambda)
        # zero hessians and a subnormal lambda overflow a gain; both searches stop there
        with np.errstate(over="ignore", invalid="ignore"):
            got = fit_oblivious_tree(X, g, h, kinds, **params, fitted=got_fitted)
            want = oblivious_search_oracle.fit_oblivious_tree(X, g, h, kinds, **params, fitted=want_fitted)
        assert tree_to_dict(got) == tree_to_dict(want)
        assert got.leaf_ids.tobytes() == want.leaf_ids.tobytes()
        assert got.leaf_values.tobytes() == want.leaf_values.tobytes()
        assert got_fitted.tobytes() == want_fitted.tobytes()

    def test_the_wide_example_passes_256_buckets(self):
        X, g, h, kinds = wide_inputs()
        # the 16th level is searched over the 15-level tree's buckets
        assert fit_oblivious_tree(X, g, h, kinds, depth=15).leaf_ids.size > 256

"""Weak learners: weighted decision stumps, depth-limited regression trees with
second-order split gain, and oblivious (symmetric) trees. A stump is fit as a
one-level oblivious tree whose leaves are its classes.

Split tests are "value <= threshold goes left" for numeric and binary columns
(thresholds are midpoints between consecutive distinct values) and "level in
set goes left" for categorical columns (single-level sets only; levels not in
the set, including levels unseen in training, go right).

Missing values (NaN) follow one of two rules: a regression tree routes them
along a default direction learned per node, and an oblivious tree, so a stump
too, routes them left on every column. Fits and scoring route rows by one
function, _went_right.

A regression tree is a set of parallel per-node arrays in pre-order, the node
order of the model file: node 0 is the root and a split node precedes its
children, its left child right after it, and a dump writes the arrays as they
are.

predict_trees scores a list of trees of either kind: base_score plus
learning_rate times each tree's output, in tree order. Every tree lists its
split tests as (feature, threshold, missing_left) (tests()); the distinct
tests of the list are evaluated once per row, as the "went right" rows of one
bool matrix, and each tree turns the rows of its tests into its outputs
(output()). A float test is one compare per row. An oblivious tree shifts
its leaf index in from its levels' rows; a regression tree's split nodes,
taken in reverse pre-order so that children come before parents, choose per
row between their children's integer node codes (lo + went_right * (hi -
lo)), and the leaf values are gathered once by the root's codes, so no row is
routed node by node.

A fit sorts its matrix once (Presort): each column's rows in stable (value,
row) order with the missing rows last, and the candidate splits each column
offers over all rows. Every boosting loop, AdaBoost's too, builds one Presort
per fit and passes it to every round's fitter, since X does not change between
rounds; it takes each round's outputs on X from the fitter (fitted=), which
knows each row's leaf or class, instead of scoring X again. The fitters read X
by column, so it is best column-major, as every Dataset holds it.

Stumps and regression trees score their candidates through one kernel,
_Node.scan, which returns every candidate of a node's rows with its left sums
in one pass: stumps scan the root, a regression tree each node it searches.
Each learner passes its own per-row statistics (stump: the weight each leaf
class misclassifies; regression tree: gradient and hessian) and keeps its own
missing-value rule, gain or error formula and tie rule. A node's rows of the
sorted columns of several thresholds are its block; a stable partition on the
chosen split hands each child its block in the same order, so no node sorts.
Oblivious trees use a bucket-sorted search instead, since a level's gain sums
over every leaf bucket: each level takes the rows of its swept columns in
(bucket, value) order from one stable sort of their bucket ids (see
fit_oblivious_tree).

A _Node holds what its scan needs of its rows alone: the rows, the block, the
candidates and which rows each sum adds. Only the sums depend on the round's
statistics. The rounds of a fit grow the same nodes again and again, so a
Presort remembers its nodes (Presort.recall), each keyed by its path from the
root: the (feature, threshold, default_left, went_right) of each split above
it. X does not change within a fit, so one path always selects the same rows
in the same order, and a remembered node sums the same numbers in the same
order as a new one: no bit of a fit depends on the memo. It holds at most
MAX_NODE_CACHE_BYTES of arrays and drops the least recently used node first.

_Node.scan returns its candidates in group order, the order the node lists
them: the swept columns', then the single-threshold columns', then the
categorical levels. Each column's candidates are contiguous and in
enumeration order, so the tie rule below needs no sort by column: a regression
tree takes the greatest gain and, of exact ties, the least column and then the
earliest candidate and direction (_first_best); a stump visits the columns'
blocks in column order. A scan computes no midpoint: a node keeps each swept
candidate's place in the block, and the caller computes its winner's threshold
alone (a single-threshold column's is computed once, in Presort; a level is
its own).

Every sum a fit takes adds its numbers in one fixed order, whatever the rows
outside a node, so fits are bit-for-bit repeatable: sequential cumsums and
bincounts in a fixed row order, and np.sum's pairwise sum of a 1-D array.
That pairwise sum is kept on the 1-D array it has always been taken on: a
reduction along an axis of a 2-D array (at[:, rows].sum(axis=1) for
a[rows].sum()) groups the additions differently and moves results by an ulp.

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

from ._fields import as_index, as_number, one_of
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

    def tests(self) -> list[tuple]:
        """The (feature, threshold, missing_left) test of each split node, in pre-order."""
        tests = zip(self.feature.tolist(), self.threshold.tolist(), self.default_left.tolist())
        return [t for t in tests if t[0] >= 0]

    def output(self, right: np.ndarray, path) -> np.ndarray:
        """Each row's leaf value, from the "went right" rows path names for
        tests(). Each row's leaf is found bottom-up as an integer node code:
        a leaf's code is its index, and the split nodes in reverse pre-order,
        so children before parents, each take per row lo + went_right * (hi -
        lo) of their children's codes. value is then gathered once. Codes are
        int32. A tree of one leaf gives its value as a scalar."""
        code = list(np.arange(self.feature.size, dtype=np.int32))  # a leaf's code is its index
        lo, hi = self.left.tolist(), self.right.tolist()
        for i, k in zip(reversed(np.flatnonzero(self.feature >= 0).tolist()), reversed(path)):
            a, b = code[lo[i]], code[hi[i]]
            # dtype= keeps the codes wide: numpy 1 would narrow a product with a scalar by its value
            code[i] = np.multiply(right[k], b - a, dtype=np.int32)
            code[i] += a
            code[lo[i]] = code[hi[i]] = None  # read once; dropped to bound the live arrays
        return self.value[code[0]]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Each row's leaf value, by predict_trees: -0.0 + v and 1.0 * v are v
        bit for bit, so a -0.0 leaf keeps its sign."""
        return predict_trees([self], X, -0.0, 1.0)


# A node row as fit_regression_tree and tree_from_dict append it, in
# RegressionTree's field order.
_NODE_DTYPES = (np.int64, object, bool, np.int64, np.int64, np.float64)
_RIGHT = 4  # the position of right in a node row


def _regression_tree(nodes: list[list], n_features: int) -> RegressionTree:
    return RegressionTree(*(np.array(c, dtype=t) for c, t in zip(zip(*nodes), _NODE_DTYPES)), n_features)


@dataclass
class ObliviousTree:
    """Symmetric tree: one (feature, threshold) test per level, a missing cell
    going left.

    A row's leaf index is the bit string of its per-level comparisons, earlier
    levels in higher bits, with bit 1 meaning "went right". As in a model file,
    only the non-zero leaves are held: leaf_ids (int64, strictly ascending) and
    their leaf_values. Any other leaf predicts 0. output shifts the leaf index
    in from the "went right" rows of its levels, as predict_trees evaluates
    them, and looks up the leaves. A tree has at most MAX_OBLIVIOUS_DEPTH
    levels.
    """

    levels: tuple[tuple[int, float | frozenset[int]], ...]
    leaf_ids: np.ndarray
    leaf_values: np.ndarray
    n_features: int

    def __post_init__(self):
        if len(self.levels) > MAX_OBLIVIOUS_DEPTH:  # _leaf_index holds that many bits
            raise ValueError(f"an oblivious tree of {len(self.levels)} levels, over {MAX_OBLIVIOUS_DEPTH}")

    @property
    def depth(self) -> int:
        return len(self.levels)

    def tests(self) -> list[tuple]:
        """The (feature, threshold, missing_left) test of each level, in order."""
        return [(f, thr, True) for f, thr in self.levels]

    def leaf_index(self, X: np.ndarray) -> np.ndarray:
        X = _check_matrix(X, self.n_features)
        return _leaf_index(_split_bits(self.tests(), X.T), range(self.depth))

    def output(self, right: np.ndarray, path) -> np.ndarray:
        leaves = np.zeros(1 << self.depth)  # per call: a gather beats a search of leaf_ids
        leaves[self.leaf_ids] = self.leaf_values
        return leaves[_leaf_index(right, path)]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Each row's leaf value, by predict_trees, as RegressionTree.predict."""
        return predict_trees([self], X, -0.0, 1.0)


def _leaf_index(right: np.ndarray, path) -> np.ndarray:
    """A tree's leaf index from the "went right" rows of its levels, first level highest."""
    idx = np.zeros(right.shape[1], dtype=np.uint16)  # MAX_OBLIVIOUS_DEPTH bits fit
    for k in path:
        idx <<= 1
        idx |= right[k]
    return idx


# The most bytes predict_trees's matrix of tests (one bool per row and distinct
# test) holds at once; it scores the rows in chunks that stay under this.
MAX_BIT_MATRIX_BYTES = 64 << 20

# The most bytes of arrays a Presort's memo of nodes (Presort.recall) holds; it
# drops the least recently used node first. The nodes of the paper preset's
# fits fit whole.
MAX_NODE_CACHE_BYTES = 2 << 20


def _split_bits(tests, XT: np.ndarray) -> np.ndarray:
    """Whether each row went right at each (feature, threshold, missing_left)
    test, one bool row per test, from XT, the matrix with one row per feature."""
    right = np.empty((len(tests), XT.shape[1]), dtype=bool)
    for k, (f, thr, missing_left) in enumerate(tests):
        _went_right(XT[f], thr, missing_left=missing_left, out=right[k])
    return right


def predict_trees(
    trees: list[RegressionTree] | list[ObliviousTree], X: np.ndarray, base_score: float, learning_rate: float
) -> np.ndarray:
    """base_score + learning_rate * tree.predict(X), summed over the trees in
    order: the same float operations, so the same bits, as that loop.

    The distinct tests of the trees are listed once, in first-seen order
    (equal thresholds route alike, 0.0 and -0.0 too, so they share one), and
    each is evaluated once per row, as one row of a bool matrix (_split_bits):
    a float test by one compare, a level set by its mask. Each tree turns the
    rows of its tests into its outputs (tree.output): an oblivious tree by its
    uint16 leaf index, a regression tree by integer node codes and one gather
    of its values. The rows go in chunks small enough that the matrix stays
    within MAX_BIT_MATRIX_BYTES.
    """
    X = np.asarray(X, dtype=np.float64)
    for width in {tree.n_features for tree in trees}:
        X = _check_matrix(X, width)
    position: dict = {}
    paths = [[position.setdefault(test, len(position)) for test in tree.tests()] for tree in trees]
    tests = list(position)
    XT = np.ascontiguousarray(X.T)  # a feature's cells in one contiguous row
    F = np.full(X.shape[0], base_score)
    step = max(1, MAX_BIT_MATRIX_BYTES // max(1, len(tests)))
    for start in range(0, X.shape[0], step):
        right = _split_bits(tests, XT[:, start : start + step])
        chunk = F[start : start + step]
        for tree, path in zip(trees, paths):
            chunk += learning_rate * tree.output(right, path)
    return F


def _check_matrix(X, n_features: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise SchemaMismatch(f"expected {n_features} feature columns, got shape {X.shape}")
    return X


def _went_right(col: np.ndarray, threshold, *, missing_left: bool, out=None) -> np.ndarray:
    """Boolean mask of rows routed right by a split test, into out if given:
    the one routing rule, which fits and scoring share. NaN is in no level set
    and not <= any threshold, so a missing row goes left only if missing_left.
    A float test is one compare: NaN > thr is False, so x > thr sends a
    missing row left, and not x <= thr sends it right."""
    if isinstance(threshold, frozenset):
        left = np.isnan(col) if missing_left else np.zeros(col.shape, dtype=bool)
        for v in threshold:  # a compare per level: np.isin costs more for the few levels a set holds
            left |= col == v
        return np.logical_not(left, out=out)
    if missing_left:
        return np.greater(col, threshold, out=out)
    out = np.less_equal(col, threshold, out=out)
    return np.logical_not(out, out=out)


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

    A Presort also remembers the nodes of the stumps and regression trees
    fit on it (_Node), each under its path from the root: the (feature,
    threshold, default_left, went_right) of each split above it. nodes maps
    each path to its node and the bytes of its arrays, least recently used
    first, and node_bytes sums those bytes; past MAX_NODE_CACHE_BYTES the
    least recently used nodes are dropped. A node holds only what its rows
    decide, and a path always selects the same rows in the same order, so a
    remembered node gives a fit the same bits as a new one.
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
        # per single-threshold column r and row: 3 * r, plus 1 above the
        # threshold or 2 when missing
        cells = X.T[self.single]
        self.single_code = 3 * np.arange(self.single.size)[:, None] + np.where(
            np.isnan(cells), 2, cells > self.single_threshold[:, None]
        )
        self.cat_levels = [
            (j, np.unique(self.values[j, : self.n_observed[j]]), X[:, j].copy())
            for j in np.flatnonzero(self.categorical)
        ]
        self.nodes: dict[tuple, tuple[_Node, int]] = {}
        self.node_bytes = 0

    def recall(self, path: tuple, searched: bool = True) -> _Node | None:
        """The node at path, now the most recently used, or None if it is not
        remembered or holds only its rows where searched asks for a block."""
        entry = self.nodes.pop(path, None)
        if entry is None:
            return None
        if searched and entry[0].block is None and entry[0].idx.size >= 2:
            self.node_bytes -= entry[1]
            return None
        self.nodes[path] = entry
        return entry[0]

    def remember(self, path: tuple, node: _Node) -> _Node:
        """node, kept as the node at path and counted again, then the least
        recently used nodes dropped while the memo holds more than
        MAX_NODE_CACHE_BYTES (node too, if it alone is larger)."""
        old = self.nodes.pop(path, None)
        size = node.nbytes()
        self.node_bytes += size - (0 if old is None else old[1])
        self.nodes[path] = (node, size)
        while self.node_bytes > MAX_NODE_CACHE_BYTES:
            self.node_bytes -= self.nodes.pop(next(iter(self.nodes)))[1]
        return node

    def root(self) -> _Node:
        """The node of all rows."""
        return self.recall(()) or self.remember((), _Node(self, np.arange(self.X.shape[0]), self.block))

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


class _Node:
    """A node of a regression tree or a stump's root: its rows and what its
    scan needs of them, which the rows alone decide. Only scan's sums depend
    on the per-row statistics.

    idx lists the node's rows, ascending. block, their part of presort.block in
    its order, is None at a node that is not searched (at the depth limit or of
    one row), which holds its rows alone. A searched node lists its candidates
    in group order: the swept columns' candidates, then the single-threshold
    columns', then the categorical levels; each column's candidates are
    contiguous and in enumeration order. col holds each candidate's column and
    fixed the thresholds of the candidates that are not swept (a float, or the
    level of a categorical column), in order. A swept candidate lies between
    values.flat[at] and values.flat[at + 1] of the block's values, at being its
    entry in swept_at. single_rows lists the left rows of the single-threshold
    candidates, one candidate after another, and single_cells each row's
    candidate among them. sum_rows lists the rows of each sum taken alone, in
    row order: the rows of each level (n_levels of them), then the missing rows
    of each column that has any; missing_at gives each candidate the place of
    its column's missing rows after the levels, or one past them for none.
    """

    def __init__(self, presort: Presort, idx: np.ndarray, block=None):
        self.idx, self.block = idx, block
        if block is None:
            return
        order, values = block
        m = idx.size
        missing_col, missing_rows = [], []

        # swept columns: a candidate between each two distinct neighbours of a
        # block row (False next to NaN), at its flat place in the block
        between = values[:, :-1] < values[:, 1:]
        row = np.repeat(np.arange(len(order)), np.count_nonzero(between, axis=1))
        self.swept_at = np.flatnonzero(between) + row  # a row of between is one shorter
        n_observed = m - np.count_nonzero(np.isnan(values), axis=1)
        for r in np.flatnonzero(n_observed < m):
            missing_col.append(presort.swept[r])
            missing_rows.append(order[r, n_observed[r] :])

        # single-threshold columns: a candidate where both sides hold a row
        s = presort.single.size
        code = np.take(presort.single_code, idx, axis=1)
        count = np.bincount(code.reshape(-1), minlength=3 * s).reshape(s, 3)
        offered = np.flatnonzero((count[:, 0] > 0) & (count[:, 1] > 0))
        # each offered column's left rows in row order, one column after another
        at = np.flatnonzero(code[offered] == 3 * offered[:, None])
        self.single_cells = np.repeat(np.arange(offered.size), count[offered, 0])
        self.single_rows = np.take(idx, at, mode="wrap")  # at is m * cell + the row's place
        for r in offered[count[offered, 2] > 0]:
            missing_col.append(presort.single[r])
            missing_rows.append(idx[code[r] == 3 * r + 2])

        # categorical columns: each level present
        cat_cols, levels, level_rows = [], [], []
        for j, column_levels, column in presort.cat_levels:
            col = column[idx]
            for v in column_levels:
                in_level = col == v
                if in_level.any():
                    cat_cols.append(j)
                    levels.append(v)
                    level_rows.append(idx[in_level])
            skipped = np.isnan(col)
            if skipped.any():
                missing_col.append(j)
                missing_rows.append(idx[skipped])

        self.col = np.concatenate([presort.swept[row], presort.single[offered], np.array(cat_cols, dtype=np.int64)])
        self.fixed = np.concatenate([presort.single_threshold[offered], np.array(levels, dtype=np.float64)])
        self.n_levels = len(level_rows)
        self.sum_rows = level_rows + missing_rows
        where = np.full(presort.X.shape[1] + 1, len(missing_rows))  # the column past the last: none
        where[missing_col] = np.arange(len(missing_rows))
        self.missing_at = where[self.col]

    def nbytes(self) -> int:
        """The bytes of the node's arrays, views of other arrays too."""
        if self.block is None:
            return self.idx.nbytes
        arrays = [self.idx, *self.block, self.swept_at, self.single_cells, self.single_rows, self.col, self.fixed]
        arrays += [self.missing_at, *self.sum_rows]
        return sum(a.nbytes for a in arrays)

    def scan(self, stats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every candidate's sums: left, shape (k, candidates), each of the k
        per-row statistics in stats, shape (k, n), summed over the rows the
        candidate sends left, and missing, the same shape, over its column's
        missing rows (missing rows are in no left sum).

        Each sum adds its numbers in one fixed order, so a fit's bits do not
        depend on the rows outside a node: a swept column's left sums by one
        sequential cumsum along each block row, in (value, row) order; a
        single-threshold column's by one sequential bincount of its left rows,
        in row order; a level's and the missing rows' by np.sum's pairwise sum
        in row order, each on its own 1-D array (a 2-D axis sum would round
        differently).
        """
        k = len(stats)
        swept = np.take(stats, self.block[0], axis=1)
        n_single = self.fixed.size - self.n_levels
        sums = np.array([[s[rows].sum() for rows in self.sum_rows] for s in stats]).reshape(k, -1)
        left = np.concatenate(
            [
                np.take(np.cumsum(swept, axis=2).reshape(k, -1), self.swept_at, axis=1),
                [np.bincount(self.single_cells, weights=s[self.single_rows], minlength=n_single) for s in stats],
                sums[:, : self.n_levels],
            ],
            axis=1,
        )
        missing = np.concatenate([sums[:, self.n_levels :], np.zeros((k, 1))], axis=1)
        return left, np.take(missing, self.missing_at, axis=1)

    def threshold(self, c: int):
        """Candidate c's threshold, computed for c alone."""
        if c < self.swept_at.size:
            at, values = self.swept_at[c], self.block[1]
            return _midpoints(values.flat[at], values.flat[at + 1])
        return self.fixed[c - self.swept_at.size]


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
    fitted: np.ndarray | None = None,
) -> tuple[ObliviousTree, float]:
    """Exhaustive greedy stump minimizing weighted 0/1 error over all
    candidates, and its error.

    The stump is a one-level ObliviousTree whose leaves are its classes, left
    then right, as ±1.0; a missing cell goes left on every column, as in any
    oblivious tree. y must be ±1 and weights non-negative summing to 1. If
    one class carries zero weight, or no column offers a split, the constant
    majority predictor is returned: a tree of no level and one leaf, its
    class. The returned error never exceeds 0.5 because both orientations are
    searched.
    presort, if given, is Presort(X, kinds). fitted, if given, an array of one
    float per row, receives each row's class: predict_stump(stump, X), read
    off the chosen split.

    The numeric candidates' errors come from the root's scan
    (Presort.root) and each column's rows of presort.order; a categorical
    candidate's rows, like fitted's, are routed by _went_right.
    """
    X, y, w = _fit_inputs(X, "stump", "y and weights", y, weights)
    if not np.isin(y, (-1, 1)).all():
        raise ValueError("labels must be -1 or +1")
    d = X.shape[1]

    w_pos = float(w[y == 1].sum())
    w_neg = float(w[y == -1].sum())

    def constant():
        c = 1 if w_pos >= w_neg else -1
        if fitted is not None:
            fitted[:] = c
        return _stump((), (c,), d), min(w_pos, w_neg)

    if w_pos == 0.0 or w_neg == 0.0:
        return constant()

    presort = _presorted(X, kinds, presort)
    # wrong[c] marks the rows a leaf of class c gets wrong, stats[missed[c]]
    # their weights
    wrong = {c: y != c for c in (-1, 1)}
    missed = {-1: 0, 1: 1}
    stats = np.stack([w * wrong[-1], w * wrong[1]])
    node = presort.root()
    left, _ = node.scan(stats)
    col = node.col

    def split(c):  # candidate c's (feature, threshold)
        return int(col[c]), _threshold(presort, col[c], node.threshold(c))

    categorical = presort.categorical[col]
    # A column's candidates are contiguous, so each feature is one block of them.
    starts = np.flatnonzero(np.diff(col, prepend=-1))
    ends = np.append(starts[1:], col.size)
    errs = np.empty((col.size, 2))
    # Numeric: a right side's error is the column's total over its
    # non-missing rows, summed in (value, row) order, minus the left sum; the
    # missing rows, on the left, add their own sum in row order.
    total = np.zeros((2, d))
    missing = np.zeros((2, d))  # per orientation
    for j in col[starts][~categorical[starts]]:
        n_obs = presort.n_observed[j]
        observed, tail = presort.order[j, :n_obs], presort.order[j, n_obs:]
        total[:, j] = [s[observed].sum() for s in stats]
        missing[:, j] = [w[tail][wrong[lc][tail]].sum() for lc, _ in _ORIENTATIONS]
    num = np.flatnonzero(~categorical)
    for oi, (lc, rc) in enumerate(_ORIENTATIONS):
        right_mis = total[missed[rc], col[num]] - left[missed[rc], num]
        errs[num, oi] = left[missed[lc], num] + right_mis + missing[oi, col[num]]
    # Categorical: the level's rows and the missing rows go left. Each error
    # is one sum over the misclassified rows in row order: a total minus the
    # level sums would round differently and move AdaBoost's alphas by an ulp.
    for c in np.flatnonzero(categorical):
        f, thr = split(c)
        right = _went_right(presort.X[:, f], thr, missing_left=True)
        for oi, (lc, rc) in enumerate(_ORIENTATIONS):
            errs[c, oi] = w[np.where(right, wrong[rc], wrong[lc])].sum()

    # Per feature, the first candidate within _TIE_TOL of its least error; it
    # replaces the best so far only if it beats it by more than _TIE_TOL. The
    # features' blocks are visited in column order.
    best_err = np.inf
    best = None  # (candidate, orientation)
    for a, b in sorted(zip(starts, ends), key=lambda block: col[block[0]]):
        flat = errs[a:b].reshape(-1)
        k = int(np.flatnonzero(flat <= flat.min() + _TIE_TOL)[0])
        if flat[k] < best_err - _TIE_TOL:
            best_err = float(flat[k])
            best = divmod(2 * a + k, 2)
    if best is None:
        return constant()
    c, oi = best
    f, thr = split(c)
    lc, rc = _ORIENTATIONS[oi]
    if fitted is not None:
        fitted[:] = np.where(_went_right(presort.X[:, f], thr, missing_left=True), rc, lc)
    return _stump(((f, thr),), (lc, rc), d), best_err


def _stump(levels: tuple, classes: tuple[int, ...], n_features: int) -> ObliviousTree:
    """A stump as fit_stump returns it: leaf i holds classes[i] as a float."""
    return ObliviousTree(levels, np.arange(len(classes), dtype=np.int64), np.array(classes, float), n_features)


def predict_stump(stump: ObliviousTree, X: np.ndarray) -> np.ndarray:
    """Each row's class, ±1.0: stump.predict(X). No fit calls it, since
    fit_stump's fitted= gives a round's classes; it stays because perfbench
    times it as its tree.stump.predict layer."""
    return stump.predict(X)


def _safe_score(G: np.ndarray, H: np.ndarray, lam: float) -> np.ndarray:
    """G*G / (H + lam) where H + lam > 0, else 0."""
    denom = H + lam
    positive = denom > 0
    out = G * G
    np.divide(out, denom, out=out, where=positive)
    out[~positive] = 0.0
    return out


def _first_best(gains: np.ndarray, col: np.ndarray) -> int:
    """The flat index into gains, shape (candidates, 2) raveled, that
    np.argmax picks when the candidates are ranked by column: the greatest
    gain (or, if any gain is NaN, a NaN), of exact ties the one of the least
    column, then the earliest flat position. A column's candidates are
    contiguous and in enumeration order, so this is the earliest in
    (feature, threshold, direction) order."""
    best = gains.max()
    tied = np.flatnonzero(np.isnan(gains) if np.isnan(best) else gains == best)
    return int(tied[np.argmin(col[tied // 2])])


def _node_split(presort: Presort, node: _Node, stats, G: float, H: float, min_child_weight, reg_lambda, gamma):
    """The best split of a regression-tree node, as (feature, threshold,
    default_left), or None when no split has a strictly positive gain."""
    left, missing = node.scan(stats)
    col = node.col
    # one column per default direction: missing rows left, then right
    GL, HL = left[:, :, None] + np.stack([missing, np.zeros_like(left)], axis=2)
    GR = G - GL
    HR = H - HL
    valid = (HL >= min_child_weight) & (HR >= min_child_weight)
    denom = H + reg_lambda
    parent = G * G / denom if denom > 0 else 0.0
    score = 0.5 * (_safe_score(GL, HL, reg_lambda) + _safe_score(GR, HR, reg_lambda) - parent) - gamma
    gains = np.where(valid, score, -np.inf).reshape(-1)  # (candidate, direction) order
    if not (gains > 0).any():
        return None
    c, di = divmod(_first_best(gains, col), 2)
    return int(col[c]), _threshold(presort, col[c], node.threshold(c)), di == 0


def _children(presort: Presort, node: _Node, split: tuple, paths: list[tuple], searched: bool) -> list[_Node]:
    """The nodes split sends node's rows to, right then left, at paths: as
    remembered, or from a stable partition of node's rows and, if searched
    (the children's depth is searched), of its block."""
    children = [presort.recall(path, searched) for path in paths]
    if None not in children:
        return children
    f, thr, default_left = split
    idx, block = node.idx, node.block
    goes_right = _went_right(presort.X[idx, f], thr, missing_left=default_left)
    rows = [idx[goes_right], idx[~goes_right]]
    blocks = [None, None]  # a leaf searches nothing
    if searched:
        side = np.empty(presort.X.shape[0], dtype=bool)  # whether each of node's rows goes right
        side[idx] = goes_right
        bits = side[block[0]]
        blocks = [tuple(a[b].reshape(len(a), r.size) for a in block) for b, r in ((bits, rows[0]), (~bits, rows[1]))]
    return [
        presort.remember(path, _Node(presort, r, b if r.size >= 2 else None))
        for path, r, b in zip(paths, rows, blocks)
    ]


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
    fitted: np.ndarray | None = None,
) -> RegressionTree:
    """Greedy top-down tree on gradient/hessian sums.

    Split gain is 0.5 * (GL^2/(HL+lam) + GR^2/(HR+lam) - G^2/(H+lam)) - gamma
    and a split is kept only when the gain is strictly positive and both
    children reach min_child_weight hessian mass. Missing rows follow the
    default direction that maximizes gain (left on ties). Leaf values are
    -G/(H+lam). Of equal gains the earliest candidate wins. presort, if
    given, is Presort(X, kinds). fitted, if given, an array of one float per
    row, receives each row's leaf value: tree.predict(X), read off the fit.

    Each node scores all its candidates at once (_Node.scan) and computes the
    threshold of its winner only. A node's block, its rows of presort.block,
    is split between its children by a stable partition on the chosen split,
    so no node sorts. The nodes are remembered in presort (Presort.recall):
    another fit on it, as the next boosting round, that reaches a node by the
    same splits finds its rows, block and candidates there.
    """
    X, g, h = _fit_inputs(X, "tree", "grads and hessians", grads, hessians)
    if (h < 0).any():
        raise ValueError("hessians must be non-negative")
    d = X.shape[1]
    presort = _presorted(X, kinds, presort)
    stats = np.stack([g, h])

    # A work list rather than a recursive closure, which would be a reference
    # cycle keeping the blocks alive until the garbage collector ran. A left
    # child is popped right after its parent, so nodes are appended in
    # pre-order; a right child enters its index in its parent when popped.
    nodes: list[list] = []
    todo = [((), presort.root(), 0, -1)]  # (path, node, depth, parent of a right child)
    while todo:
        path, node, depth, right_of = todo.pop()
        idx = node.idx
        i = len(nodes)
        if right_of >= 0:
            nodes[right_of][_RIGHT] = i
        G = float(g[idx].sum())
        H = float(h[idx].sum())
        denom = H + reg_lambda
        value = -G / denom if denom > 0 else 0.0
        nodes.append([-1, None, True, -1, -1, value])
        split = None
        if depth < max_depth and idx.size >= 2:
            split = _node_split(presort, node, stats, G, H, min_child_weight, reg_lambda, gamma)
        if split is None:
            if fitted is not None:
                fitted[idx] = value
            continue
        nodes[i][:4] = [*split, i + 1]
        paths = [path + ((*split, went_right),) for went_right in (True, False)]
        children = _children(presort, node, split, paths, depth + 1 < max_depth)
        todo += [(paths[0], children[0], depth + 1, i), (paths[1], children[1], depth + 1, -1)]
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
    column j. A level's search takes those positions in (bucket, value, row)
    order, one row of at per column (positions): every column holds every
    row, so bucket b fills the same span of each row of at.
    """

    def __init__(self, candidates: _LevelCandidates, g: np.ndarray, h: np.ndarray):
        self.candidates, self.reads, self.order = candidates.swept_at, candidates.reads, candidates.rows
        self.g, self.h = g[self.order], h[self.order]
        self.by_value = self.order.reshape(-1, g.size)
        self.offset = np.arange(0, self.order.size, g.size)[:, None]

    def positions(self, bucket: np.ndarray) -> np.ndarray:
        """at for the rows' buckets: one stable sort of each column's bucket
        ids in value order, so each bucket's rows keep their value order. The
        ids are uint16 (at most 2**MAX_OBLIVIOUS_DEPTH buckets), which numpy
        sorts by radix."""
        key = bucket.astype(np.uint16)
        at = np.argsort(key[self.by_value], axis=1, kind="stable")
        at += self.offset
        return at

    def gains(self, at, size, start, Gb, Hb, parent_b, reg_lambda: float):
        """Gain and "splits a bucket" of each candidate. Moving a bucket's rows
        left one at a time in value order, each row changes only its bucket's
        term and its bucket's "is split" flag; put back in value order, the
        changes' prefix sums at each threshold are the gain and the count of
        split buckets."""
        pos = np.repeat(np.arange(size.size), size)  # the bucket at each position
        end = start + size - 1
        # a bucket's sums up to each position: the running sum minus the sums
        # of the buckets before it
        GL = self.g[at].cumsum(axis=1) - (Gb.cumsum() - Gb)[pos]
        HL = self.h[at].cumsum(axis=1) - (Hb.cumsum() - Hb)[pos]
        term = _safe_score(GL, HL, reg_lambda) + _safe_score(Gb[pos] - GL, Hb[pos] - HL, reg_lambda)
        change = np.empty_like(term)
        change[:, 1:] = term[:, 1:] - term[:, :-1]
        change[:, start] = term[:, start] - parent_b  # from all rows on the right
        moved = np.empty(at.size)
        moved[at] = change
        gains = 0.5 * moved.reshape(at.shape).cumsum(axis=1).ravel()[self.reads]
        # a bucket is split while its first row is left and its last is not
        flips = np.zeros(at.size, dtype=np.int32)
        two = size > 1
        flips[at[:, start[two]]] = 1
        flips[at[:, end[two]]] = -1
        splits = flips.reshape(at.shape).cumsum(axis=1, dtype=np.int32).ravel()[self.reads] > 0
        return gains, splits


def fit_oblivious_tree(
    X: np.ndarray,
    grads: np.ndarray,
    hessians: np.ndarray,
    kinds: tuple[FeatureKind, ...] | None = None,
    *,
    depth: int,
    reg_lambda: float = 0.0,
    presort: Presort | None = None,
    fitted: np.ndarray | None = None,
) -> ObliviousTree:
    """Level-by-level greedy symmetric tree.

    Each level picks the single (feature, threshold) maximizing the gain
    summed over all current leaf buckets. Missing rows always go left.
    Split rule: a candidate counts only if it splits at least one bucket into
    two non-empty parts, an exact row count with the missing rows on the
    left. Tie rule: of the candidates that count, the earliest in enumeration
    order whose gain is within _LEVEL_TIE_TOL * (1 + |parent score|) of the
    best wins. Stop rule: growth stops at the first level where no candidate
    counts, the best gain is not strictly positive or is NaN, or the best
    gain less the tie margin is NaN (an infinite gain and margin), and after
    MAX_OBLIVIOUS_DEPTH levels, so the recorded depth may be shallower than
    requested, and every level splits a bucket of the rows. fitted, if given,
    an array of one float per row, receives each row's output: tree.predict(X),
    read off the fit's final buckets.

    The search is bucket-sorted, and its candidates are listed once per
    Presort (_LevelCandidates). For a categorical or single-threshold column,
    one bincount by bucket of each candidate's left rows gives its sums. The
    columns of several thresholds are swept (_SweptColumns): each level
    takes their rows in (bucket, value) order from one stable sort of the
    rows' bucket ids in value order, so no order is carried between levels.
    A bucket is the rank of a row's leaf among the occupied leaves, so the
    leaves' ids are found by placing each row's leaf at its bucket.
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
    size = np.array([n])  # the rows of each bucket
    levels: list[tuple[int, float | frozenset[int]]] = []
    for _ in range(min(depth, MAX_OBLIVIOUS_DEPTH)):
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
                sweep.positions(bucket), size, start, Gb, Hb, parent_b, reg_lambda
            )
        if not splits.any():
            break
        best = gains[splits].max()
        tol = _LEVEL_TIE_TOL * (1.0 + abs(parent))
        if not best > 0 or np.isnan(best - tol):  # NaN: sums past the float range
            break
        k = int(np.flatnonzero(splits & (gains >= best - tol))[0])
        f, thr = features[k], thresholds[k]
        levels.append((f, thr))
        right = _went_right(X[:, f], thr, missing_left=True)
        leaf = leaf * 2 + right
        split_bucket = bucket * 2 + right
        count = np.bincount(split_bucket)
        occupied = count > 0
        size = count[occupied]
        bucket = (np.cumsum(occupied) - 1)[split_bucket]

    leaf_ids = np.empty(size.size, dtype=np.int64)  # bucket ranks the occupied leaves
    leaf_ids[bucket] = leaf
    denom = np.bincount(bucket, weights=h) + reg_lambda  # each bin sums its rows in row order
    leaf_values = np.zeros(leaf_ids.size)
    np.divide(-np.bincount(bucket, weights=g), denom, out=leaf_values, where=denom > 0)
    kept = leaf_values != 0
    if fitted is not None:  # a dropped leaf predicts +0.0, whatever the sign of its zero
        fitted[:] = np.where(kept, leaf_values, 0.0)[bucket]
    return ObliviousTree(tuple(levels), leaf_ids[kept], leaf_values[kept], d)


def _threshold_to_json(thr):
    if isinstance(thr, frozenset):
        return {"levels": sorted(int(v) for v in thr)}
    return float(thr)


def _threshold_from_json(obj):
    if isinstance(obj, dict):
        if not isinstance(obj["levels"], list):
            raise MalformedModel("categorical levels must be a list")
        return frozenset(as_index(v, math.inf, "categorical level") for v in obj["levels"])
    return as_number(obj, "threshold")


def tree_to_dict(tree: RegressionTree | ObliviousTree) -> dict:
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


def tree_from_dict(d: dict, n_features: int, format_version: int = 2) -> RegressionTree | ObliviousTree:
    """Rebuild a tree that reads an n_features-column matrix; a tree that
    records another width or splits outside [0, n_features) is MalformedModel.
    Regression nodes are renumbered into pre-order from node 0, so any layout
    loads; a child index that is not a node, or a node reached twice, is not.
    An oblivious tree of format_version 1 lists every leaf and no leaf_index.
    """
    kind = d["kind"]
    if kind not in ("regression", "oblivious"):
        raise MalformedModel(f"unknown tree kind {kind!r}")
    if as_index(d["n_features"], math.inf, "n_features") != n_features:
        raise MalformedModel(f"{kind} tree reads {d['n_features']!r} columns, not {n_features}")

    if kind == "regression":
        entries = d["nodes"]
        seen: set[int] = set()
        nodes: list[list] = []
        todo = [(0, -1)]  # (entry index, parent of a right child), as in the fit
        while todo:
            j, right_of = todo.pop()
            j = as_index(j, len(entries), "node index")
            if j in seen:
                raise MalformedModel(f"node {j} is reached twice")
            seen.add(j)
            i = len(nodes)
            if right_of >= 0:
                nodes[right_of][_RIGHT] = i
            entry = entries[j]
            if "value" in entry:  # the gradient and hessian sums of older files are ignored
                nodes.append([-1, None, True, -1, -1, as_number(entry["value"], "value")])
            else:
                f = as_index(entry["feature_index"], n_features)
                thr = _threshold_from_json(entry["threshold"])
                direction = one_of(entry["default_direction"], ("left", "right"), "default_direction")
                nodes.append([f, thr, direction == "left", i + 1, -1, 0.0])
                todo += [(entry["right"], i), (entry["left"], -1)]
        return _regression_tree(nodes, n_features)
    levels = tuple(
        (as_index(lv["feature_index"], n_features), _threshold_from_json(lv["threshold"]))
        for lv in d["levels"]
    )
    if len(levels) > MAX_OBLIVIOUS_DEPTH:
        raise MalformedModel(f"an oblivious tree of {len(levels)} levels, over {MAX_OBLIVIOUS_DEPTH}")
    if format_version == 1:  # every leaf, zeros too (and sums, which are ignored)
        leaf_ids = np.arange(1 << len(levels), dtype=np.int64)
    else:
        index = [as_index(i, 1 << len(levels), "leaf_index") for i in d["leaf_index"]]
        leaf_ids = np.array(index, dtype=np.int64)
        if (leaf_ids[1:] <= leaf_ids[:-1]).any():
            raise MalformedModel("leaf_index is not strictly increasing")
    if leaf_ids.size != len(d["leaf_values"]):
        raise MalformedModel("leaf_index and leaf_values differ in length")
    leaf_values = np.array([as_number(v, "leaf value") for v in d["leaf_values"]], dtype=np.float64)
    kept = leaf_values != 0
    return ObliviousTree(levels, leaf_ids[kept], leaf_values[kept], n_features)


def stump_from_dict(d: dict, n_features: int) -> ObliviousTree:
    """A stump of the stumps list of an older AdaBoost file, as fit_stump
    returns it: one level whose leaves are left_class and right_class, or no
    level and one leaf when the two classes agree. An entry of another kind
    is MalformedModel."""
    if d["kind"] != "stump":
        raise MalformedModel(f"a stumps entry of kind {d['kind']!r}, not 'stump'")
    level = (as_index(d["feature_index"], n_features), _threshold_from_json(d["threshold"]))
    lc = one_of(d["left_class"], (-1, 1), "left_class")
    rc = one_of(d["right_class"], (-1, 1), "right_class")
    return _stump((level,), (lc, rc), n_features) if lc != rc else _stump((), (lc,), n_features)

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
are. The fit and the model reader lay the nodes out in one place,
_preorder_tree.

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

Each tree shape has one split search. A regression tree scores each node
it searches through one kernel, _Node.scan, which returns every candidate of
the node's rows with its gradient and hessian sums in one pass. A node's rows
of the sorted columns of several thresholds are its block; a stable partition
on the chosen split hands each child its block in the same order, so no node
sorts. An oblivious tree's search is bucket-sorted instead, since a level's
gain sums over every leaf bucket: its candidates are listed once per Presort
(Presort.level_candidates), and each level takes the rows of its swept
columns in (bucket, value) order from one stable sort of their bucket ids
(see fit_oblivious_tree). A stump is that search's one level with all rows in
one bucket, its per-row statistics the weight each leaf class misclassifies.

A searched node (_Node) holds what its scan needs of its rows alone: the rows,
the block, the candidates and which rows each sum adds; a leaf is its rows.
Only the sums depend on the round's statistics. The rounds of a fit search
the same nodes again and again, so a Presort remembers them (Presort.recall),
each keyed by its path from the root: the (feature, threshold, default_left,
went_right) of each split above it. X does not change within a fit, so one
path always selects the same rows in the same order, and a remembered node
sums the same numbers in the same order as a new one: no bit of a fit depends
on the memo. It holds at most MAX_NODE_CACHE_BYTES of arrays and drops the
least recently used node first. Nodes are kept small so that the budget holds
the ones a fit revisits: a block holds row indices, not values
(Presort.swept_cells has those).

Every search lists its candidates in group order, each group from the
Presort's own arrays: the swept columns', then the single-threshold
columns', then the categorical levels. A regression node lists those its
rows offer (_Node), an oblivious level, a stump's too, those of all rows
(_LevelCandidates). Each column's candidates are contiguous and in
enumeration order, so the selection rule below needs no sort by column. A
scan computes no midpoint: a node keeps each swept candidate's place in the
block, and the caller computes its winner's threshold alone (a
single-threshold column's is computed once, in Presort; a level is its own).

Every sum a fit takes adds its numbers in one fixed order, whatever the rows
outside a node, so fits are bit-for-bit repeatable: sequential cumsums,
bincounts and np.add.at in a fixed row order, and np.sum's pairwise sum of a
1-D array.
That pairwise sum is kept on the 1-D array it has always been taken on: a
reduction along an axis of a 2-D array (at[:, rows].sum(axis=1) for
a[rows].sum()) groups the additions differently and moves results by an ulp.
The loops take it, and every other reduction, by the ufunc method (_sum is
np.add.reduce, the loop ndarray.sum runs): numpy's Python wrappers around the
C calls would be half the Python calls of a paper-preset CatBoost fit.
A sequential sum waits for each addition before the next, so the searches
run such sums side by side without changing their order: the gradient and
hessian sums as the parts of complex pairs (_pair), and the sums of a bincount
or np.add.at over rows listed row by row, each row once per sum it is in, not
sum after sum.

Thresholds lie between consecutive distinct values lo < hi: their midpoint,
computed without overflow, or lo where the midpoint rounds to hi (_midpoints).
So a split routes the rows as its gain or error was scored.

Candidate enumeration order is feature index ascending, then threshold
ascending, then orientation / default direction. Every search selects its
split by one rule, so fits are fully deterministic: the earliest candidate in
enumeration order whose score is within tol of the best (_first_best). A
stump's score is its error, least best, and tol is _TIE_TOL (its weights sum
to 1). An oblivious level's is its gain, and tol is _TIE_TOL * (1 + |parent
score|), since the gain sums a rounded term per bucket. A regression node's
is its gain, and tol is 0, so only exact ties: that tol at regression nodes
moved the splits of 4 of 11 paper-preset GBM fits.
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

# The tie margin of a stump's error and, as a fraction of (1 + the parent
# score), of an oblivious level's gain (see the module docstring).
_TIE_TOL = 1e-9

# The most levels an oblivious tree has, as in CatBoost on CPU: a fit stops there
# and a model file may not exceed it, so a lookup of 2**levels leaves stays small.
MAX_OBLIVIOUS_DEPTH = 16

# The C reductions that ndarray.sum/min/max/any/all reach through a Python
# function of numpy's (_methods.py): the fit loops call them directly, and
# pass axis=None where the method's default flattens an array of several axes.
_sum = np.add.reduce
_min = np.minimum.reduce
_max = np.maximum.reduce
_any = np.logical_or.reduce
_all = np.logical_and.reduce


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
        return (self.feature < 0).nonzero()[0]

    def tests(self) -> list[tuple]:
        """The (feature, threshold, missing_left) test of each split node, in pre-order."""
        tests = zip(self.feature.tolist(), self.threshold.tolist(), self.default_left.tolist())
        return [t for t in tests if t[0] >= 0]

    def output(self, right: np.ndarray, path) -> np.ndarray:
        """Each row's leaf value, from the "went right" rows path names for
        tests(). Each row's leaf is found bottom-up as an integer node code:
        a leaf's code is its index, and the split nodes in reverse pre-order,
        so children before parents, each take per row lo + went_right * (hi -
        lo) of their children's codes, in the narrowest unsigned type that
        holds every node index (uint8 up to 255 nodes); hi - lo is positive,
        as a left subtree precedes its right sibling. value is then gathered
        once, by an intp index. A tree of one leaf gives its value as a scalar."""
        width = np.min_scalar_type(self.feature.size)
        code = list(np.arange(self.feature.size, dtype=width))  # a leaf's code is its index
        lo, hi = self.left.tolist(), self.right.tolist()
        for i, k in zip(reversed((self.feature >= 0).nonzero()[0].tolist()), reversed(path)):
            a, b = code[lo[i]], code[hi[i]]
            # dtype= keeps the codes in width: numpy 1 would type a product with a scalar by its value
            code[i] = np.multiply(right[k], b - a, dtype=width)
            code[i] += a
            code[lo[i]] = code[hi[i]] = None  # read once; dropped to bound the live arrays
        return self.value[code[0].astype(np.intp)]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Each row's leaf value, by predict_trees: -0.0 + v and 1.0 * v are v
        bit for bit, so a -0.0 leaf keeps its sign."""
        return predict_trees([self], X, -0.0, 1.0)


# A node row as _preorder_tree appends it, in RegressionTree's field order.
_NODE_DTYPES = (np.int64, object, bool, np.int64, np.int64, np.float64)


def _preorder_tree(root, expand, n_features: int) -> RegressionTree:
    """The regression tree that expand grows from root, its nodes in
    pre-order. expand(item) gives a leaf as (value, None) and a split node as
    (value, (feature, threshold, default_left), right_item, left_item). A work
    list, not a recursive closure, which would be a reference cycle holding
    the items (a fit's blocks) alive until the garbage collector ran."""
    nodes: list[list] = []
    todo = [(root, -1)]  # (item, parent of a right child); a left child pops right after its parent
    while todo:
        item, right_of = todo.pop()
        i = len(nodes)
        if right_of >= 0:
            nodes[right_of][4] = i  # right
        value, split, *children = expand(item)
        nodes.append([-1, None, True, -1, -1, value] if split is None else [*split, i + 1, -1, value])
        todo += zip(children, (i, -1))
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

# The most bytes of arrays a Presort's memo of searched nodes (Presort.recall)
# holds; it drops the least recently used node first. The nodes of the paper
# preset's fits fit whole; default-params fits on scale's 4 000 training rows rebuild
# few: GBM 204 searched nodes for 193 distinct ones, XGBoost 340 for 289.
MAX_NODE_CACHE_BYTES = 8 << 20


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


def _fit_inputs(X, learner: str, names: str, values, mass) -> tuple[np.ndarray, ...]:
    """X as a float matrix with at least one row, and the per-row vectors
    names calls "<values> and <mass>" as float arrays of one entry per row; a
    negative, infinite or NaN mass (weights or hessians) is a ValueError."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if X.shape[0] == 0:
        raise EmptyData(f"cannot fit a {learner} on zero rows")
    vectors = tuple(np.asarray(v, dtype=np.float64) for v in (values, mass))
    if any(v.shape != (X.shape[0],) for v in vectors):
        raise ValueError(f"{names} must match the row count")
    if not _all((vectors[1] >= 0) & (vectors[1] < np.inf)):  # NaN too
        raise ValueError(f"{names.split(' and ')[1]} must be non-negative and finite")
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
    swept columns' rows of order, the block of a tree's root, and swept_cells
    their cells, one contiguous row per column. A column of a single
    threshold, such as a binary one, is kept as the side each row takes
    (single_code). A categorical column offers its levels (cat_levels), each
    the first of its run of equal values in the column's sorted values, so
    ascending as np.unique gives them, without np.unique (whose first call
    imports numpy.ma). A column of one distinct value offers nothing.

    Every fitter in this module takes a Presort as presort= and builds one
    itself without it; a boosting loop builds one per fit, since X does not
    change between its rounds.

    A Presort also remembers the searched nodes of the regression trees fit
    on it (_Node), and no leaf, each under its path from the root: the
    (feature, threshold, default_left, went_right) of each split above it.
    nodes maps each path to its node and the bytes of its arrays, least
    recently used first, and node_bytes sums those bytes; past
    MAX_NODE_CACHE_BYTES the least recently used nodes are dropped. A node
    holds only what its rows decide, and a path always selects the same rows
    in the same order, so a remembered node gives a fit the same bits as a
    new one.
    """

    def __init__(self, X, kinds: tuple[FeatureKind, ...] | None = None):
        self.X = X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        n, d = X.shape
        self.categorical = _categorical(kinds, d)
        self.order = X.T.argsort(axis=1, kind="stable")  # NaN sorts last
        self.values = np.take_along_axis(X.T, self.order, axis=1)
        self.n_observed = n - _sum(np.isnan(X), axis=0)
        n_thresholds = _sum(self.values[:, :-1] < self.values[:, 1:], axis=1, dtype=np.intp)
        self.swept = (~self.categorical & (n_thresholds > 1)).nonzero()[0]
        self.block = self.order[self.swept]
        self.swept_cells = X.T[self.swept]
        self.single = (~self.categorical & (n_thresholds == 1)).nonzero()[0]
        lo = self.values[self.single, 0]  # a single threshold lies above the least value
        hi = np.array([v[v > v[0]][0] for v in self.values[self.single]])
        self.single_threshold = _midpoints(lo, hi)
        # per row and single-threshold column r: 3 * r, plus 1 above the
        # threshold or 2 when missing; row-major, so a node takes its rows whole
        cells = X[:, self.single]
        self.single_code = np.ascontiguousarray(
            3 * np.arange(self.single.size) + np.where(np.isnan(cells), 2, cells > self.single_threshold)
        )
        self.cat_levels = []
        for j in self.categorical.nonzero()[0]:
            observed = self.values[j, : self.n_observed[j]]
            first = np.ones(observed.size, dtype=bool)  # the first of each run of equal values
            np.not_equal(observed[1:], observed[:-1], out=first[1:])
            self.cat_levels.append((j, observed[first], X[:, j].copy()))
        self.nodes: dict[tuple, tuple[_Node, int]] = {}
        self.node_bytes = 0

    def recall(self, path: tuple) -> _Node | None:
        """The node at path, now the most recently used, or None if it is not
        remembered."""
        entry = self.nodes.pop(path, None)
        if entry is not None:
            self.nodes[path] = entry
        return None if entry is None else entry[0]

    def remember(self, path: tuple, node: _Node) -> _Node:
        """node, kept as the node at path, which recall did not find, then the
        least recently used nodes dropped while the memo holds more than
        MAX_NODE_CACHE_BYTES (node too, if it alone is larger)."""
        self.nodes[path] = entry = (node, node.nbytes())
        self.node_bytes += entry[1]
        while self.node_bytes > MAX_NODE_CACHE_BYTES:
            self.node_bytes -= self.nodes.pop(next(iter(self.nodes)))[1]
        return node

    @cached_property
    def level_candidates(self) -> _LevelCandidates:
        """The candidates of an oblivious level (see _LevelCandidates)."""
        return _LevelCandidates(self)


def _categorical(kinds, d: int) -> np.ndarray:
    """Whether each of d columns is categorical by kinds; None is all numeric,
    and kinds of another length than d is a ValueError."""
    if kinds is not None and len(kinds) != d:
        raise ValueError(f"kinds has {len(kinds)} entries for {d} columns")
    return np.array([kinds is not None and kinds[j].is_categorical for j in range(d)], dtype=bool)


def _presorted(X: np.ndarray, kinds, presort: Presort | None) -> Presort:
    """presort, or X sorted now; a presort of a matrix of another shape, or
    built with other categorical columns than kinds marks, is a ValueError."""
    if presort is None:
        return Presort(X, kinds)
    if presort.X.shape != X.shape:
        raise ValueError(f"presort is of a {presort.X.shape} matrix, X is {X.shape}")
    if _any(presort.categorical != _categorical(kinds, X.shape[1])):  # both of X's width, checked above
        raise ValueError("presort was built with other categorical columns than kinds marks")
    return presort


class _Node:
    """A searched node of a regression tree: its rows and what its scan
    needs of them, which the rows alone decide. Only scan's sums depend on the
    per-row statistics. A leaf is no _Node, only its rows.

    idx lists the node's rows, ascending, and block their part of
    presort.block in its order. The node lists its candidates in group order:
    the swept columns' candidates, then the single-threshold columns', then
    the categorical levels; each column's candidates are contiguous and in
    enumeration order. col holds each candidate's column and fixed the
    thresholds of the candidates that are not swept (a float, or the level of
    a categorical column), in order. A swept candidate lies between the cells
    of rows block.flat[at] and block.flat[at + 1] in their column of
    presort.swept_cells, at being its entry in swept_at. single_rows lists the
    left rows of the n_single single-threshold candidates row by row, each row
    once for each candidate it is left of, in candidate order, and single_cell
    the candidate of each entry. sum_rows lists the rows of each sum taken
    alone, in row order: the rows of each level (n_levels of them), then the
    missing rows of each column that has any; missing_where gives each column,
    and one past the last, the place of its missing rows after the levels, or
    one past them for none.
    """

    def __init__(self, presort: Presort, idx: np.ndarray, block: np.ndarray):
        self.idx, self.block = idx, block
        m = idx.size
        missing_col, missing_rows = [], []

        # swept columns: a candidate between each two distinct neighbours of a
        # block row (False next to NaN), at its flat place in the block
        values = presort.swept_cells.take(block + presort.X.shape[0] * np.arange(len(block))[:, None])
        between = values[:, :-1] < values[:, 1:]
        row = np.arange(len(block)).repeat(_sum(between, axis=1, dtype=np.intp))
        self.swept_at = between.ravel().nonzero()[0] + row  # a row of between is one shorter
        n_observed = m - _sum(np.isnan(values), axis=1, dtype=np.intp)
        for r in (n_observed < m).nonzero()[0]:
            missing_col.append(presort.swept[r])
            missing_rows.append(block[r, n_observed[r] :])

        # single-threshold columns: a candidate where both sides hold a row
        s = presort.single.size
        code = presort.single_code[idx]
        count = np.bincount(code.reshape(-1), minlength=3 * s).reshape(s, 3)
        offered = ((count[:, 0] > 0) & (count[:, 1] > 0)).nonzero()[0]
        self.n_single = n = offered.size
        # the offered columns' left rows, row by row (see the module docstring)
        at = (code[:, offered] == 3 * offered).ravel().nonzero()[0]  # place * n + candidate
        place = at // n  # empty for n = 0
        self.single_rows = idx[place]
        self.single_cell = (at - place * n).astype(np.min_scalar_type(n))
        for r in offered[count[offered, 2] > 0]:
            missing_col.append(presort.single[r])
            missing_rows.append(idx[code[:, r] == 3 * r + 2])

        # categorical columns: each level present
        cat_cols, levels, level_rows = [], [], []
        for j, column_levels, column in presort.cat_levels:
            col = column[idx]
            for v in column_levels:
                in_level = col == v
                if _any(in_level):
                    cat_cols.append(j)
                    levels.append(v)
                    level_rows.append(idx[in_level])
            skipped = np.isnan(col)
            if _any(skipped):
                missing_col.append(j)
                missing_rows.append(idx[skipped])

        self.col = np.concatenate([presort.swept[row], presort.single[offered], np.array(cat_cols, dtype=np.int64)])
        self.fixed = np.concatenate([presort.single_threshold[offered], np.array(levels, dtype=np.float64)])
        self.n_levels = len(level_rows)
        self.sum_rows = level_rows + missing_rows
        self.missing_where = np.full(presort.X.shape[1] + 1, len(missing_rows))  # the column past the last: none
        self.missing_where[missing_col] = np.arange(len(missing_rows))

    def nbytes(self) -> int:
        """The bytes of every array the node holds, in its lists too, views of
        other arrays too."""
        held = [a for v in vars(self).values() for a in (v if isinstance(v, list) else [v])]
        return sum(a.nbytes for a in held if isinstance(a, np.ndarray))

    def scan(self, g: np.ndarray, h: np.ndarray, gh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every candidate's gradient and hessian sums: left, shape (2,
        candidates), over the rows the candidate sends left, and missing, the
        same shape, over its column's missing rows (missing rows are in no left
        sum). g and h are the rows' gradients and hessians, and gh the same as
        _pair(g, h).

        Each sum adds its numbers in one fixed order, so a fit's bits do not
        depend on the rows outside a node: a swept column's left sums by one
        sequential cumsum along each block row, in (value, row) order; a
        single-threshold column's by one sequential np.add.at of its left
        rows, in row order; a level's and the missing rows' by np.sum's
        pairwise sum in row order, each on its own 1-D array (a 2-D axis sum
        would round differently). The cumsum and np.add.at take both
        statistics as complex pairs, and np.add.at the left rows row by row
        (see the module docstring).
        """
        swept = gh.take(self.block)
        swept = swept.cumsum(axis=1, out=swept).reshape(-1)[self.swept_at]
        single = np.zeros(self.n_single, dtype=complex)
        np.add.at(single, self.single_cell.astype(np.intp), gh[self.single_rows])  # faster on intp
        both = np.concatenate([swept, single])
        sums = np.array([[_sum(s[rows]) for rows in self.sum_rows] for s in (g, h)]).reshape(2, -1)
        left = np.concatenate([[both.real, both.imag], sums[:, : self.n_levels]], axis=1)
        missing = np.concatenate([sums[:, self.n_levels :], np.zeros((2, 1))], axis=1)
        return left, missing.take(self.missing_where[self.col], axis=1)

    def threshold(self, presort: Presort, c: int):
        """Candidate c's threshold as a split test stores it, computed for c alone."""
        if c < self.swept_at.size:
            r, at = divmod(int(self.swept_at[c]), self.idx.size)
            cells, rows = presort.swept_cells[r], self.block[r]
            return float(_midpoints(cells[rows[at]], cells[rows[at + 1]]))
        v = self.fixed[c - self.swept_at.size]
        return frozenset({int(v)}) if presort.categorical[self.col[c]] else float(v)


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
    oblivious tree. y must be ±1 and weights non-negative summing to 1; a
    negative, infinite or NaN weight is a ValueError. If one class carries
    zero weight, or no column offers a split, the constant majority predictor
    is returned: a tree of no level and one leaf, its class. presort, if
    given, is Presort(X, kinds). fitted, if given, an array of one float per
    row, receives each row's class: predict_stump(stump, X), read off the
    chosen split.

    The search is an oblivious level's with all rows in one bucket
    (Presort.level_candidates): each candidate's left sums of the weights a
    leaf misclassifies are a cumsum in value order for the swept
    candidates, then a bincount of the left rows for the masked ones, in
    group order. The earliest candidate within _TIE_TOL of the least error
    wins (see the module docstring). The error returned
    is the weight the stump misclassifies, one sum over those rows: 0.0 for
    a stump that errs on no weighted row, never negative, and at most 0.5 +
    _TIE_TOL, since both orientations are searched.
    """
    X, y, w = _fit_inputs(X, "stump", "y and weights", y, weights)
    if not _all((y == -1) | (y == 1)):
        raise ValueError("labels must be -1 or +1")
    d = X.shape[1]

    presort = _presorted(X, kinds, presort)
    w_pos = float(_sum(w[y == 1]))
    w_neg = float(_sum(w[y == -1]))

    def constant():
        c = 1 if w_pos >= w_neg else -1
        if fitted is not None:
            fitted[:] = c
        return _stump((), (c,), d), min(w_pos, w_neg)

    if w_pos == 0.0 or w_neg == 0.0:
        return constant()

    cand = presort.level_candidates
    wrong = {c: y != c for c in (-1, 1)}  # the rows a leaf of class c gets wrong
    stats = np.stack([w * wrong[-1], w * wrong[1]])  # the weights a -1 and a +1 leaf miss
    left = []  # each candidate's sums over its left rows, the swept ones' then the masked ones'
    for s in stats:
        masked = np.bincount(cand.left_of, weights=s[cand.left_rows], minlength=cand.n_masked)
        left.append(np.concatenate([s[cand.by_value].cumsum(axis=1).ravel()[cand.reads], masked]))
    total = _sum(stats, axis=1)
    errs = np.stack([left[0] + total[1] - left[1], left[1] + total[0] - left[0]], axis=1)  # per orientation
    if errs.size == 0:
        return constant()
    c, oi = _first_best(-errs, cand.features, _TIE_TOL)
    f, thr = int(cand.features[c]), cand.thresholds[c]
    lc, rc = _ORIENTATIONS[oi]
    right = _went_right(presort.X[:, f], thr, missing_left=True)
    if fitted is not None:
        fitted[:] = np.where(right, rc, lc)
    return _stump(((f, thr),), (lc, rc), d), float(_sum(w[np.where(right, wrong[rc], wrong[lc])]))


def _stump(levels: tuple, classes: tuple[int, ...], n_features: int) -> ObliviousTree:
    """A stump as fit_stump returns it: leaf i holds classes[i] as a float."""
    return ObliviousTree(levels, np.arange(len(classes), dtype=np.int64), np.array(classes, float), n_features)


def predict_stump(stump: ObliviousTree, X: np.ndarray) -> np.ndarray:
    """Each row's class, ±1.0: stump.predict(X). No fit calls it, since
    fit_stump's fitted= gives a round's classes; it stays because perfbench
    times it as its tree.stump.predict layer."""
    return stump.predict(X)


def _pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b*1j, each part a copy of its array's bits. A cumsum or np.add.at
    of the pairs adds each part as the float one would, in about the time of
    one (only a sum of two NaNs may keep the other one's payload)."""
    out = np.empty(a.shape, dtype=complex)
    out.real, out.imag = a, b
    return out


def _safe_score(G: np.ndarray, H: np.ndarray, lam: float) -> np.ndarray:
    """G*G / (H + lam) where H + lam > 0, else 0.

    When every H + lam is positive, G*G is divided by it once, in place: a
    masked divide (where=) performs the same division at each place it
    divides, so the bits are the same. At the default lam = 1 that is every
    call of a fit: a sum of non-negative hessians falls below zero only by
    rounding, by far less than 1. A zero, negative or NaN H + lam takes the
    masked divide, with 0 there."""
    denom = H + lam
    out = G * G
    if _min(denom, axis=None, initial=np.inf) > 0:  # NaN is not, nor is a NaN minimum
        out /= denom
        return out
    positive = denom > 0
    np.divide(out, denom, out=out, where=positive)
    out[~positive] = 0.0
    return out


def _first_best(scores: np.ndarray, col: np.ndarray, tol: float = 0.0) -> tuple[int, int]:
    """The (candidate, way) that the selection rule picks from scores, shape
    (candidates, ways): the earliest in enumeration order whose score is
    within tol of the greatest, or, if a score is NaN, the earliest NaN. col
    gives each candidate's column, and each column's candidates are
    contiguous and in enumeration order, so the earliest is of the least
    column, then at the least flat position."""
    flat = scores.reshape(-1)
    best = _max(flat)
    tied = (np.isnan(flat) if np.isnan(best) else flat >= best - tol).nonzero()[0]
    return divmod(int(tied[col[tied // scores.shape[1]].argmin()]), scores.shape[1])


def _node_split(presort: Presort, node: _Node, stats, G: float, H: float, min_child_weight, reg_lambda, gamma):
    """The best split of a regression-tree node, as (feature, threshold,
    default_left), or None when no split has a strictly positive gain. stats
    are scan's arguments."""
    left, missing = node.scan(*stats)
    col = node.col
    # sums[side, stat, candidate, direction]: the left then the right side's
    # G and H, one column per default direction (missing rows left, then right)
    sums = np.empty((2, *left.shape, 2))
    np.add(left, missing, out=sums[0, :, :, 0])
    sums[0, :, :, 1] = left
    np.subtract(np.array([G, H])[:, None, None], sums[0], out=sums[1])
    valid = _all(sums[:, 1] >= min_child_weight, axis=0)
    denom = H + reg_lambda
    parent = G * G / denom if denom > 0 else 0.0
    both = _safe_score(sums[:, 0], sums[:, 1], reg_lambda)
    score = np.add(both[0], both[1], out=both[0])
    score -= parent
    score *= 0.5
    score -= gamma
    gains = np.where(valid, score, -np.inf)  # (candidate, direction)
    if not _any(gains > 0, axis=None):
        return None
    c, di = _first_best(gains, col)
    return int(col[c]), node.threshold(presort, c), di == 0


def _children(presort: Presort, node: _Node, split: tuple, paths: list[tuple], searched: bool) -> list:
    """The children split sends node's rows to, right then left, at paths. If
    searched (the children's depth is searched), a child of two rows or more
    is a _Node: as remembered, or from a stable partition of node's rows and
    block, then remembered. A leaf is its rows, and is not remembered."""
    children = [presort.recall(path) for path in paths] if searched else [None, None]
    if None not in children:
        return children
    f, thr, default_left = split
    idx, block = node.idx, node.block
    goes_right = _went_right(presort.X[idx, f], thr, missing_left=default_left)
    rows = [idx[goes_right], idx[~goes_right]]
    if searched:
        side = np.empty(presort.X.shape[0], dtype=bool)  # whether each of node's rows goes right
        side[idx] = goes_right
        bits = side[block]
        for k, (path, r, b) in enumerate(zip(paths, rows, (bits, ~bits))):
            if children[k] is None and r.size >= 2:
                children[k] = presort.remember(path, _Node(presort, r, block[b].reshape(len(block), r.size)))
    return [r if child is None else child for child, r in zip(children, rows)]


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
    -G/(H+lam). Of exactly equal gains the earliest candidate wins (the
    module's selection rule with tol = 0). A negative, infinite or NaN
    hessian is a ValueError. presort, if given, is Presort(X, kinds).
    fitted, if given, an array of one float per row, receives each row's
    leaf value: tree.predict(X), read off the fit.

    Each node scores all its candidates at once (_Node.scan) and computes the
    threshold of its winner only. A node's block, its rows of presort.block,
    is split between its children by a stable partition on the chosen split,
    so no node sorts. The searched nodes are remembered in presort
    (Presort.recall): another fit on it, as the next boosting round, that
    reaches a node by the same splits finds its rows, block and candidates
    there.
    """
    X, g, h = _fit_inputs(X, "tree", "grads and hessians", grads, hessians)
    d = X.shape[1]
    presort = _presorted(X, kinds, presort)
    stats = (g, h, _pair(g, h))

    root = np.arange(X.shape[0])
    if max_depth > 0 and root.size >= 2:
        root = presort.recall(()) or presort.remember((), _Node(presort, root, presort.block))

    def expand(item):  # item: (path, searched node or a leaf's rows, depth)
        path, node, depth = item
        leaf = isinstance(node, np.ndarray)
        idx = node if leaf else node.idx
        G = float(_sum(g[idx]))
        H = float(_sum(h[idx]))
        denom = H + reg_lambda
        value = -G / denom if denom > 0 else 0.0
        split = None if leaf else _node_split(presort, node, stats, G, H, min_child_weight, reg_lambda, gamma)
        if split is None:
            if fitted is not None:
                fitted[idx] = value
            return value, None
        paths = [path + ((*split, went_right),) for went_right in (True, False)]
        children = _children(presort, node, split, paths, depth + 1 < max_depth)
        return value, split, (paths[0], children[0], depth + 1), (paths[1], children[1], depth + 1)

    return _preorder_tree(((), root, 0), expand, d)


class _LevelCandidates:
    """Every candidate split of an oblivious level, in group order (see the
    module docstring), and how the search finds their gains; built once per
    Presort.

    features (int64) and thresholds list the candidates: the swept columns'
    first, then the n_masked candidates of the single-threshold columns and
    the categorical levels. The swept columns are searched together: by_value
    holds each one's rows in value order with the missing rows first, one row
    per column, so flat position j * n + i names the i-th row of swept column
    j; reads lists the flat position of each swept candidate's last left row,
    and offset each column's first flat position. A masked candidate's sums
    come from the rows it sends left (by _went_right, so missing rows
    included): left_rows lists them row by row, each row once for each masked
    candidate it is left of, in candidate order (see the module docstring),
    and left_of each entry's masked candidate.
    """

    def __init__(self, presort: Presort):
        n = presort.X.shape[0]
        swept, n_observed = presort.swept, presort.n_observed[presort.swept]
        values = presort.values[swept]
        r, end = (values[:, :-1] < values[:, 1:]).nonzero()  # False next to NaN
        rotate = (np.arange(n) + n_observed[:, None]) % n  # the missing rows first
        self.by_value = np.take_along_axis(presort.order[swept], rotate, axis=1)
        self.reads = r * n + n - n_observed[r] + end
        self.offset = n * np.arange(swept.size)[:, None]
        masked = [(f, t, True) for f, t in zip(presort.single.tolist(), presort.single_threshold.tolist())]
        masked += [(j, frozenset({int(v)}), True) for j, levels, _ in presort.cat_levels for v in levels.tolist()]
        self.n_masked = len(masked)
        self.features = np.concatenate([swept[r], np.array([f for f, _, _ in masked], dtype=np.int64)])
        self.thresholds = _midpoints(values[r, end], values[r, end + 1]).tolist() + [t for _, t, _ in masked]
        self.left_rows, self.left_of = (~_split_bits(masked, presort.X.T).T).nonzero()

    def positions(self, bucket: np.ndarray) -> np.ndarray:
        """The flat positions of the swept rows in (bucket, value, row) order,
        one row per column: one stable sort of each column's bucket ids in
        value order, so each bucket's rows keep their value order. Every
        column holds every row, so bucket b fills the same span of each row.
        The ids are uint16 (at most 2**MAX_OBLIVIOUS_DEPTH buckets), which
        numpy sorts by radix."""
        key = bucket.astype(np.uint16)
        at = key[self.by_value].argsort(axis=1, kind="stable")
        at += self.offset
        return at

    def gains(self, gh, at, size, start, Gb, Hb, parent_b, reg_lambda: float):
        """Gain and "splits a bucket" of each swept candidate, where gh holds
        the rows' statistics as g + h*1j (_pair) at the flat positions of
        by_value and at is positions(bucket). Moving a bucket's rows left one
        at a time in value order, each row changes only its bucket's term and
        its bucket's "is split" flag; put back in value order, the changes'
        prefix sums at each threshold are the gain and the count of split
        buckets. The sums of g and of h, and then the changes and the flag
        changes, are pairs of one complex cumsum each (see _pair); a count of
        +1 and -1 is exact in a float."""
        pos = np.arange(size.size).repeat(size)  # the bucket at each position
        end = start + size - 1
        # a bucket's sums up to each position: the running sum minus the sums
        # of the buckets before it; then, in the same array, the sums right
        # of each position
        Gbh = _pair(Gb, Hb)
        sums = gh[at]
        sums.cumsum(axis=1, out=sums)
        sums -= (Gbh.cumsum() - Gbh)[pos]
        term = _safe_score(sums.real, sums.imag, reg_lambda)
        np.subtract(Gbh[pos], sums, out=sums)
        term += _safe_score(sums.real, sums.imag, reg_lambda)
        change = np.empty_like(term)  # each position's change of its bucket's term
        np.subtract(term[:, 1:], term[:, :-1], out=change[:, 1:])
        change[:, start] = term[:, start] - parent_b  # from all rows on the right
        # in value order: the changes, and +1 where a bucket's first row moves
        # left and -1 where its last does, so a bucket counts as split from
        # its first row's threshold to before its last row's
        moved = np.zeros(at.size, dtype=complex)
        moved.real[at] = change
        two = size > 1
        moved.imag[at[:, start[two]]] = 1.0
        moved.imag[at[:, end[two]]] = -1.0
        moved = moved.reshape(at.shape)
        moved = moved.cumsum(axis=1, out=moved).reshape(-1)[self.reads]
        gains = moved.real * 0.5
        return gains, moved.imag > 0


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
    left. Of the candidates that count, the module's selection rule picks
    one, with tol = _TIE_TOL * (1 + |parent score|). Stop rule: growth stops
    at the first level where no candidate counts, the best gain is not
    strictly positive or is NaN, or the best gain less tol is NaN (an
    infinite gain and tol), and after MAX_OBLIVIOUS_DEPTH levels, so the
    recorded depth may be shallower than requested, and every level splits a
    bucket of the rows. A negative,
    infinite or NaN hessian is a ValueError. fitted, if given, an array of
    one float per row, receives each row's output: tree.predict(X), read off
    the fit's final buckets.

    The search is bucket-sorted, and its candidates are listed once per
    Presort (_LevelCandidates), in group order: a level's gains are the swept
    candidates', then the masked ones'. The columns of several thresholds
    are swept (_LevelCandidates.gains): each level takes their rows in
    (bucket, value) order from one stable sort of the rows' bucket ids in
    value order, so no order is carried between levels. For a categorical
    or single-threshold column, one bincount by bucket of each candidate's
    left rows gives its sums.
    A bucket is the rank of a row's leaf among the occupied leaves, so the
    leaves' ids are found by placing each row's leaf at its bucket.
    """
    X, g, h = _fit_inputs(X, "tree", "grads and hessians", grads, hessians)
    n, d = X.shape
    candidates = _presorted(X, kinds, presort).level_candidates
    features, thresholds = candidates.features, candidates.thresholds
    n_masked, left_rows, left_of = candidates.n_masked, candidates.left_rows, candidates.left_of
    left_g, left_h = g[left_rows], h[left_rows]
    swept_gh = _pair(g, h)[candidates.by_value.reshape(-1)]

    leaf = np.zeros(n, dtype=np.int64)  # a row's comparison bits so far
    bucket = np.zeros(n, dtype=np.int64)  # the rank of its leaf among the occupied ones
    size = np.array([n])  # the rows of each bucket
    levels: list[tuple[int, float | frozenset[int]]] = []
    for _ in range(min(depth, MAX_OBLIVIOUS_DEPTH)):
        B = size.size
        start = size.cumsum() - size
        Gb = np.bincount(bucket, weights=g, minlength=B)
        Hb = np.bincount(bucket, weights=h, minlength=B)
        parent_b = _safe_score(Gb, Hb, reg_lambda)
        parent = float(_sum(parent_b))
        gains, splits = candidates.gains(
            swept_gh, candidates.positions(bucket), size, start, Gb, Hb, parent_b, reg_lambda
        )
        if n_masked:
            cell = left_of * B + bucket[left_rows]
            GL, HL, CL = (
                np.bincount(cell, weights=w, minlength=n_masked * B).reshape(-1, B) for w in (left_g, left_h, None)
            )
            child = _safe_score(GL, HL, reg_lambda)
            child += _safe_score(np.subtract(Gb, GL, out=GL), np.subtract(Hb, HL, out=HL), reg_lambda)
            child = _sum(child, axis=1)
            child -= parent
            child *= 0.5
            gains = np.concatenate([gains, child])
            splits = np.concatenate([splits, _any((CL > 0) & (CL < size), axis=1)])
        gains = np.where(splits, gains, -np.inf)  # a candidate that splits no bucket does not count
        best = _max(gains, initial=-np.inf)
        tol = _TIE_TOL * (1.0 + abs(parent))
        if not best > 0 or np.isnan(best - tol):  # NaN: sums past the float range
            break
        k, _ = _first_best(gains[:, None], features, tol)
        f, thr = int(features[k]), thresholds[k]
        levels.append((f, thr))
        right = _went_right(X[:, f], thr, missing_left=True)
        leaf = leaf * 2 + right
        split_bucket = bucket * 2 + right
        count = np.bincount(split_bucket)
        occupied = count > 0
        size = count[occupied]
        bucket = (occupied.cumsum() - 1)[split_bucket]

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


def _split_from_json(entry: dict, kinds: tuple[FeatureKind, ...]) -> tuple:
    """The column and threshold of a split entry. The column's kind says the
    test: a level set on a categorical column, a number on any other."""
    f = as_index(entry["feature_index"], len(kinds))
    obj = entry["threshold"]
    if isinstance(obj, dict) != kinds[f].is_categorical:
        takes = "a level set" if kinds[f].is_categorical else "a number"
        raise MalformedModel(f"a split on column {f} must test {takes}")
    if not kinds[f].is_categorical:
        return f, as_number(obj, "threshold")
    if not isinstance(obj["levels"], list):
        raise MalformedModel("categorical levels must be a list")
    return f, frozenset(as_index(v, math.inf, "categorical level") for v in obj["levels"])


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


def tree_from_dict(d: dict, kinds: tuple[FeatureKind, ...]) -> RegressionTree | ObliviousTree:
    """Rebuild a tree that reads a matrix of columns of these kinds; a tree
    that records another width, splits outside [0, len(kinds)) or tests a
    column as another kind (see _split_from_json) is MalformedModel.
    Regression nodes are renumbered into pre-order from node 0, so any layout
    loads; a child index that is not a node, or a node reached twice, is not.
    An oblivious tree's leaves are dropped where their value is zero.
    """
    kind = d["kind"]
    if kind not in ("regression", "oblivious"):
        raise MalformedModel(f"unknown tree kind {kind!r}")
    n_features = len(kinds)
    if as_index(d["n_features"], math.inf, "n_features") != n_features:
        raise MalformedModel(f"{kind} tree reads {d['n_features']!r} columns, not {n_features}")

    if kind == "regression":
        entries = d["nodes"]
        seen: set[int] = set()

        def expand(j):
            j = as_index(j, len(entries), "node index")
            if j in seen:
                raise MalformedModel(f"node {j} is reached twice")
            seen.add(j)
            entry = entries[j]
            if "value" in entry:  # the gradient and hessian sums of older files are ignored
                return as_number(entry["value"], "value"), None
            f, thr = _split_from_json(entry, kinds)
            direction = one_of(entry["default_direction"], ("left", "right"), "default_direction")
            return 0.0, (f, thr, direction == "left"), entry["right"], entry["left"]

        return _preorder_tree(0, expand, n_features)
    levels = tuple(_split_from_json(lv, kinds) for lv in d["levels"])
    if len(levels) > MAX_OBLIVIOUS_DEPTH:
        raise MalformedModel(f"an oblivious tree of {len(levels)} levels, over {MAX_OBLIVIOUS_DEPTH}")
    index = [as_index(i, 1 << len(levels), "leaf_index") for i in d["leaf_index"]]
    leaf_ids = np.array(index, dtype=np.int64)
    if (leaf_ids[1:] <= leaf_ids[:-1]).any():
        raise MalformedModel("leaf_index is not strictly increasing")
    if leaf_ids.size != len(d["leaf_values"]):
        raise MalformedModel("leaf_index and leaf_values differ in length")
    leaf_values = np.array([as_number(v, "leaf value") for v in d["leaf_values"]], dtype=np.float64)
    kept = leaf_values != 0
    return ObliviousTree(levels, leaf_ids[kept], leaf_values[kept], n_features)


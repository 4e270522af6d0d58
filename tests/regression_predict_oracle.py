"""RegressionTree.predict as it was before ensembles were scored bottom-up,
kept as an oracle: predict_trees and the boosting loop must give the same
scores bit for bit. Rows are routed from the root down, one split node at a
time in pre-order, each node testing only the rows that reached it."""

import numpy as np

from boostlab.tree import _check_matrix, _went_right


def predict(tree, X):
    """Each row's leaf value, routed node by node."""
    X = _check_matrix(X, tree.n_features)
    node = np.zeros(X.shape[0], dtype=np.int64)
    for i in np.flatnonzero(tree.feature >= 0):
        rows = np.flatnonzero(node == i)
        right = _went_right(X[rows, tree.feature[i]], tree.threshold[i], missing_left=tree.default_left[i])
        node[rows] = np.where(right, tree.right[i], i + 1)
    return tree.value[node]


def raw_scores(model, data):
    """A GBM or XGBoost model's raw scores: base_score plus learning_rate times
    each tree's predict, added in tree order."""
    F = np.full(data.n_rows, model.base_score)
    for tree in model.trees:
        F = F + model.params.learning_rate * predict(tree, data.values)
    return F

"""Binary decision tree grown on the Gini criterion.

Candidate thresholds are midpoints between consecutive distinct values of a
feature at the node.  The split that maximizes impurity decrease wins; exact
ties prefer the lowest feature index, then the lowest threshold.  Splits
send x[feature] <= threshold to the left child.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ValidationError


@dataclass
class TreeNode:
    counts: np.ndarray
    feature: int = -1
    threshold: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    leaf_tag: int = -1

    @property
    def is_leaf(self):
        return self.feature < 0


@dataclass
class TreeCore:
    root: TreeNode
    tags: np.ndarray
    node_count: int


def fit(X, y, max_depth: int = 20, min_leaf: int = 1) -> TreeCore:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if max_depth < 1 or min_leaf < 1:
        raise ValidationError("max_depth and min_leaf must be >= 1")
    tags = np.unique(y)
    # remap tags to dense 0..L-1 for counting; leaves map back
    dense = np.searchsorted(tags, y)
    counter = [0]
    root = _grow(X, dense, np.arange(X.shape[0]), len(tags), 0,
                 max_depth, min_leaf, counter)
    return TreeCore(root, tags, counter[0])


def _grow(X, dense, idx, n_classes, depth, max_depth, min_leaf, counter):
    counter[0] += 1
    counts = np.bincount(dense[idx], minlength=n_classes)
    node = TreeNode(counts=counts)
    if (depth >= max_depth or counts.max() == idx.size
            or idx.size < 2 * min_leaf):
        node.leaf_tag = int(np.argmax(counts))
        return node
    split = best_split(X[idx], dense[idx], n_classes, min_leaf)
    if split is None:
        node.leaf_tag = int(np.argmax(counts))
        return node
    feature, threshold = split
    node.feature = feature
    node.threshold = threshold
    mask = X[idx, feature] <= threshold
    node.left = _grow(X, dense, idx[mask], n_classes, depth + 1,
                      max_depth, min_leaf, counter)
    node.right = _grow(X, dense, idx[~mask], n_classes, depth + 1,
                       max_depth, min_leaf, counter)
    return node


def best_split(Xn, yn, n_classes, min_leaf):
    """(feature, threshold) with maximal Gini decrease, or None.

    Works with the purity sum S = sum_c count_c^2 / n per side, which orders
    splits identically to Gini decrease and keeps exact ties exactly equal
    in float (counts are small integers).
    """
    n = yn.size
    onehot = np.zeros((n, n_classes), dtype=np.int64)
    onehot[np.arange(n), yn] = 1
    total = onehot.sum(axis=0)
    parent = float((total.astype(np.float64) ** 2).sum()) / n
    best = None  # (purity, feature, threshold)
    for j in range(Xn.shape[1]):
        v = Xn[:, j]
        order = np.argsort(v, kind="stable")
        sv = v[order]
        cum = np.cumsum(onehot[order], axis=0)
        cut = np.nonzero(sv[:-1] < sv[1:])[0]  # split after position i
        if cut.size == 0:
            continue
        n_left = cut + 1
        n_right = n - n_left
        ok = (n_left >= min_leaf) & (n_right >= min_leaf)
        cut = cut[ok]
        if cut.size == 0:
            continue
        n_left, n_right = n_left[ok], n_right[ok]
        left = cum[cut].astype(np.float64)
        right = total.astype(np.float64) - left
        purity = (left ** 2).sum(axis=1) / n_left + (right ** 2).sum(axis=1) / n_right
        pos = int(np.argmax(purity))  # lowest threshold on equal purity
        cand = float(purity[pos])
        if cand <= parent:
            continue
        if best is None or cand > best[0]:
            best = (cand, j, float((sv[cut[pos]] + sv[cut[pos] + 1]) / 2.0))
    if best is None:
        return None
    return best[1], best[2]


def _route(core: TreeCore, X):
    """Yields (leaf, row_indices) pairs covering every probe row once."""
    cols = np.ascontiguousarray(X.T)  # gathers from a contiguous row are cheaper
    stack = [(core.root, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if node.is_leaf:
            yield node, rows
            continue
        mask = cols[node.feature][rows] <= node.threshold
        for child, sub in ((node.left, rows[mask]), (node.right, rows[~mask])):
            if sub.size:
                stack.append((child, sub))


def predict_detail(core: TreeCore, X, tags):
    """(pred, scores) from one routing pass; scores are the training-sample
    counts at the reached leaf, aligned with `tags`."""
    X = np.asarray(X, dtype=np.float64)
    pos = {int(t): i for i, t in enumerate(tags)}
    leaves, reached = [], np.empty(X.shape[0], dtype=np.int64)
    for leaf, rows in _route(core, X):
        reached[rows] = len(leaves)
        leaves.append(leaf)
    # one gather per output after routing: per-leaf writes cost more
    leaf_tag = np.array([leaf.leaf_tag for leaf in leaves], dtype=np.int64)
    counts = np.array([leaf.counts for leaf in leaves])
    counts = counts.reshape(len(leaves), len(core.tags))
    scores = np.zeros((X.shape[0], len(tags)), dtype=np.float64)
    scores[:, [pos[int(t)] for t in core.tags]] = counts[reached]
    return core.tags[leaf_tag][reached], scores


def predict(core: TreeCore, X) -> np.ndarray:
    return predict_detail(core, X, core.tags)[0]


def predict_scores(core: TreeCore, X, tags) -> np.ndarray:
    """Training-sample counts at the reached leaf, aligned with `tags`."""
    return predict_detail(core, X, tags)[1]

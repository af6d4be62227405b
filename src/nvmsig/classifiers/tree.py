"""Binary decision tree grown on the Gini criterion.

Candidate thresholds are midpoints between consecutive distinct values of a
feature at the node.  The split that maximizes impurity decrease wins; exact
ties prefer the lowest feature index, then the lowest threshold.  Splits
send x[feature] <= threshold to the left child.

A fitted tree is the node table that its model file stores, one row per
node in preorder, so node 0 is the root and a split's children come after
it.  At a split `feature` and `threshold` pick the child, `left`/`right`
hold the child ids and `leaf` is -1; at a leaf `feature`, `left` and
`right` are -1 and `leaf` is the position in `tags` that the leaf calls.
`counts` holds the training samples of each tag that reached the node.
The node count is `feature.size`.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ._text import fmt


@dataclass
class TreeCore:
    tags: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf: np.ndarray
    counts: np.ndarray  # n_nodes x n_tags


def table(tags, rows) -> TreeCore:
    """TreeCore from its preorder rows (feature, threshold, left, right,
    leaf, counts)."""
    return TreeCore(tags, *map(np.array, zip(*rows)))


# byte cap on each int64 buffer (features x node rows) of one block of the
# split search; a block holds at least one feature
_BLOCK_BYTES = 1 << 18


def fit(X, y, max_depth: int, min_leaf: int) -> TreeCore:
    """Grows the tree from one stable argsort per feature.

    Each node holds its rows in every feature's ascending order, a d x m
    table.  A split partitions each row of that table with the node's
    left/right mask, which keeps the order, so no node sorts again.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if max_depth < 1 or min_leaf < 1:
        raise ValidationError("max_depth and min_leaf must be >= 1")
    tags = np.unique(y)
    # remap tags to dense 0..L-1 for counting; leaves map back.  The
    # narrowest dtype lets the stable argsort of labels be a radix sort
    dense = np.searchsorted(tags, y).astype(np.min_scalar_type(tags.size - 1))
    Xt = np.ascontiguousarray(X.T)
    goes_left = np.zeros(y.size, dtype=bool)  # per row, set at each split
    rows = []
    # a node's left child is popped right after it and its right child once
    # the left subtree is done, so rows come out in preorder; the entry's
    # last field is the split row whose right child id the node fills in
    stack = [(np.argsort(Xt, axis=1, kind="stable"), 0, None)]
    while stack:
        order, depth, parent = stack.pop()
        if parent is not None:
            parent[3] = len(rows)
        m = order.shape[1]
        counts = np.bincount(dense[order[0]], minlength=len(tags))
        split = None
        if depth < max_depth and counts.max() < m and m >= 2 * min_leaf:
            split = _search(Xt, dense, order, counts, min_leaf)
        if split is None:
            rows.append((-1, 0.0, -1, -1, int(np.argmax(counts)),
                         counts.tolist()))
            continue
        feature, threshold = split
        row = [feature, threshold, len(rows) + 1, -1, -1, counts.tolist()]
        rows.append(row)
        node = order[feature]
        goes_left[node] = Xt[feature, node] <= threshold
        left = goes_left[order]
        stack.append((order[~left].reshape(len(Xt), -1), depth + 1, row))
        stack.append((order[left].reshape(len(Xt), -1), depth + 1, None))
    return table(tags, rows)


def best_split(Xn, yn, n_classes, min_leaf):
    """(feature, threshold) with maximal Gini decrease over the rows of Xn,
    or None."""
    Xt = np.ascontiguousarray(np.asarray(Xn, dtype=np.float64).T)
    return _search(Xt, np.asarray(yn), np.argsort(Xt, axis=1, kind="stable"),
                   np.bincount(yn, minlength=n_classes), min_leaf)


def _search(Xt, y, order, counts, min_leaf):
    """(feature, threshold) with maximal Gini decrease, or None.

    `order` lists the node's rows in each feature's ascending order and
    `counts` its rows per class.  Works with the purity sum
    S = sum_c count_c^2 / n per side, which orders splits identically to
    Gini decrease and keeps exact ties exactly equal in float.

    S stays in integers: moving a row of class c to the left side adds
    2 L_c + 1 to sum_c L_c^2, where L_c counts the class-c rows already
    there (its rank among them), and sum_c (T_c - L_c)^2 is
    sum_c T_c^2 - 2 sum_c T_c L_c + sum_c L_c^2 for class totals T, so
    both sides are cumsums along the order.  A stable argsort of the
    labels gives every row's rank in its class.  Each purity is then one
    float division of the same exact integers that a float sum of squared
    counts holds.  Features are scored a block at a time.
    """
    n_features, m = order.shape
    lo, hi = min_leaf - 1, m - min_leaf  # cut after position lo <= i < hi
    if hi <= lo:
        return None
    n_left = np.arange(lo + 1, hi + 1)
    n_right = m - n_left
    # 2 * rank + 1 of the rows in class order: each class's ranks 0, 1, ...
    step_of_rank = 2 * (np.arange(m) - np.repeat(np.cumsum(counts) - counts,
                                                 counts)) + 1
    best = (float((counts.astype(np.float64) ** 2).sum()) / m, None)  # parent
    block = max(1, _BLOCK_BYTES // (8 * m))
    for start in range(0, n_features, block):
        o = order[start:start + block]
        rows = np.arange(len(o))[:, None]
        labels = y[o]
        step = np.empty(o.shape, dtype=np.int64)
        step[rows, np.argsort(labels, axis=1, kind="stable")] = step_of_rank
        s_left = np.cumsum(step[:, :hi], axis=1)[:, lo:]
        s_right = (int(counts @ counts) + s_left
                   - 2 * np.cumsum(counts[labels[:, :hi]], axis=1)[:, lo:])
        purity = s_left / n_left + s_right / n_right
        sv = Xt[start + rows, o]
        purity[~(sv[:, lo:hi] < sv[:, lo + 1:hi + 1])] = -np.inf
        pos = purity.argmax(axis=1)  # lowest threshold on equal purity
        cand = purity[rows[:, 0], pos]
        f = int(np.argmax(cand))  # lowest feature on equal purity
        if cand[f] > best[0]:
            i = lo + pos[f]
            best = (cand[f], (start + f, float((sv[f, i] + sv[f, i + 1]) / 2.0)))
    return best[1]


def _reached(core: TreeCore, X) -> np.ndarray:
    """The leaf that each probe reaches.

    All probes walk down the table together, one level per step, at
    position p = 2 * node: each gathers its node's feature and threshold
    and moves to kids[p + 1] if x[feature] <= threshold, else to kids[p].
    A leaf is its own child both ways, so a probe that reached one stays
    there, and the walk checks for the end only every fourth level.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    pos = 2 * np.arange(core.feature.size)
    kids = np.where((core.feature >= 0)[:, None],
                    np.stack([2 * core.right, 2 * core.left], axis=1),
                    pos[:, None]).ravel()
    feature, threshold = np.repeat(core.feature, 2), np.repeat(core.threshold, 2)
    flat, start = X.ravel(), np.arange(X.shape[0]) * X.shape[1]
    p = np.zeros(X.shape[0], dtype=np.int64)
    while feature[p].max(initial=-1) >= 0:
        for _ in range(4):  # a leaf's feature is -1: any column, same child
            p = kids[p + (flat[start + feature[p]] <= threshold[p])]
    return p // 2


def predict_detail(core: TreeCore, X):
    """(pred, scores); scores are the training-sample counts at the reached
    leaf, aligned with `core.tags`."""
    node = _reached(core, X)
    return core.tags[core.leaf[node]], core.counts[node].astype(np.float64)


def predict(core: TreeCore, X) -> np.ndarray:
    return core.tags[core.leaf[_reached(core, X)]]


def predict_scores(core: TreeCore, X) -> np.ndarray:
    """Training-sample counts at the reached leaf, aligned with `core.tags`."""
    return predict_detail(core, X)[1]


def dump(core: TreeCore):
    out = [f"core tree {core.feature.size} {len(core.tags)}",
           "tags " + " ".join(str(int(t)) for t in core.tags)]
    cols = (core.feature, core.threshold, core.left, core.right, core.leaf)
    for nid, (f, thr, left, right, leaf, counts) in enumerate(zip(
            *(c.tolist() for c in cols), core.counts.tolist())):
        out.append(f"node {nid} {f} {fmt(thr)} {left} {right} {leaf} "
                   + " ".join(map(str, counts)))
    return out


def load(r, head, width, params):
    """The core from the lines after `core tree <n_nodes> <n_tags>`."""
    n_nodes, n_tags = head
    if n_nodes < 1:
        r.fail("a tree needs at least one node")
    tags = r.tags(n_tags)
    rows = r.rows(n_nodes)
    rec = r.block("node", rows, [
        ("id", np.int64), ("feature", np.int64), ("threshold", np.float64),
        ("left", np.int64), ("right", np.int64), ("leaf", np.int64),
        ("counts", np.int64, n_tags)])
    core = TreeCore(tags, *(np.ascontiguousarray(rec[name]) for name in
                            ("feature", "threshold", "left", "right", "leaf",
                             "counts")))
    f, left, right, leaf = core.feature, core.left, core.right, core.leaf
    # preorder ids: a split's children come later in the file
    ok = np.where(f == -1,
                  (left == -1) & (right == -1) & (0 <= leaf) & (leaf < n_tags),
                  (0 <= f) & (f < width) & (leaf == -1)
                  & (np.arange(n_nodes) < np.minimum(left, right))
                  & (np.maximum(left, right) < n_nodes))
    ok &= (core.counts >= 0).all(axis=1)
    if not ok.all():
        i = int(np.argmin(ok))
        r.pos = rows[i] + 1
        r.fail(f"node {i}: feature {f[i]}, children "
               f"{(int(left[i]), int(right[i]))}, leaf {leaf[i]} or counts "
               "out of range")
    return core

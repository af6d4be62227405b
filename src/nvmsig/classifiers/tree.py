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


def fit(X, y, max_depth: int, min_leaf: int) -> TreeCore:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if max_depth < 1 or min_leaf < 1:
        raise ValidationError("max_depth and min_leaf must be >= 1")
    tags = np.unique(y)
    # remap tags to dense 0..L-1 for counting; leaves map back
    dense = np.searchsorted(tags, y)
    rows = []
    _grow(X, dense, np.arange(X.shape[0]), len(tags), 0, max_depth, min_leaf,
          rows)
    return table(tags, rows)


def _grow(X, dense, idx, n_classes, depth, max_depth, min_leaf, rows):
    """Appends the rows of the subtree over samples `idx` in preorder."""
    counts = np.bincount(dense[idx], minlength=n_classes).tolist()
    split = None
    if depth < max_depth and max(counts) < idx.size and idx.size >= 2 * min_leaf:
        split = best_split(X[idx], dense[idx], n_classes, min_leaf)
    if split is None:
        rows.append((-1, 0.0, -1, -1, int(np.argmax(counts)), counts))
        return
    feature, threshold = split
    row = [feature, threshold, len(rows) + 1, -1, -1, counts]
    rows.append(row)
    mask = X[idx, feature] <= threshold
    _grow(X, dense, idx[mask], n_classes, depth + 1, max_depth, min_leaf, rows)
    row[3] = len(rows)  # the right subtree starts after the whole left one
    _grow(X, dense, idx[~mask], n_classes, depth + 1, max_depth, min_leaf,
          rows)


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
    n_nodes, n_tags = int(head[0]), int(head[1])
    if n_nodes < 1:
        r.fail("a tree needs at least one node")
    tags = r.tags(n_tags)
    rows = []
    for nid in range(n_nodes):
        p = r.next("node").split()
        if len(p) != 7 + n_tags:
            r.fail("node: wrong field count")
        f, kids, leaf = int(p[2]), (int(p[4]), int(p[5])), int(p[6])
        counts = np.array([int(c) for c in p[7:]], dtype=np.int64)
        # preorder ids: a split's children come later in the file
        if f == -1:
            ok = kids == (-1, -1) and 0 <= leaf < n_tags
        else:
            ok = (0 <= f < width and leaf == -1
                  and all(nid < c < n_nodes for c in kids))
        if not ok or (counts < 0).any():
            r.fail(f"node {nid}: feature {f}, children {kids}, leaf "
                   f"{leaf} or counts out of range")
        rows.append((f, r.real(p[3], "node threshold"), *kids, leaf, counts))
    return table(tags, rows)

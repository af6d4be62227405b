"""k-nearest-neighbor core on squared Euclidean distance.

Neighbor order is total: by distance, then by training-row index, so every
prediction is reproducible.  Vote ties go to the tied class with the nearest
member; an exact distance tie after that falls back to the lowest tag.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import ValidationError
from ._text import fmt_vec


@dataclass
class KnnCore:
    X: np.ndarray
    y: np.ndarray
    k: int
    tags: np.ndarray = field(init=False)  # the sorted labels of y

    def __post_init__(self):
        if self.k < 1 or self.k > self.X.shape[0]:
            raise ValidationError(f"k must be in [1, {self.X.shape[0]}]")
        self.tags = np.unique(self.y)


def fit(X, y, k: int) -> KnnCore:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    return KnnCore(X, y, int(k))


def _neighbors(core: KnnCore, X):
    """(nn, nd): the k nearest training rows per probe, exactly ordered by
    (distance, training index), plus their distances.

    argpartition does the O(n) heavy lifting; index-sorting the candidate
    block before a stable distance sort restores the total order, and rows
    with distance ties crossing the k boundary get an exact redo.
    """
    d2 = _sq_dists(X, core.X)
    n, k = core.X.shape[0], core.k
    if k >= n:
        part = np.tile(np.arange(n), (X.shape[0], 1))
    else:
        part = np.sort(np.argpartition(d2, k - 1, axis=1)[:, :k], axis=1)
    pd = np.take_along_axis(d2, part, axis=1)
    order = np.argsort(pd, axis=1, kind="stable")
    nn = np.take_along_axis(part, order, axis=1)
    nd = np.take_along_axis(pd, order, axis=1)
    if k < n:
        dk = nd[:, -1]
        ties = np.count_nonzero(d2 <= dk[:, None], axis=1) > k
        for r in np.nonzero(ties)[0]:
            cand = np.nonzero(d2[r] <= dk[r])[0]  # already index-ascending
            sub = cand[np.argsort(d2[r, cand], kind="stable")][:k]
            nn[r] = sub
            nd[r] = d2[r, sub]
    return nn, nd


def predict_detail(core: KnnCore, X):
    """(pred, scores) from one neighbor search: the calls under the tie
    rules above, and neighbor vote counts per class aligned with
    `core.tags`."""
    X = np.asarray(X, dtype=np.float64)
    nn, nd = _neighbors(core, X)
    rows = np.arange(X.shape[0])[:, None]
    col = np.searchsorted(core.tags, core.y[nn])
    scores = np.zeros((X.shape[0], core.tags.size), dtype=np.float64)
    np.add.at(scores, (rows, col), 1.0)
    nearest = np.full(scores.shape, np.inf)
    np.minimum.at(nearest, (rows, col), nd)
    nearest[scores < scores.max(axis=1, keepdims=True)] = np.inf
    return core.tags[np.argmin(nearest, axis=1)], scores


def predict_scores(core: KnnCore, X) -> np.ndarray:
    """Neighbor vote counts per class, aligned with `core.tags`."""
    return predict_detail(core, X)[1]


def predict(core: KnnCore, X) -> np.ndarray:
    return predict_detail(core, X)[0]


def _sq_dists(A, B):
    aa = (A * A).sum(axis=1)[:, None]
    bb = (B * B).sum(axis=1)[None, :]
    ab2 = A @ B.T
    ab2 *= 2.0
    d2 = aa + bb  # aa + bb - 2 A.B, in place on two n x m buffers
    d2 -= ab2
    return np.maximum(d2, 0.0, out=d2)


def dump(core: KnnCore):
    return [f"core knn {core.X.shape[0]} {core.X.shape[1]}"] + [
        f"row {int(lab)} {fmt_vec(row)}" for row, lab in zip(core.X, core.y)]


def load(r, head, width, params):
    """The core from the rows after `core knn <n> <d>`."""
    if "k" not in params:
        r.fail("knn model file lacks a k param")
    if head[1] != width:
        r.fail("core width disagrees with selection width")
    rec = r.block("row", r.rows(head[0]), [("y", np.int64), ("X", np.float64, width)])
    return fit(np.ascontiguousarray(rec["X"]), np.ascontiguousarray(rec["y"]),
               params["k"])

"""k-nearest-neighbor core on squared Euclidean distance.

Neighbor order is total: by distance, then by training-row index, found in
one exact pass, so every prediction is reproducible.  Vote ties go to the
tied class with the nearest member; an exact distance tie after that falls
back to the lowest tag.

The core keeps its rows' half of the distance product once, `side`, with
[-2 x, 1, |x|^2] per training row x.  The squared distances of a block of
probes are then one product of the probes' half [p, |p|^2, 1] (from
`_dist._halves`, as in the svm core) with `side`, clipped at 0.  They are
exact on small integers; elsewhere they can differ from |p - x|^2 in the
last bits, and the tie rules act on the distances as computed.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericError, ValidationError
from ._dist import _halves
from ._text import fmt_vec

PARAMS = {"k": int}


@dataclass
class KnnCore:
    X: np.ndarray
    y: np.ndarray
    k: int
    tags: np.ndarray = field(init=False)  # the sorted labels of y
    side: np.ndarray = field(init=False)  # [-2 x, 1, |x|^2] per training row

    def __post_init__(self):
        if self.k < 1 or self.k > self.X.shape[0]:
            raise ValidationError(f"k must be in [1, {self.X.shape[0]}]")
        self.tags = np.unique(self.y)
        self.side = -_halves(self.X)[1]


def fit(X, y, k: int) -> KnnCore:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    return KnnCore(X, y, int(k))


def _neighbors(core: KnnCore, X):
    """(nn, nd): the k nearest training rows per probe, ordered by
    (distance, training index), plus their distances.

    One exact pass for ties and non-ties alike: a probe's candidates are
    the rows no farther than its k-th distance, listed in training order,
    and one stable sort by (probe, distance) puts its k neighbors first.
    A probe with fewer than k comparable (non-NaN) distances: NumericError.
    """
    d2 = _halves(X)[0] @ core.side.T
    np.maximum(d2, 0.0, out=d2)
    k = core.k
    dk = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    if np.isnan(dk).any():
        raise NumericError(f"a probe has fewer than {k} comparable distances")
    row, col = np.divmod(np.flatnonzero(d2 <= dk), d2.shape[1])
    d = d2[row, col]
    order = np.lexsort((d, row))
    first = np.searchsorted(row, np.arange(d2.shape[0]))
    take = order[first[:, None] + np.arange(k)]
    return col[take], d[take]


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


def dump(core: KnnCore):
    return [f"core knn {core.X.shape[0]} {core.X.shape[1]}"] + [
        f"row {int(lab)} {fmt_vec(row)}" for row, lab in zip(core.X, core.y)]


def load(r, head, width, params):
    """The core from the rows after `core knn <n> <d>`."""
    if head[1] != width:
        r.fail("core width disagrees with selection width")
    rec = r.block("row", r.rows(head[0]), [("y", np.int64), ("X", np.float64, width)])
    return fit(np.ascontiguousarray(rec["X"]), np.ascontiguousarray(rec["y"]),
               **params)

"""Squared Euclidean distances as one matrix product, for the knn and svm
cores: each core keeps its training side once, and a block of probes against
it is the probes' half times that side."""

import numpy as np

from ..errors import ValidationError


def _halves(X):
    """([x, |x|^2, 1], [2 x, -1, -|x|^2]) of each row x of X: row i of the
    first dotted with row j of the second is -|x_i - x_j|^2, so one matrix
    product gives a whole block of squared distances, and the only passes
    over the block left are a clip and what the caller makes of it.  A row
    whose squared norm is not finite is refused before it can overflow."""
    X = np.asarray(X, dtype=np.float64)
    with np.errstate(over="ignore"):
        sq = (X * X).sum(axis=1)[:, None]
    if not np.isfinite(sq).all():
        raise ValidationError("values out of range for a squared distance")
    one = np.ones_like(sq)
    return np.hstack([X, sq, one]), np.hstack([2.0 * X, -one, -sq])

"""Squared Euclidean distances as one matrix product, for the knn and svm
cores: each core keeps its training side once, and a block of probes against
it is the probes' half times that side."""

import numpy as np


def _halves(X):
    """([x, |x|^2, 1], [2 x, -1, -|x|^2]) of each row x of X: row i of the
    first dotted with row j of the second is -|x_i - x_j|^2, so one matrix
    product gives a whole block of squared distances, and the only passes
    over the block left are a clip and what the caller makes of it."""
    X = np.asarray(X, dtype=np.float64)
    sq = (X * X).sum(axis=1)[:, None]
    one = np.ones_like(sq)
    return np.hstack([X, sq, one]), np.hstack([2.0 * X, -one, -sq])

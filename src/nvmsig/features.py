"""Feature standardization and selection.

Two selectors are provided: a mutual-information filter (greedy
relevance-minus-redundancy) and a gradient-ascent neighborhood scorer that
learns per-feature weights.  Both return a FeatureRanking that downstream
models apply before classification.  The neighborhood scorer is
distance-based, so run it on standardized features; the MI filter bins each
feature over its own range and is unaffected by per-feature affine scaling.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError

DEFAULT_BINS = 16
DEFAULT_K = 25
# cells of the stacked joint-count table, and of the bin codes, of one
# `_mi_rows` block; a block holds at least one row
_JOINT_CELLS = 1 << 16
_TINY = np.finfo(np.float64).tiny  # the smallest normal float64
_LOG_TINY = np.log(_TINY)


@dataclass(frozen=True)
class StandardizationStats:
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=np.float64))
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValidationError("mean/std must be matching 1-D vectors")
        if np.any(self.std < 0):
            raise ValidationError("std must be non-negative")


@dataclass(frozen=True)
class FeatureRanking:
    """Selected feature indices in rank order plus their selection scores."""
    method: str
    indices: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.int64))
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=np.float64))
        if self.indices.ndim != 1 or self.indices.shape != self.scores.shape:
            raise ValidationError("indices/scores must be matching 1-D vectors")
        if len(np.unique(self.indices)) != len(self.indices):
            raise ValidationError("ranking contains duplicate feature indices")

    def __len__(self):
        return len(self.indices)


def fit_standardizer(X) -> StandardizationStats:
    X = _check_matrix(X)
    return StandardizationStats(X.mean(axis=0), X.std(axis=0))


def apply_standardizer(stats: StandardizationStats, X) -> np.ndarray:
    """Z-score per feature; features with zero training spread map to 0."""
    X = _check_matrix(X)
    if X.shape[1] != stats.mean.shape[0]:
        raise ValidationError(
            f"expected {stats.mean.shape[0]} features, got {X.shape[1]}")
    dead = stats.std == 0
    safe = np.where(dead, 1.0, stats.std)
    out = (X - stats.mean) / safe
    out[:, dead] = 0.0
    return out


def _check_matrix(X):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise ValidationError("expected a non-empty 2-D sample matrix")
    if not np.all(np.isfinite(X)):
        raise ValidationError("features must be finite")
    return X


def bin_feature(feature, bins: int = DEFAULT_BINS) -> np.ndarray:
    """Equal-width bin indices over [min, max]; constant input -> all bin 0."""
    x = np.asarray(feature, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValidationError("feature must be a non-empty 1-D vector")
    if not np.all(np.isfinite(x)):
        raise ValidationError("feature values must be finite")
    return _bin_rows(x[None], bins)[0]


def _bin_rows(F, bins):
    """`bin_feature` of each row of the finite matrix F."""
    _check_integer("bins", bins)
    # beyond 2**53 a float misses bin indices and the top one overflows int64
    if not 1 <= bins <= 2 ** 53:
        raise ValidationError("bins must be in [1, 2**53]")
    lo, hi = F.min(axis=1, keepdims=True), F.max(axis=1, keepdims=True)
    x = F - lo
    x /= np.where(hi == lo, 1.0, hi - lo)  # a constant row is all 0
    x *= bins
    idx = np.floor(x, out=x).astype(np.int64)
    return np.clip(idx, 0, bins - 1, out=idx)


def _occupied(binned):
    """(ranks, counts): each row's bin indices renumbered 0.. over the bins
    that row occupies, in ascending order, as the inverse of `np.unique`,
    written over `binned`, and the number of occupied bins per row."""
    order = np.argsort(binned, axis=1)
    rank = np.take_along_axis(binned, order, axis=1)
    # the sorted bins become their ranks: 0, then one more at each new bin
    rank[:, 1:] = rank[:, 1:] != rank[:, :-1]
    rank[:, 0] = 0
    np.cumsum(rank, axis=1, out=rank)  # in place: no int64 copy of the flags
    np.put_along_axis(binned, order, rank, axis=1)
    return binned, rank[:, -1] + 1


def mutual_information(feature, labels, bins: int = DEFAULT_BINS) -> float:
    """MI in nats between an equal-width-binned feature and integer labels."""
    labels = _check_labels(labels)
    bf = bin_feature(feature, bins)[None]
    if bf.shape[1] != labels.size:
        raise ValidationError("feature and labels lengths differ")
    return float(_mi_rows(*_occupied(bf), labels, np.arange(1))[0])


def _mi_rows(codes, height, labels, rows) -> np.ndarray:
    """MI in nats of each of `codes[rows]` against integer labels.

    `codes` and `height` are an `_occupied` pair: each feature's bins
    renumbered over the bins it occupies, one feature per row, and their
    count.  Each row has a joint table of its occupied bins x labels.  One
    bincount fills the tables of a block of rows, stacked into one matrix,
    and the marginals and log terms are computed over the whole block.
    Each row's column marginal and final sum run on that row's own table
    and cells, so every sum adds the same numbers in the same order as a
    one-row call.
    """
    _, li = np.unique(labels, return_inverse=True)
    n_l = int(li.max()) + 1
    height = height[rows]
    out = np.empty(len(rows))
    block = max(1, _JOINT_CELLS // max(int(height.max()) * n_l, labels.size))
    for s in range(0, len(rows), block):
        h = height[s:s + block]
        top = np.cumsum(h) - h  # each row's first line in the stacked table
        cells = codes[rows[s:s + block]] + top[:, None]
        cells *= n_l
        cells += li
        count = np.bincount(cells.ravel(), minlength=int(h.sum()) * n_l)
        line, col = np.divmod(np.flatnonzero(count), n_l)
        joint = count.reshape(-1, n_l) / labels.size
        px = joint.sum(axis=1)
        py = np.array([np.add.reduce(joint[t:t + n])
                       for t, n in zip(top.tolist(), h.tolist())])
        feature = np.repeat(np.arange(h.size), h)[line]
        p = joint[line, col]
        terms = p * np.log(p / (px[line] * py[feature, col]))
        ends = np.cumsum(np.bincount(feature, minlength=h.size)).tolist()
        out[s:s + block] = [np.add.reduce(terms[a:b])
                            for a, b in zip([0] + ends, ends)]
    return out


def _check_labels(labels):
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValidationError("labels must be integers")
    if labels.ndim != 1 or labels.size == 0:
        raise ValidationError("labels must be a non-empty 1-D vector")
    return labels.astype(np.int64)


def mrmr_select(train, k: int = DEFAULT_K, bins: int = DEFAULT_BINS) -> FeatureRanking:
    """Greedy max-relevance min-redundancy filter (difference form).

    Picks argmax of MI(f, y) - mean MI(f, s) over already-selected s, ties
    broken toward the lowest feature index, so any shorter run is a prefix
    of a longer one.  Each feature is binned and renumbered over its
    occupied bins once, and each pick's redundancy against every remaining
    feature is one `_mi_rows` call.
    """
    X, y = _train_xy(train)
    d = X.shape[1]
    _check_integer("k", k)
    if not 1 <= k <= d:
        raise ValidationError(f"k must be in [1, {d}]")
    codes, height = _occupied(_bin_rows(X.T, bins))
    relevance = _mi_rows(codes, height, y, np.arange(d))

    selected: list[int] = []
    scores: list[float] = []
    redundancy_sum = np.zeros(d)
    remaining = np.ones(d, dtype=bool)
    for _ in range(k):
        score = relevance - redundancy_sum / max(len(selected), 1)
        score[~remaining] = -np.inf
        best = int(np.argmax(score))  # argmax takes the lowest index on ties
        selected.append(best)
        scores.append(float(score[best]))
        remaining[best] = False
        if len(selected) < k:
            rest = np.nonzero(remaining)[0]
            redundancy_sum[rest] += _mi_rows(codes, height, codes[best], rest)
    return FeatureRanking("mrmr", np.array(selected), np.array(scores))


def nca_objective(w, X, y) -> float:
    """Mean leave-one-out soft neighbor probability under weights w."""
    return _nca(w, X, y)[0]


def nca_gradient(w, X, y) -> np.ndarray:
    """Gradient of `nca_objective` with respect to the weights w.

    d/dw_m = (2 w_m / n) sum_ij M_ij (x_im - x_jm)^2 with
    M_ij = p_ij (p_i - [y_i == y_j]).  Expanding the square gives row sums,
    column sums and one matrix product, so no n x n x d tensor is built.
    """
    return _nca(w, X, y)[1]


def _nca(w, X, y):
    """(objective, gradient) from one n x n buffer: logits, then p, then M.

    Two terms are dropped, both exactly: the row constant |z_i|^2 of the
    squared distance, which the row softmax cancels, and the row sums of M,
    which are p_i - p_i = 0 because every row of p sums to 1.

    Subnormal operands slow `exp` and the products several times, so a
    logit whose exp would be subnormal becomes -inf and a probability below
    the smallest normal becomes 0; each row sum, at least 1, is the same
    without them.  When each class is one run of rows, the same-label mask
    is the diagonal blocks: p_i is a block row sum and M is P p_i off the
    blocks and P (p_i - 1) on them, the mask path's arithmetic element by
    element, with no n x n mask.
    """
    w = np.asarray(w, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    # overflow here shows up as non-finite output and is caught by the
    # gradient check in nca_select, so keep numpy quiet about it
    with np.errstate(over="ignore", invalid="ignore"):
        Z = X * w
        P = (2.0 * Z) @ Z.T
        P -= (Z * Z).sum(axis=1)  # -|z_i - z_j|^2 + |z_i|^2
        np.fill_diagonal(P, -np.inf)
        P -= P.max(axis=1, keepdims=True)
        np.copyto(P, -np.inf, where=P < _LOG_TINY)  # NaN compares false
        np.exp(P, out=P)
        P /= P.sum(axis=1, keepdims=True)
        np.copyto(P, 0.0, where=P < _TINY)
        runs = _class_runs(y)
        if runs is None:
            same = y[:, None] == y[None, :]
            p_i = np.add.reduce(P, axis=1, where=same)
            P *= p_i[:, None] - same
        else:
            p_i = np.empty(y.size)
            blocks = []  # M on each diagonal block, before P *= p_i
            for a, b in runs:
                p_i[a:b] = P[a:b, a:b].sum(axis=1)
                blocks.append(P[a:b, a:b] * (p_i[a:b, None] - 1.0))
            P *= p_i[:, None]
            for (a, b), block in zip(runs, blocks):
                P[a:b, a:b] = block
        s = (X * X).T @ P.sum(axis=0) - 2.0 * (X * (P @ X)).sum(axis=0)
        return float(p_i.mean()), (2.0 * w / X.shape[0]) * s


def _class_runs(y):
    """[(start, stop), ...] of the row runs of the 1-D labels y when each
    class is one run, else None."""
    bounds = [0, *(np.flatnonzero(y[1:] != y[:-1]) + 1).tolist(), y.size]
    if len(set(y[bounds[:-1]].tolist())) < len(bounds) - 1:
        return None
    return list(zip(bounds[:-1], bounds[1:]))


def nca_select(train, k: int = DEFAULT_K, iters: int = 200,
               learning_rate: float = 0.01) -> FeatureRanking:
    """Per-feature weights by gradient ascent on LOO neighbor agreement.

    Weights start at 1, features are ranked by final |w| (descending, ties
    toward the lowest index).  Expects standardized features.
    """
    X, y = _train_xy(train)
    d = X.shape[1]
    _check_integer("k", k)
    _check_integer("iters", iters)
    if isinstance(learning_rate, bool) or not isinstance(learning_rate,
                                                         numbers.Real):
        raise ValidationError(
            f"learning_rate must be a real number, got {learning_rate!r}")
    if not 1 <= k <= d:
        raise ValidationError(f"k must be in [1, {d}]")
    if iters < 1 or not 0 < learning_rate < np.inf:
        raise ValidationError("iters must be >= 1 and learning_rate finite and > 0")

    w = np.ones(d)
    for it in range(iters):
        grad = nca_gradient(w, X, y)
        if not np.all(np.isfinite(grad)):
            raise NumericError(f"weight gradient non-finite at iteration {it}")
        w = w + learning_rate * grad
    order = np.lexsort((np.arange(d), -np.abs(w)))[:k]
    return FeatureRanking("nca", order, np.abs(w)[order])


def _check_integer(name, value):
    # bool is an int, so True would quietly stand for 1
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def _train_xy(train):
    X = _check_matrix(train.X)
    y = _check_labels(train.y)
    if X.shape[0] != y.size:
        raise ValidationError("X and y row counts differ")
    if len(np.unique(y)) < 2:
        raise ValidationError("need at least 2 classes")
    return X, y

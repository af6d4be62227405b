"""RBF-kernel support vector machines trained by sequential minimal
optimization, combined one-vs-one for multiclass.

Each pair machine is solved on its precomputed RBF kernel (a pair of
default-dataset classes has about 410 rows, so about 1.4 MB).  The pairs are
solved together as one array program over the stack of their kernels, in
batches whose stack stays under 64 MB; the 36 pairs of the default dataset
(about 48 MB) are one batch.  The solver keeps v = -y * grad of the dual and
picks its working set by the second-order rule of Fan, Chen & Lin (JMLR 2005,
the LIBSVM scheme): i is the row of I_up with the largest v, and j the row of
I_low with v_j < v_i that maximizes (v_i - v_j)^2 / a_ij with
a_ij = max(2 - 2 K_ij, 1e-12).  It stops once max_{I_up} v - min_{I_low} v is
at most `tol`; with the bias at the mean v of the free rows, every row then
meets its KKT condition within `tol`.  The solver draws nothing at random, so
equal inputs give equal machines.

A training row is a support row of up to k - 1 of the machines, so the core
holds each one once, in a pool of distinct rows (LIBSVM stores each support
vector once too: Chang & Lin, ACM TIST 2011).  The decisions of every machine
are one kernel block of the probes against the pool times a pool x machines
matrix of alpha * y.  The model file keeps one `sv` line per support row.

Every kernel block, in training and in decisions, is exp of one product of
the halves from `_dist._halves`, which the knn core's distances share.
"""

from dataclasses import dataclass, field
from itertools import combinations, islice

import numpy as np

from .._atomic import number, read_block
from ..errors import NumericError, ParseError, ValidationError
from ._dist import _halves
from ._text import fmt, fmt_vec

# a generous cap: default-dataset pairs converge in under one iteration per row
_MAX_ITER_PER_ROW = 1000
_TAU = 1e-12  # floor of the curvature a_ij, reached by duplicate rows (K_ij = 1)
_STACK_BYTES = 64 << 20  # kernel stack of one solver batch (a pair always fits)
PARAMS = {"C": float, "gamma": float, "tol": float}


@dataclass
class SvmCore:
    """The model-file block: machine m owns the next counts[m] support rows,
    and support row i is pool row member[i].  A training row that several
    machines keep is one pool row, held and compared with a probe once."""
    tags: np.ndarray
    pairs: np.ndarray  # machines x 2 tags, the positive (lower) tag first
    bias: np.ndarray
    counts: np.ndarray
    alpha_y: np.ndarray  # alpha_i * y_i of every support row, in file order
    member: np.ndarray
    pool: np.ndarray  # the distinct support rows, by first support row
    gamma: float
    coef: np.ndarray = field(init=False)  # pool x machines sums of alpha_y
    kernel_side: np.ndarray = field(init=False)  # gamma [2 p, -1, -|p|^2] per pool row

    def __post_init__(self):
        machines = self.bias.size
        cell = self.member * machines + np.repeat(np.arange(machines), self.counts)
        coef = np.bincount(cell, self.alpha_y, len(self.pool) * machines)
        # float also when no row is kept, where bincount gives int64
        self.coef = coef.reshape(len(self.pool), machines).astype(np.float64, copy=False)
        self.kernel_side = self.gamma * _halves(self.pool)[1]


def resolve_gamma(X, gamma) -> float:
    if gamma == "auto":
        X = np.asarray(X, dtype=np.float64)
        mean_var = float(X.var(axis=0).mean())
        if mean_var <= 0:
            raise ValidationError("cannot auto-scale gamma: features have no spread")
        return 1.0 / (X.shape[1] * mean_var)
    g = float(gamma)
    if not np.isfinite(g) or g <= 0:
        raise ValidationError("gamma must be a positive finite real")
    return g


def smo_train(X, y, C, gamma, tol):
    """Binary SMO; y in {-1, +1}. Returns (alpha, bias) at KKT gap <= tol.

    Raises NumericError if the gap stays above `tol` for the iteration cap.
    """
    return smo_train_pairs([X], [y], C, gamma, tol)[0]


def smo_train_pairs(Xs, ys, C, gamma, tol):
    """Binary SMO on several problems at once: [(alpha, bias)] per (X, y).

    The problems are padded to one `problems x m` state, m the largest row
    count, over a `problems x m x m` stack of their kernels, and every
    unconverged problem takes one step per iteration.  Pad rows are in
    neither I_up nor I_low, so they are never picked, and each problem's
    arithmetic is elementwise that of a solver run on it alone, so the
    result does not depend on which problems share the batch.
    """
    sizes = [len(y) for y in ys]
    P, m = len(ys), max(sizes)
    K = np.zeros((P, m, m))
    sign = np.zeros((P, m))
    for p, (X, y) in enumerate(zip(Xs, ys)):
        rbf_kernel_matrix(X, gamma, out=K[p, :sizes[p], :sizes[p]])
        sign[p, :sizes[p]] = y
    alpha = np.zeros((P, m))
    v = sign.copy()  # -y * gradient of the dual, at alpha = 0
    # 0 on the rows of I_up (of I_low), -inf (+inf) on the others and on pads
    off_up = np.where(sign > 0, 0.0, -np.inf)
    off_low = np.where(sign < 0, 0.0, np.inf)
    cap = _MAX_ITER_PER_ROW * np.asarray(sizes)
    live = np.arange(P)  # problem of each row of the state arrays
    rows, limit = np.arange(P), cap.min()
    out = [None] * P
    steps = 0
    while True:
        v_up, v_low = v + off_up, v + off_low
        i = v_up.argmax(axis=1)
        top, bottom = v_up[rows, i], v_low.min(axis=1)
        if steps >= limit:
            raise NumericError(f"SMO left a KKT gap above tol {tol:g} after "
                               f"{steps} iterations")
        done = top - bottom <= tol
        if done.any():
            for r in np.nonzero(done)[0]:
                n = sizes[live[r]]
                a = alpha[r, :n].copy()
                free = (a > 0) & (a < C)
                bias = (float(v[r, :n][free].mean()) if free.any()
                        else (float(top[r]) + float(bottom[r])) / 2.0)
                out[live[r]] = (a, bias)
            keep = ~done
            if not keep.any():
                return out
            live, i, top = live[keep], i[keep], top[keep]
            v, v_low, alpha = v[keep], v_low[keep], alpha[keep]
            off_up, off_low, sign = off_up[keep], off_low[keep], sign[keep]
            rows, limit = np.arange(live.size), cap[live].min()
        # second-order gain (v_i - v_t)^2 / a_it, positive on I_low below v_i;
        # a_it / 2 = max(1 - K_it, tau / 2) exactly, and halving leaves the argmax
        Ki = K[live, i]
        gain = top[:, None] - v_low
        gain *= np.abs(gain)
        gain /= np.maximum(1.0 - Ki, _TAU / 2)
        j = gain.argmax(axis=1)
        # step t along alpha_i += y_i t, alpha_j -= y_j t, clipped to the box
        s_i, s_j = sign[rows, i], sign[rows, j]
        pos_i, pos_j = s_i > 0, s_j > 0
        old_i, old_j = alpha[rows, i], alpha[rows, j]
        room_i = np.where(pos_i, C - old_i, old_i)
        room_j = np.where(pos_j, old_j, C - old_j)
        t = np.minimum(np.minimum(
            (top - v[rows, j]) / np.maximum(2.0 - 2.0 * Ki[rows, j], _TAU),
            room_i), room_j)
        new_i = np.where(t == room_i, np.where(pos_i, C, 0.0), old_i + s_i * t)
        new_j = np.where(t == room_j, np.where(pos_j, 0.0, C), old_j - s_j * t)
        alpha[rows, i], alpha[rows, j] = new_i, new_j
        Ki *= (s_i * (new_i - old_i))[:, None]
        v -= Ki
        Kj = K[live, j]
        Kj *= (s_j * (new_j - old_j))[:, None]
        v -= Kj
        for r, pos, a in ((i, pos_i, new_i), (j, pos_j, new_j)):
            rise, fall = a < C, a > 0
            off_up[rows, r] = np.where(np.where(pos, rise, fall), 0.0, -np.inf)
            off_low[rows, r] = np.where(np.where(pos, fall, rise), 0.0, np.inf)
        steps += 1


def fit(X, y, C: float, gamma, tol: float) -> SvmCore:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if not (0 < C < np.inf and 0 < tol < np.inf):
        raise ValidationError("need finite C > 0 and tol > 0")
    tags = np.unique(y)
    if len(tags) < 2:
        raise ValidationError("need at least 2 classes")
    g = resolve_gamma(X, gamma)
    pairs = list(combinations(tags.tolist(), 2))  # one machine per pair
    masks = [(y == a) | (y == b) for a, b in pairs]
    Xs = [X[mask] for mask in masks]
    ys = [np.where(y[mask] == a, 1.0, -1.0) for (a, _), mask in zip(pairs, masks)]
    batch = max(1, _STACK_BYTES // (8 * max(map(len, ys)) ** 2))
    solved = []
    for s in range(0, len(pairs), batch):
        solved += smo_train_pairs(Xs[s:s + batch], ys[s:s + batch], C, g, tol)
    alphas, biases = zip(*solved)
    keep = [alpha > 0 for alpha in alphas]
    # the training row of each support row, in file order; the pool is
    # ordered by first support row, as `load` finds it in the file
    rows = np.concatenate([np.flatnonzero(mask)[k] for mask, k in zip(masks, keep)])
    pool_rows = rows[np.sort(np.unique(rows, return_index=True)[1])]
    slot = np.empty(len(X), dtype=np.int64)
    slot[pool_rows] = np.arange(pool_rows.size)
    return SvmCore(tags, np.array(pairs), np.array(biases),
                   np.array([k.sum() for k in keep]),
                   np.concatenate([(a * yp)[k] for a, yp, k in zip(alphas, ys, keep)]),
                   slot[rows], X[pool_rows], g)


def _decisions(core: SvmCore, X):
    """probes x machines: one kernel block on the pool and one product;
    a machine of no rows adds 0 to its bias."""
    K = _halves(X)[0] @ core.kernel_side.T  # -gamma |x - p|^2
    np.minimum(K, 0.0, out=K)
    return np.exp(K, out=K) @ core.coef + core.bias


def predict_detail(core: SvmCore, X):
    """(pred, scores) from one set of pair decisions.

    Scores are one-vs-one vote counts per class, aligned with `core.tags`; a
    vote tie goes to the lowest tag.
    """
    X = np.asarray(X, dtype=np.float64)
    n, k = X.shape[0], core.tags.size
    cols = np.searchsorted(core.tags, core.pairs)
    # an exact zero sides with the lower tag
    won = np.where(_decisions(core, X) >= 0, cols[:, 0], cols[:, 1])
    won += k * np.arange(n)[:, None]
    scores = np.bincount(won.ravel(), minlength=n * k).reshape(n, k)
    return core.tags[np.argmax(scores, axis=1)], scores.astype(np.float64)


def predict_scores(core: SvmCore, X) -> np.ndarray:
    """One-vs-one vote counts per class, aligned with `core.tags`."""
    return predict_detail(core, X)[1]


def predict(core: SvmCore, X) -> np.ndarray:
    return predict_detail(core, X)[0]


def dual_objective(alpha, y, K) -> float:
    """W(alpha) = sum(alpha) - 0.5 * sum_ij alpha_i alpha_j y_i y_j K_ij."""
    alpha = np.asarray(alpha, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    ay = alpha * y
    return float(alpha.sum() - 0.5 * (ay @ K @ ay))


def rbf_kernel_matrix(X, gamma, out=None) -> np.ndarray:
    """The n x n RBF kernel of X's rows, written into `out` if given."""
    left, right = _halves(X)
    K = np.matmul(left, (gamma * right).T, out=out)
    np.minimum(K, 0.0, out=K)
    return np.exp(K, out=K)


def dump(core: SvmCore):
    out = [f"core svm {core.bias.size} {core.tags.size}",
           "tags " + " ".join(str(int(t)) for t in core.tags)]
    text = [fmt_vec(row) for row in core.pool]  # each pool row formatted once
    rows = (f"sv {fmt(coeff)} {text[p]}"
            for coeff, p in zip(core.alpha_y.tolist(), core.member.tolist()))
    for (a, b), n, bias in zip(core.pairs, core.counts, core.bias):
        out.append(f"machine {a} {b} {n} {fmt(bias)}")
        out += islice(rows, n)
    return out


def load(r, head, width, params):
    """The core from the lines after `core svm <n_machines> <n_tags>`: one
    machine per pair of tags, in the order `fit` writes them."""
    n_machines, n_tags = head
    if n_machines != (need := n_tags * (n_tags - 1) // 2):
        r.fail(f"{n_machines} machines, {n_tags} tags need {need}")
    tags = r.tags(n_tags)
    pairs, bias, spans = [], [], []
    for pair in combinations(tags.tolist(), 2):
        parts = r.next("machine").split()
        if (number(parts[1], True), number(parts[2], True)) != pair:
            r.fail(f"expected the machine of tags {pair[0]} and {pair[1]}")
        pairs.append(pair)
        bias.append(number(parts[4]))
        spans.append(r.rows(number(parts[3], True)))
    # `sv <alpha_y> <row>`: each distinct row text is read once, at the first
    # line that holds it.  str.split() also cuts at non-ASCII spaces such as
    # '\xa0', so a non-ASCII line is left whole, for read_block to refuse
    rows = [i for span in spans for i in span]
    coefs, texts = [], []
    for line in r.prefixed("sv", rows):
        cells = line.split(None, 2) if line.isascii() else []
        coefs.append(cells[1] if len(cells) > 1 else line)
        texts.append(cells[2] if len(cells) > 2 else line)
    pool_of = {}
    member = np.array([pool_of.setdefault(t, len(pool_of)) for t in texts],
                      dtype=np.int64)
    first = np.unique(member, return_index=True)[1]
    faults = []  # of the two reads, the fault at the earlier line is named
    try:
        pool = r.block("sv", [rows[i] for i in first],
                       [("alpha_y", np.float64), ("sv", np.float64, width)])["sv"]
    except ParseError as exc:
        faults.append(exc)
    try:
        alpha_y = (read_block(coefs, [i + 1 for i in rows], [("a", np.float64)])["a"]
                   if rows else np.empty(0))
    except ParseError as exc:
        faults.append(exc)
    if faults:
        raise min(faults, key=lambda exc: exc.line)
    return SvmCore(tags, np.array(pairs, dtype=np.int64).reshape(-1, 2),
                   np.array(bias), np.array(list(map(len, spans)), dtype=np.int64),
                   np.ascontiguousarray(alpha_y), member,
                   np.ascontiguousarray(pool), params["gamma"])

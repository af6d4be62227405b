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
"""

from dataclasses import dataclass

import numpy as np

from .._atomic import number
from ..errors import NumericError, ValidationError
from ._text import fmt, fmt_vec
from .knn import _sq_dists

# a generous cap: default-dataset pairs converge in under one iteration per row
_MAX_ITER_PER_ROW = 1000
_TAU = 1e-12  # floor of the curvature a_ij, reached by duplicate rows (K_ij = 1)
_STACK_BYTES = 64 << 20  # kernel stack of one solver batch (a pair always fits)


@dataclass
class PairMachine:
    tag_pos: int
    tag_neg: int
    alpha_y: np.ndarray  # alpha_i * y_i over support rows
    sv: np.ndarray
    bias: float


@dataclass
class SvmCore:
    tags: np.ndarray
    machines: list
    gamma: float


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
    pairs = [(int(a), int(b)) for ia, a in enumerate(tags) for b in tags[ia + 1:]]
    masks = [(y == a) | (y == b) for a, b in pairs]
    Xs = [X[mask] for mask in masks]
    ys = [np.where(y[mask] == a, 1.0, -1.0) for (a, _), mask in zip(pairs, masks)]
    batch = max(1, _STACK_BYTES // (8 * max(map(len, ys)) ** 2))
    solved = []
    for s in range(0, len(pairs), batch):
        solved += smo_train_pairs(Xs[s:s + batch], ys[s:s + batch], C, g, tol)
    machines = []
    for (a, b), Xp, yp, (alpha, bias) in zip(pairs, Xs, ys, solved):
        keep = alpha > 0
        machines.append(PairMachine(a, b, (alpha * yp)[keep], Xp[keep],
                                    float(bias)))
    return SvmCore(tags, machines, g)


def _pair_decisions(machine: PairMachine, X, gamma):
    if machine.sv.shape[0] == 0:
        return np.full(X.shape[0], machine.bias)
    d2 = _sq_dists(X, machine.sv)
    return np.exp(-gamma * d2) @ machine.alpha_y + machine.bias


def predict_detail(core: SvmCore, X):
    """(pred, scores) from one set of pair decisions.

    Scores are one-vs-one vote counts per class, aligned with `core.tags`; a
    vote tie goes to the lowest tag.
    """
    X = np.asarray(X, dtype=np.float64)
    scores = np.zeros((X.shape[0], core.tags.size), dtype=np.float64)
    for m in core.machines:
        f = _pair_decisions(m, X, core.gamma)
        win_pos = f >= 0  # an exact zero sides with the lower tag
        col_pos, col_neg = np.searchsorted(core.tags, (m.tag_pos, m.tag_neg))
        scores[win_pos, col_pos] += 1.0
        scores[~win_pos, col_neg] += 1.0
    return core.tags[np.argmax(scores, axis=1)], scores


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
    X = np.asarray(X, dtype=np.float64)
    sq = (X * X).sum(axis=1)[:, None]
    one = np.ones_like(sq)
    # -gamma |x_i - x_j|^2 = [x_i, |x_i|^2, 1] . gamma [2 x_j, -1, -|x_j|^2]:
    # one matrix product, so the only n x n passes left are the clip and exp
    K = np.matmul(np.hstack([X, sq, one]),
                  (gamma * np.hstack([2.0 * X, -one, -sq])).T, out=out)
    np.minimum(K, 0.0, out=K)
    return np.exp(K, out=K)


def dump(core: SvmCore):
    out = [f"core svm {len(core.machines)} {len(core.tags)}",
           "tags " + " ".join(str(int(t)) for t in core.tags)]
    for m in core.machines:
        out.append(f"machine {m.tag_pos} {m.tag_neg} {m.sv.shape[0]} "
                   f"{fmt(m.bias)}")
        for coeff, row in zip(m.alpha_y, m.sv):
            out.append(f"sv {fmt(coeff)} {fmt_vec(row)}")
    return out


def load(r, head, width, params):
    """The core from the lines after `core svm <n_machines> <n_tags>`."""
    n_machines, n_tags = head
    tags = r.tags(n_tags)
    heads, spans = [], []
    for _ in range(n_machines):
        parts = r.next("machine").split()
        a, b = number(parts[1], True), number(parts[2], True)
        bias = number(parts[4])
        if a == b or a not in tags or b not in tags:
            r.fail(f"machine tags {a} and {b} are not two distinct model tags")
        heads.append((a, b, bias))
        spans.append(r.rows(number(parts[3], True)))
    # the sv lines of every machine, read in one pass
    rec = r.block("sv", [i for span in spans for i in span],
                  [("alpha_y", np.float64), ("sv", np.float64, width)])
    ends = np.cumsum([len(span) for span in spans])[:-1]
    machines = [PairMachine(a, b, np.ascontiguousarray(part["alpha_y"]),
                            np.ascontiguousarray(part["sv"]), bias)
                for (a, b, bias), part in zip(heads, np.split(rec, ends))]
    if "gamma" not in params:
        r.fail("svm model file lacks a gamma param")
    return SvmCore(tags, machines, params["gamma"])

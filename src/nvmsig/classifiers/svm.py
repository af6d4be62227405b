"""RBF-kernel support vector machines trained by sequential minimal
optimization, combined one-vs-one for multiclass.

Each pair machine is solved on its precomputed RBF kernel (a pair of
default-dataset classes has about 410 rows, so about 1.4 MB).  The solver
keeps v = -y * grad of the dual and picks its working set by the second-order
rule of Fan, Chen & Lin (JMLR 2005, the LIBSVM scheme): i is the row of I_up
with the largest v, and j the row of I_low with v_j < v_i that maximizes
(v_i - v_j)^2 / a_ij with a_ij = max(2 - 2 K_ij, 1e-12).  It stops once
max_{I_up} v - min_{I_low} v is at most `tol`; with the bias at the mean v of
the free rows, every row then meets its KKT condition within `tol`.  The
solver draws nothing at random, so equal inputs give equal machines.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import NumericError, ValidationError

# a generous cap: default-dataset pairs converge in under one iteration per row
_MAX_ITER_PER_ROW = 1000
_TAU = 1e-12  # floor of the curvature a_ij, reached by duplicate rows (K_ij = 1)


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
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    sign = y.tolist()
    K = rbf_kernel_matrix(X, gamma)
    alpha = np.zeros(n)
    v = y.copy()  # -y * gradient of the dual, at alpha = 0
    # 0 on the rows of I_up (of I_low), -inf (+inf) on the others
    off_up = np.where(y > 0, 0.0, -np.inf)
    off_low = np.where(y > 0, np.inf, 0.0)
    for _ in range(_MAX_ITER_PER_ROW * n):
        v_up, v_low = v + off_up, v + off_low
        i = int(v_up.argmax())
        top, bottom = float(v_up[i]), float(v_low[v_low.argmin()])
        if top - bottom <= tol:
            break
        # second-order gain (v_i - v_t)^2 / a_it, positive on I_low below v_i;
        # a_it / 2 = max(1 - K_it, tau / 2) exactly, and halving leaves the argmax
        gain = top - v_low
        gain *= np.abs(gain)
        gain /= np.maximum(1.0 - K[i], _TAU / 2)
        j = int(gain.argmax())
        # step t along alpha_i += y_i t, alpha_j -= y_j t, clipped to the box
        old_i, old_j = float(alpha[i]), float(alpha[j])
        room_i = C - old_i if sign[i] > 0 else old_i
        room_j = old_j if sign[j] > 0 else C - old_j
        t = min((top - float(v[j])) / max(2.0 - 2.0 * float(K[i, j]), _TAU),
                room_i, room_j)
        alpha[i] = (C if sign[i] > 0 else 0.0) if t == room_i else old_i + sign[i] * t
        alpha[j] = (0.0 if sign[j] > 0 else C) if t == room_j else old_j - sign[j] * t
        v -= K[i] * (sign[i] * (alpha[i] - old_i))
        v -= K[j] * (sign[j] * (alpha[j] - old_j))
        for r in (i, j):
            can_rise, can_fall = alpha[r] < C, alpha[r] > 0
            off_up[r] = 0.0 if (can_rise if sign[r] > 0 else can_fall) else -np.inf
            off_low[r] = 0.0 if (can_fall if sign[r] > 0 else can_rise) else np.inf
    else:
        raise NumericError(f"SMO left a KKT gap above tol {tol:g} after "
                           f"{_MAX_ITER_PER_ROW * n} iterations")
    free = (alpha > 0) & (alpha < C)
    bias = float(v[free].mean()) if free.any() else (top + bottom) / 2.0
    return alpha, bias


def fit(X, y, C: float = 1.0, gamma="auto", tol: float = 1e-3) -> SvmCore:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if not (0 < C < np.inf and 0 < tol < np.inf):
        raise ValidationError("need finite C > 0 and tol > 0")
    tags = np.unique(y)
    if len(tags) < 2:
        raise ValidationError("need at least 2 classes")
    g = resolve_gamma(X, gamma)
    machines = []
    for ia in range(len(tags)):
        for ib in range(ia + 1, len(tags)):
            a, b = int(tags[ia]), int(tags[ib])
            mask = (y == a) | (y == b)
            Xp = X[mask]
            yp = np.where(y[mask] == a, 1.0, -1.0)
            alpha, bias = smo_train(Xp, yp, C, g, tol)
            keep = alpha > 0
            machines.append(PairMachine(a, b, (alpha * yp)[keep], Xp[keep],
                                        float(bias)))
    return SvmCore(tags, machines, g)


def _pair_decisions(machine: PairMachine, X, gamma):
    if machine.sv.shape[0] == 0:
        return np.full(X.shape[0], machine.bias)
    xx = (X * X).sum(axis=1)[:, None]
    ss = (machine.sv * machine.sv).sum(axis=1)[None, :]
    d2 = np.maximum(xx + ss - 2.0 * (X @ machine.sv.T), 0.0)
    return np.exp(-gamma * d2) @ machine.alpha_y + machine.bias


def predict_detail(core: SvmCore, X, tags):
    """(pred, scores) from one set of pair decisions; `tags` ascending.

    Scores are one-vs-one vote counts per class, aligned with `tags`; a vote
    tie goes to the lowest tag.
    """
    X = np.asarray(X, dtype=np.float64)
    pos = {int(t): i for i, t in enumerate(tags)}
    scores = np.zeros((X.shape[0], len(tags)), dtype=np.float64)
    for m in core.machines:
        f = _pair_decisions(m, X, core.gamma)
        win_pos = f >= 0  # an exact zero sides with the lower tag
        scores[win_pos, pos[m.tag_pos]] += 1.0
        scores[~win_pos, pos[m.tag_neg]] += 1.0
    return np.asarray(tags)[np.argmax(scores, axis=1)], scores


def predict_scores(core: SvmCore, X, tags) -> np.ndarray:
    """One-vs-one vote counts per class, aligned with `tags`."""
    return predict_detail(core, X, tags)[1]


def predict(core: SvmCore, X) -> np.ndarray:
    return predict_detail(core, X, core.tags)[0]


def dual_objective(alpha, y, K) -> float:
    """W(alpha) = sum(alpha) - 0.5 * sum_ij alpha_i alpha_j y_i y_j K_ij."""
    alpha = np.asarray(alpha, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    ay = alpha * y
    return float(alpha.sum() - 0.5 * (ay @ K @ ay))


def rbf_kernel_matrix(X, gamma) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    sq = (X * X).sum(axis=1)[:, None]
    one = np.ones_like(sq)
    # -gamma |x_i - x_j|^2 = [x_i, |x_i|^2, 1] . gamma [2 x_j, -1, -|x_j|^2]:
    # one matrix product, so the only n x n passes left are the clip and exp
    K = np.hstack([X, sq, one]) @ (gamma * np.hstack([2.0 * X, -one, -sq])).T
    np.minimum(K, 0.0, out=K)
    return np.exp(K, out=K)

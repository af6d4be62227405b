"""RBF-kernel support vector machines trained by sequential minimal
optimization, combined one-vs-one for multiclass.

The pair solver follows the simplified SMO scheme: sweep the working set,
and for each KKT violator try a second index chosen first by the largest
error gap, then by seeded random order.  Training stops after `max_passes`
consecutive sweeps without an update.  Kernel rows are computed on demand,
so cost tracks the feature count rather than a cached kernel matrix.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError

_MIN_ALPHA_STEP = 1e-8
_HARD_SWEEP_CAP = 10000


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
    C: float
    tol: float


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


def _kernel_rows(X, x, gamma):
    d = X - x
    return np.exp(-gamma * (d * d).sum(axis=1))


def _kernel_scalar(a, b, gamma):
    d = a - b
    return float(np.exp(-gamma * float(d @ d)))


def smo_train(X, y, C, gamma, tol, max_passes, rng):
    """Binary SMO; y in {-1, +1}. Returns (alpha, bias)."""
    n = X.shape[0]
    alpha = np.zeros(n)
    bias = 0.0
    F = np.zeros(n)  # decision values, kept in sync with alpha and bias

    def take_step(i, j, Ei):
        nonlocal bias
        if i == j:
            return False
        ai, aj = alpha[i], alpha[j]
        yi, yj = y[i], y[j]
        Ej = F[j] - yj
        if yi != yj:
            L, H = max(0.0, aj - ai), min(C, C + aj - ai)
        else:
            L, H = max(0.0, ai + aj - C), min(C, ai + aj)
        if L >= H:
            return False
        kij = _kernel_scalar(X[i], X[j], gamma)
        eta = 2.0 * kij - 2.0  # Kii = Kjj = 1 for RBF
        if eta >= 0:
            return False
        aj_new = aj - yj * (Ei - Ej) / eta
        aj_new = min(max(aj_new, L), H)
        if abs(aj_new - aj) < _MIN_ALPHA_STEP:
            return False
        ai_new = ai + yi * yj * (aj - aj_new)
        b1 = bias - Ei - yi * (ai_new - ai) - yj * (aj_new - aj) * kij
        b2 = bias - Ej - yi * (ai_new - ai) * kij - yj * (aj_new - aj)
        if 0.0 < ai_new < C:
            b_new = b1
        elif 0.0 < aj_new < C:
            b_new = b2
        else:
            b_new = (b1 + b2) / 2.0
        row_i = _kernel_rows(X, X[i], gamma)
        row_j = _kernel_rows(X, X[j], gamma)
        F[:] = F + yi * (ai_new - ai) * row_i + yj * (aj_new - aj) * row_j \
            + (b_new - bias)
        alpha[i], alpha[j] = ai_new, aj_new
        bias = b_new
        return True

    quiet = 0
    sweeps = 0
    while quiet < max_passes and sweeps < _HARD_SWEEP_CAP:
        changed = 0
        for i in range(n):
            Ei = F[i] - y[i]
            r = y[i] * Ei
            if not ((r < -tol and alpha[i] < C) or (r > tol and alpha[i] > 0)):
                continue
            gaps = np.abs(F - y - Ei)
            gaps[i] = -1.0
            if take_step(i, int(np.argmax(gaps)), Ei):
                changed += 1
                continue
            for j in rng.permutation(n):
                if take_step(i, int(j), Ei):
                    changed += 1
                    break
        sweeps += 1
        quiet = quiet + 1 if changed == 0 else 0
    return alpha, bias


def fit(X, y, C: float = 1.0, gamma="auto", tol: float = 1e-3,
        max_passes: int = 10, seed: int = 0) -> SvmCore:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if C <= 0 or tol <= 0 or max_passes < 1:
        raise ValidationError("need C > 0, tol > 0, max_passes >= 1")
    tags = np.unique(y)
    if len(tags) < 2:
        raise ValidationError("need at least 2 classes")
    g = resolve_gamma(X, gamma)
    rng = np.random.default_rng(seed)
    machines = []
    for ia in range(len(tags)):
        for ib in range(ia + 1, len(tags)):
            a, b = int(tags[ia]), int(tags[ib])
            mask = (y == a) | (y == b)
            Xp = X[mask]
            yp = np.where(y[mask] == a, 1.0, -1.0)
            alpha, bias = smo_train(Xp, yp, C, g, tol, max_passes, rng)
            keep = alpha > 0
            machines.append(PairMachine(a, b, (alpha * yp)[keep], Xp[keep],
                                        float(bias)))
    return SvmCore(tags, machines, g, float(C), float(tol))


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
    sq = (X * X).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    return np.exp(-gamma * np.maximum(d2, 0.0))

import argparse
import functools
import inspect
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from nvmsig import cli
from nvmsig.chipsim import load_catalog
from nvmsig.classifiers import (
    KINDS,
    cross_validate,
    evaluate,
    fold_assignments,
    load_model,
    predict,
    predict_detail,
    save_model,
    train,
    train_knn,
    train_svm,
    train_tree,
)
from nvmsig.classifiers import knn as knn_core
from nvmsig.classifiers import svm as svm_core
from nvmsig.classifiers import tree as tree_core
from nvmsig.classifiers._text import fmt
from nvmsig.errors import ParseError, ValidationError
from nvmsig.features import apply_standardizer, fit_standardizer, mrmr_select, nca_select
from nvmsig.protocol import build_dataset, split


def toy(seed, n=20, d=3, classes=3, integer=False, spread=3.0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, classes, size=n)
    if integer:
        X = rng.integers(0, 8, size=(n, d)).astype(float)
    else:
        X = rng.normal(size=(n, d))
    X[:, 0] += spread * y
    if len(np.unique(y)) < 2:
        y[0] = (y[0] + 1) % classes
    return SimpleNamespace(X=X, y=y, class_names={})


# ---------------- knn against a distance-sort oracle ----------------

def knn_oracle(Xtr, ytr, x, k):
    ds = sorted((sum((float(a) - float(b)) ** 2 for a, b in zip(row, x)), i)
                for i, row in enumerate(Xtr))
    nn = ds[:k]
    votes = Counter(int(ytr[i]) for _, i in nn)
    top = max(votes.values())
    tied = {t for t, v in votes.items() if v == top}
    if len(tied) == 1:
        return tied.pop()
    best = None
    for dist, i in nn:
        t = int(ytr[i])
        if t in tied and (best is None or (dist, t) < best):
            best = (dist, t)
    return best[1]


@pytest.mark.parametrize("integer", [False, True])
def test_knn_matches_oracle_on_toys(integer):
    rng = np.random.default_rng(17 if integer else 18)
    for trial in range(60):
        n = int(rng.integers(5, 30))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, n + 1))
        ds = toy(int(rng.integers(1 << 30)), n=n, d=d,
                 classes=int(rng.integers(2, 4)), integer=integer)
        core = knn_core.fit(ds.X, ds.y, k)
        probes = (rng.integers(0, 8, size=(8, d)).astype(float) if integer
                  else rng.normal(size=(8, d)))
        got = knn_core.predict(core, probes)
        want = [knn_oracle(ds.X, ds.y, p, k) for p in probes]
        assert got.tolist() == want


def test_knn_exact_tie_prefers_lowest_tag():
    X = np.array([[1.0], [-1.0]])
    y = np.array([7, 3])
    core = knn_core.fit(X, y, 2)
    assert knn_core.predict(core, np.array([[0.0]]))[0] == 3


def test_knn_vote_tie_prefers_nearer_class():
    X = np.array([[0.0], [1.0], [5.0], [5.5]])
    y = np.array([0, 0, 1, 1])
    core = knn_core.fit(X, y, 4)
    assert knn_core.predict(core, np.array([[4.4]]))[0] == 1


def test_knn_tie_rules_hold_on_inexact_distances():
    # non-dyadic values, where d^2 from one product is not exact; row 1
    # repeats row 0 under a lower tag, so the two tie exactly
    X = np.array([[0.1, 0.7], [0.1, 0.7], [0.7, 0.3]])
    y = np.array([7, 3, 7])
    probes = np.array([[0.3, 0.6], [0.2, 0.9], [-0.4, 0.5]])
    for k, want in ((1, 7), (2, 3)):  # k=1: the lower training index
        core = knn_core.fit(X, y, k)
        assert knn_core.predict(core, probes).tolist() == [want] * 3
        for p in probes:
            assert knn_core.predict(core, p[None, :]).tolist() == [want]
    # a 2:2 vote tie goes to the nearer class, here the higher tag
    X = np.array([[0.1, 0.7], [0.7, 0.1], [2.3, 1.9], [2.9, 1.3]])
    core = knn_core.fit(X, np.array([3, 3, 7, 7]), 4)
    pred, scores = knn_core.predict_detail(core, np.array([[1.9, 1.3]]))
    assert pred.tolist() == [7]
    assert scores.tolist() == [[2.0, 2.0]]


def test_knn_scores_are_vote_counts():
    ds = toy(5, n=15, classes=3)
    m = train_knn(ds, k=5)
    _, scores, tags = predict_detail(m, ds.X[:4])
    assert scores.shape == (4, len(tags))
    assert np.all(scores.sum(axis=1) == 5)


def test_knn_k_validation():
    ds = toy(0, n=6)
    with pytest.raises(ValidationError):
        train_knn(ds, k=7)
    with pytest.raises(ValidationError):
        train_knn(ds, k=0)


# ---------------- tree against an exact-arithmetic oracle ----------------

def gini_root_oracle(X, y, min_leaf=1):
    n, d = X.shape
    labels = sorted(set(int(v) for v in y))
    total = Counter(int(v) for v in y)
    parent = Fraction(sum(c * c for c in total.values()), n)
    best = None
    for j in range(d):
        vals = sorted(set(float(v) for v in X[:, j]))
        for lo, hi in zip(vals, vals[1:]):
            thr = (lo + hi) / 2.0
            left = Counter(int(y[i]) for i in range(n) if X[i, j] <= thr)
            nl = sum(left.values())
            nr = n - nl
            if nl < min_leaf or nr < min_leaf:
                continue
            right = {c: total[c] - left.get(c, 0) for c in labels}
            purity = (Fraction(sum(c * c for c in left.values()), nl)
                      + Fraction(sum(c * c for c in right.values()), nr))
            if best is None or purity > best[0]:
                best = (purity, j, thr)
    if best is None or best[0] <= parent:
        return None
    return best[1], best[2]


@pytest.mark.parametrize("integer", [False, True])
def test_tree_root_split_matches_exhaustive_oracle(integer):
    rng = np.random.default_rng(23 if integer else 29)
    checked = 0
    for trial in range(60):
        n = int(rng.integers(4, 30))
        d = int(rng.integers(1, 6))
        ds = toy(int(rng.integers(1 << 30)), n=n, d=d,
                 classes=int(rng.integers(2, 4)), integer=integer,
                 spread=1.5)
        dense = np.searchsorted(np.unique(ds.y), ds.y)
        got = tree_core.best_split(ds.X, dense, len(np.unique(ds.y)), 1)
        want = gini_root_oracle(ds.X, ds.y)
        if want is None:
            assert got is None
        else:
            assert got == want
            checked += 1
    assert checked > 20


def test_tree_tie_prefers_lowest_feature():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([0, 0, 1, 1])
    got = tree_core.best_split(X, y, 2, 1)
    assert got == (0, 0.5)


# ---------------- tree fit against a per-node reference grower ----------------

def grow_reference(X, y, max_depth, min_leaf):
    """The node table of a tree grown node by node, where every node argsorts
    and cumsums each of its features again."""
    tags = np.unique(y)
    dense = np.searchsorted(tags, y)
    rows = []

    def split_of(Xn, yn):
        n = yn.size
        onehot = np.zeros((n, tags.size), dtype=np.int64)
        onehot[np.arange(n), yn] = 1
        total = onehot.sum(axis=0)
        parent = float((total.astype(np.float64) ** 2).sum()) / n
        best = None
        for j in range(Xn.shape[1]):
            order = np.argsort(Xn[:, j], kind="stable")
            sv = Xn[order, j]
            cum = np.cumsum(onehot[order], axis=0)
            cut = np.nonzero(sv[:-1] < sv[1:])[0]
            cut = cut[(cut + 1 >= min_leaf) & (n - cut - 1 >= min_leaf)]
            if cut.size == 0:
                continue
            left = cum[cut].astype(np.float64)
            right = total.astype(np.float64) - left
            purity = ((left ** 2).sum(axis=1) / (cut + 1)
                      + (right ** 2).sum(axis=1) / (n - cut - 1))
            pos = int(np.argmax(purity))
            if purity[pos] > parent and (best is None or purity[pos] > best[0]):
                best = (purity[pos], j,
                        float((sv[cut[pos]] + sv[cut[pos] + 1]) / 2.0))
        return None if best is None else best[1:]

    def grow(idx, depth):
        counts = np.bincount(dense[idx], minlength=tags.size).tolist()
        split = None
        if depth < max_depth and max(counts) < idx.size \
                and idx.size >= 2 * min_leaf:
            split = split_of(X[idx], dense[idx])
        if split is None:
            rows.append((-1, 0.0, -1, -1, int(np.argmax(counts)), counts))
            return
        row = [split[0], split[1], len(rows) + 1, -1, -1, counts]
        rows.append(row)
        mask = X[idx, split[0]] <= split[1]
        grow(idx[mask], depth + 1)
        row[3] = len(rows)
        grow(idx[~mask], depth + 1)

    grow(np.arange(y.size), 0)
    return tree_core.table(tags, rows)


def assert_same_table(got, want):
    for field in ("tags", "feature", "threshold", "left", "right", "leaf",
                  "counts"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


@pytest.mark.parametrize("min_leaf", [1, 2, 3, 5])
def test_tree_fit_matches_per_node_reference(min_leaf, monkeypatch):
    rng = np.random.default_rng(40 + min_leaf)
    for trial in range(16):
        d = int(rng.integers(1, 6))
        ds = toy(int(rng.integers(1 << 30)), n=int(rng.integers(2, 70)), d=d,
                 classes=int(rng.integers(2, 5)), integer=trial % 2 == 0,
                 spread=1.0)
        if trial % 4 == 1:
            ds.X[:, int(rng.integers(d))] = 0.5  # a constant column
        if trial % 4 == 3:
            ds.X[:, -1] = ds.X[:, 0]  # every split on 0 ties with the copy
        for max_depth in (1, 2, 3, 4, 20):
            want = grow_reference(ds.X, ds.y, max_depth, min_leaf)
            for cap in (1 << 20, 1):  # one feature per block at cap 1
                monkeypatch.setattr(tree_core, "_BLOCK_BYTES", cap)
                assert_same_table(tree_core.fit(ds.X, ds.y, max_depth,
                                                min_leaf), want)


def test_tree_tie_across_feature_blocks_prefers_lowest_feature(monkeypatch):
    ds = toy(3, n=60, d=3, classes=3)
    X = np.column_stack([ds.X[:, 1], ds.X[:, 0], ds.X[:, 0], ds.X[:, 2]])
    # the root block holds features 0-1 and the next one features 2-3, so
    # the equal purities of the copies 1 and 2 land in different blocks
    monkeypatch.setattr(tree_core, "_BLOCK_BYTES", 8 * 60 * 2)
    core = tree_core.fit(X, ds.y, 20, 1)
    assert core.feature[0] == 1
    assert_same_table(core, grow_reference(X, ds.y, 20, 1))


def test_tree_fit_peak_allocation_is_bounded():
    """The per-feature orders and the block buffers of a default-size fit
    (1,818 x 100, 9 classes) stay under a fixed budget."""
    rng = np.random.default_rng(9)
    y = rng.integers(0, 9, 1818)
    X = rng.normal(size=(1818, 100)) + 0.3 * y[:, None] * rng.normal(size=100)
    tracemalloc.start()
    try:
        tree_core.fit(X, y, 20, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, f"{peak / 2 ** 20:.1f} MiB"


def test_tree_fits_training_data_exactly():
    ds = toy(31, n=40, d=4, classes=3)
    m = train_tree(ds, max_depth=20, min_leaf=1)
    assert np.array_equal(predict(m, ds.X), ds.y)


def test_tree_depth_one_is_a_stump():
    ds = toy(8, n=30, classes=3)
    m = train_tree(ds, max_depth=1)
    core = m.core
    assert core.feature[0] >= 0
    assert core.feature[[core.left[0], core.right[0]]].tolist() == [-1, -1]


def test_tree_min_leaf_respected():
    ds = toy(12, n=25, classes=3)
    core = train_tree(ds, min_leaf=5).core
    assert np.all(core.counts[core.feature == -1].sum(axis=1) >= 5)


def _walk_oracle(core, x):
    """One probe down the node table, one node at a time."""
    nid = 0
    while core.feature[nid] >= 0:
        go_left = x[core.feature[nid]] <= core.threshold[nid]
        nid = core.left[nid] if go_left else core.right[nid]
    return nid


@pytest.mark.parametrize("seed", range(6))
def test_tree_table_is_preorder_and_walks_like_one_probe_at_a_time(seed):
    rng = np.random.default_rng(seed)
    ds = toy(seed, n=int(rng.integers(10, 80)), d=int(rng.integers(1, 6)),
             classes=int(rng.integers(2, 5)), integer=seed % 2 == 1)
    core = train_tree(ds, max_depth=int(rng.integers(1, 8))).core
    split = np.nonzero(core.feature >= 0)[0]
    # preorder: a split's left child follows it, and every row but the
    # root is the child of exactly one split
    assert np.array_equal(core.left[split], split + 1)
    assert np.all(core.right[split] > core.left[split])
    assert sorted(np.r_[0, core.left[split], core.right[split]]) == list(
        range(core.feature.size))
    assert np.array_equal(core.counts[split],
                          core.counts[core.left[split]]
                          + core.counts[core.right[split]])
    leaves = core.feature == -1
    assert np.all(core.leaf[~leaves] == -1)
    assert np.array_equal(core.leaf[leaves],
                          core.counts[leaves].argmax(axis=1))
    probes = np.vstack([ds.X, rng.normal(size=(30, ds.X.shape[1])) * 3])
    reached = [_walk_oracle(core, x) for x in probes]
    pred, scores = tree_core.predict_detail(core, probes)
    assert np.array_equal(pred, core.tags[core.leaf[reached]])
    assert np.array_equal(scores, core.counts[reached])


def test_tree_scores_are_leaf_counts():
    ds = toy(3, n=30, classes=3)
    m = train_tree(ds, max_depth=2)
    _, scores, _ = predict_detail(m, ds.X[:5])
    assert np.all(scores.sum(axis=1) >= 1)
    assert np.all(scores == scores.astype(int))


# ---------------- svm: dual optimality, constraints, kkt ----------------

def grid_dual_max(K, y, C, stages=4, pts=9):
    """Zooming grid over 5 free alphas; the 6th enforces sum(alpha*y)=0.
    The dual is concave, so each zoom window keeps the optimum."""
    y = np.asarray(y, dtype=np.float64)
    lo, hi = np.zeros(5), np.full(5, C)
    best_val, best_pt = -np.inf, None
    for _ in range(stages):
        axes = [np.linspace(lo[m], hi[m], pts) for m in range(5)]
        G = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 5)
        a5 = -y[5] * (G * y[:5]).sum(axis=1)
        ok = (a5 >= -1e-12) & (a5 <= C + 1e-12)
        if not np.any(ok):
            width = (hi - lo) / 2
            lo, hi = np.maximum(lo - width, 0), np.minimum(hi + width, C)
            continue
        A = np.column_stack([G[ok], np.clip(a5[ok], 0.0, C)])
        AY = A * y
        vals = A.sum(axis=1) - 0.5 * np.einsum("ni,ij,nj->n", AY, K, AY)
        top = int(np.argmax(vals))
        if vals[top] > best_val:
            best_val, best_pt = float(vals[top]), A[top, :5]
        step = (hi - lo) / (pts - 1)
        lo = np.maximum(best_pt - 1.5 * step, 0.0)
        hi = np.minimum(best_pt + 1.5 * step, C)
    return best_val


def six_point_problem(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(6, 2)) + np.array([[2.0, 0.0]] * 3 + [[-2.0, 0.0]] * 3) \
        * rng.uniform(0.2, 1.0)
    y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    perm = rng.permutation(6)
    return X[perm], y[perm]


def kkt_violations(F, y, alpha, C, tol):
    bad = 0
    for i in range(len(y)):
        margin = y[i] * F[i]
        if alpha[i] < 1e-12 and margin < 1 - tol - 1e-9:
            bad += 1
        elif alpha[i] > C - 1e-12 and margin > 1 + tol + 1e-9:
            bad += 1
        elif 1e-12 < alpha[i] < C - 1e-12 and abs(margin - 1) > tol + 1e-9:
            bad += 1
    return bad


def test_svm_dual_reaches_grid_optimum_on_six_point_problems():
    C, tol = 1.0, 1e-4
    for seed in range(20):
        X, y = six_point_problem(seed)
        gamma = svm_core.resolve_gamma(X, "auto")
        K = svm_core.rbf_kernel_matrix(X, gamma)
        alpha, bias = svm_core.smo_train(X, y, C, gamma, tol)
        assert abs(float(alpha @ y)) <= 1e-9
        w_smo = svm_core.dual_objective(alpha, y, K)
        w_grid = grid_dual_max(K, y, C)
        assert w_smo == pytest.approx(w_grid, abs=1e-3)
        F = K @ (alpha * y) + bias
        assert kkt_violations(F, y, alpha, C, tol) == 0


def test_svm_pairs_converge_on_lab_seed_1_sweep_data():
    """The sweep benchmark's training set on mRMR-25 features, where a
    solver that stops early leaves KKT gaps of about 0.004 on two pairs."""
    ds = build_dataset(load_catalog(), chips_per_class=2, locations_per_chip=2,
                       seed=1)
    train, _ = split(ds, train_fraction=0.8, seed=1)
    Xs = train.X[:, mrmr_select(train, k=25).indices]
    Z = apply_standardizer(fit_standardizer(Xs), Xs)
    gamma = svm_core.resolve_gamma(Z, "auto")
    tags = np.unique(train.y)
    pairs = 0
    for ia, a in enumerate(tags):
        for b in tags[ia + 1:]:
            mask = (train.y == a) | (train.y == b)
            X, y = Z[mask], np.where(train.y[mask] == a, 1.0, -1.0)
            alpha, bias = svm_core.smo_train(X, y, 1.0, gamma, 1e-3)
            F = svm_core.rbf_kernel_matrix(X, gamma) @ (alpha * y) + bias
            assert kkt_violations(F, y, alpha, 1.0, 1e-3) == 0, (a, b)
            assert abs(float(alpha @ y)) <= 1e-9
            pairs += 1
    assert pairs == 36


def test_svm_pairs_solved_together_match_pairs_solved_alone(monkeypatch):
    """One solver batch over padded pairs of unequal size, and one pair per
    batch (a one-byte stack budget), give bit-identical machines."""
    for seed in range(6):
        ds = toy(700 + seed, n=60, d=4, classes=4, integer=seed % 2 == 1)
        assert len(set(np.bincount(ds.y).tolist())) > 1
        together = svm_core.fit(ds.X, ds.y, C=2.0, gamma="auto", tol=1e-3)
        with monkeypatch.context() as m:
            m.setattr(svm_core, "_STACK_BYTES", 1)
            alone = svm_core.fit(ds.X, ds.y, C=2.0, gamma="auto", tol=1e-3)
        assert together.pairs.shape == alone.pairs.shape == (6, 2)
        for name in ("tags", "pairs", "bias", "counts", "alpha_y", "member",
                     "pool", "coef"):
            assert np.array_equal(getattr(together, name),
                                  getattr(alone, name)), name
        assert together.gamma == alone.gamma


def test_svm_separable_training_is_consistent():
    ds = toy(41, n=24, d=3, classes=3, spread=6.0)
    m = train_svm(ds, C=5.0)
    assert (predict(m, ds.X) == ds.y).mean() >= 0.95


def test_svm_votes_and_tags():
    ds = toy(43, n=30, d=3, classes=4, spread=6.0)
    m = train_svm(ds)
    _, scores, tags = predict_detail(m, ds.X[:6])
    assert scores.shape == (6, 4)
    assert np.all(scores.sum(axis=1) == 6)  # 4 classes -> 6 pair votes


@pytest.mark.parametrize("n,p,d", [(450, 300, 25), (1, 500, 100), (37, 9, 3)])
def test_svm_pair_decisions_match_the_kernel_formula(n, p, d):
    """Three machines on one pool of p rows: machine 0 keeps the even rows,
    machine 1 none and machine 2 every third row, so rows 0, 6, 12, ... are
    shared by two machines."""
    rng = np.random.default_rng(n + p + d)
    X, pool = rng.normal(size=(n, d)), rng.normal(size=(p, d))
    runs = [np.arange(0, p, 2), np.arange(0), np.arange(0, p, 3)]
    member = np.concatenate(runs)
    alpha_y, gamma = rng.normal(size=member.size), 1.0 / d
    bias = np.array([0.25, -0.5, 0.0])
    core = svm_core.SvmCore(np.array([0, 1, 2]),
                            np.array([[0, 1], [0, 2], [1, 2]]), bias,
                            np.array([run.size for run in runs]), alpha_y,
                            member, pool, gamma)
    own = np.split(alpha_y, np.cumsum(core.counts)[:-1])  # each machine's alpha_y
    coef = np.zeros((p, 3))
    for k, run in enumerate(runs):
        coef[run, k] = own[k]
    assert np.array_equal(core.coef, coef)
    d2 = np.maximum((X * X).sum(axis=1)[:, None] + (pool * pool).sum(axis=1)[None, :]
                    - 2.0 * (X @ pool.T), 0.0)
    F = svm_core._decisions(core, X)
    assert F.shape == (n, 3)
    # each machine is the kernel formula on its own support rows, up to
    # rounding; a machine of no rows decides by its bias alone
    for k, run in enumerate(runs):
        want = np.exp(-gamma * d2[:, run]) @ own[k] + bias[k]
        np.testing.assert_allclose(F[:, k], want, rtol=0,
                                   atol=1e-12 * (1 + np.abs(own[k]).sum()))
    assert (F[:, 1] == -0.5).all()


@functools.cache
def _svm_split(data):
    """(train, test): lab seed 1 (2 chips x 2 locations per class) or the
    default dataset, split 80/20 with seed 1, as `nvmsig sweep --seed 1`."""
    size = {"lab1": {"chips_per_class": 2, "locations_per_chip": 2},
            "default": {}}[data]
    return split(build_dataset(load_catalog(), seed=1, **size),
                 train_fraction=0.8, seed=1)


def _ranking(selector, train):
    if selector == "none":
        return None
    if selector == "mrmr":
        return mrmr_select(train, k=25)
    z = apply_standardizer(fit_standardizer(train.X), train.X)
    return nca_select(SimpleNamespace(X=z, y=train.y), k=25)


def _as_written(a):
    """`a` as its model file reads back: each value at 9 significant digits."""
    return np.array([float(fmt(v)) for v in a.ravel()]).reshape(a.shape)


@pytest.mark.parametrize("data,selector", [
    ("lab1", "none"), ("lab1", "mrmr"), ("lab1", "nca"), ("default", "mrmr")])
def test_svm_pool_holds_each_support_row_once(tmp_path, data, selector):
    train, test = _svm_split(data)
    model = train_svm(train, ranking=_ranking(selector, train))
    core = model.core
    assert len(np.unique(core.pool, axis=0)) == len(core.pool)
    assert np.unique(core.member).tolist() == list(range(len(core.pool)))
    # pool[member] is the support rows of each machine solved on its own
    Z = apply_standardizer(model.stats, train.X[:, model.indices])
    runs = np.split(np.arange(core.member.size), np.cumsum(core.counts)[:-1])
    for (a, b), run, bias in zip(core.pairs, runs, core.bias):
        mask = (train.y == a) | (train.y == b)
        y = np.where(train.y[mask] == a, 1.0, -1.0)
        alpha, alone = svm_core.smo_train(Z[mask], y, 1.0, core.gamma, 1e-3)
        assert np.array_equal(core.pool[core.member[run]], Z[mask][alpha > 0])
        assert np.array_equal(core.alpha_y[run], (alpha * y)[alpha > 0])
        assert alone == bias
    # one coefficient cell per support row
    assert np.count_nonzero(core.coef) == core.member.size
    path, again = tmp_path / "svm.model.txt", tmp_path / "again.model.txt"
    save_model(model, path)
    loaded = load_model(path)
    for name in ("member", "pool", "alpha_y", "coef"):
        got, want = getattr(loaded.core, name), getattr(core, name)
        if name != "member":
            want = _as_written(want)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert np.array_equal(got, want), name
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    # the loaded model votes as the one in memory, in a batch and probe by probe
    want = predict_detail(model, test.X)
    for m in (model, loaded):
        assert all(map(np.array_equal, predict_detail(m, test.X), want))
        for i in range(len(test.X)):
            pred, scores, _ = predict_detail(m, test.X[i:i + 1])
            assert pred[0] == want[0][i] and np.array_equal(scores[0], want[1][i])


def test_svm_training_is_deterministic(tmp_path):
    ds = toy(47, n=30, d=3, classes=3)
    a, b = train_svm(ds), train_svm(ds)
    save_model(a, tmp_path / "a.txt")
    save_model(b, tmp_path / "b.txt")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_svm_gamma_auto_value():
    X = np.random.default_rng(0).normal(size=(40, 5)) * 2.0
    g = svm_core.resolve_gamma(X, "auto")
    assert g == pytest.approx(1.0 / (5 * X.var(axis=0).mean()))
    with pytest.raises(ValidationError):
        svm_core.resolve_gamma(np.ones((4, 2)), "auto")


# ---------------- pipeline, persistence, evaluation ----------------

def test_predict_checks_arity():
    ds = toy(2, n=12, d=4)
    m = train_knn(ds, k=3)
    with pytest.raises(ValidationError):
        predict(m, np.ones((2, 5)))


def test_models_round_trip_through_text(tmp_path):
    ds = toy(19, n=30, d=4, classes=3)
    probes = np.random.default_rng(1).normal(size=(12, 4)) + ds.X[:12]
    for trainer, kw in ((train_knn, {"k": 3}),
                        (train_tree, {"max_depth": 4}),
                        (train_svm, {"seed": 1})):
        m = trainer(ds, **kw)
        path = tmp_path / f"{m.kind}.txt"
        save_model(m, path)
        back = load_model(path)
        assert np.array_equal(predict(back, probes), predict(m, probes))
        assert back.kind == m.kind and back.params == m.params
        # a second save of the loaded model reproduces the file byte for byte
        path2 = tmp_path / f"{m.kind}2.txt"
        save_model(back, path2)
        assert path.read_bytes() == path2.read_bytes()


def test_model_file_is_self_describing(tmp_path):
    ds = toy(7, n=14, d=3)
    m = train_knn(ds, k=3)
    save_model(m, tmp_path / "m.txt")
    text = (tmp_path / "m.txt").read_text()
    assert text.startswith("nvmsig-model 1\nkind knn\n")
    assert "\nparam k 5" not in text  # stored k is 3, not the default
    assert "\nparam k 3\n" in text
    assert text.rstrip().endswith("end")


def test_integer_params_are_written_and_read_exactly(tmp_path):
    """Beyond 9 digits a `%.9g` max_depth would read back rounded."""
    m = train_tree(toy(7, n=14, d=3), max_depth=12345678901)
    save_model(m, tmp_path / "m.txt")
    text = (tmp_path / "m.txt").read_text()
    assert "\nparam max_depth 12345678901\n" in text
    assert "\nparam min_leaf 1\n" in text
    assert load_model(tmp_path / "m.txt").params == {"max_depth": 12345678901,
                                                     "min_leaf": 1}


def test_model_parse_errors_carry_line_numbers(tmp_path):
    ds = toy(7, n=10, d=3)
    save_model(train_knn(ds, k=3), tmp_path / "m.txt")
    lines = (tmp_path / "m.txt").read_text().splitlines()
    bad = lines[:]
    bad[0] = "something else"
    (tmp_path / "bad0.txt").write_text("\n".join(bad) + "\n")
    with pytest.raises(ParseError, match="line 1"):
        load_model(tmp_path / "bad0.txt")
    bad = [ln for ln in lines if not ln.startswith("mean ")]
    (tmp_path / "bad1.txt").write_text("\n".join(bad) + "\n")
    with pytest.raises(ParseError):
        load_model(tmp_path / "bad1.txt")
    bad = lines[:-2]  # drop last row and 'end'
    (tmp_path / "bad2.txt").write_text("\n".join(bad) + "\n")
    with pytest.raises(ParseError):
        load_model(tmp_path / "bad2.txt")


def _set_field(line, pos, value):
    parts = line.split(" ")
    parts[pos] = value
    return " ".join(parts)


@pytest.mark.parametrize("kind,prefix,mutate", [
    ("svm", "arity ", lambda ln, n: "arity x"),
    ("svm", "kind ", lambda ln, n: "kind"),
    ("svm", "param C ", lambda ln, n: "param C"),
    ("svm", "machine ", lambda ln, n: "machine 0 1 x 0.1"),
    ("svm", "sv ", lambda ln, n: _set_field(ln, 1, "zz")),
    ("svm", "machine ", lambda ln, n: _set_field(ln, 3, str(10 ** 12))),
    ("svm", "machine ", lambda ln, n: _set_field(ln, 1, "99")),
    ("svm", "machine ", lambda ln, n: _set_field(ln, 2, ln.split()[1])),
    ("tree", "node 0 ", lambda ln, n: _set_field(ln, 5, str(n))),
    ("tree", "node 0 ", lambda ln, n: _set_field(ln, 4, "0")),
    ("tree", r"node \d+ -1 ", lambda ln, n: _set_field(ln, 6, "99")),
    ("tree", r"node \d+ -1 ", lambda ln, n: _set_field(ln, 6, "-1")),
    ("tree", "node 0 ", lambda ln, n: _set_field(ln, 7, "-1")),
    ("tree", "node 0 ", lambda ln, n: _set_field(ln, 2, "4")),  # width 4
    ("tree", "node 0 ", lambda ln, n: _set_field(ln, 6, "0")),
    ("tree", "core tree ", lambda ln, n: _set_field(ln, 2, "0")),
    ("tree", "node 1 ", lambda ln, n: _set_field(ln, 1, "77")),
    ("knn", "indices ", lambda ln, n: _set_field(ln, 4, "7")),  # arity 4
    ("knn", "indices ", lambda ln, n: _set_field(ln, 4, "-1")),
    ("knn", "indices ", lambda ln, n: _set_field(ln, 4, "0")),
    ("svm", "machine ", lambda ln, n: _set_field(ln, 4, "nan")),
    ("svm", "sv ", lambda ln, n: _set_field(ln, 1, "inf")),
    ("svm", "sv ", lambda ln, n: _set_field(ln, 3, "-inf")),
    ("svm", "param gamma ", lambda ln, n: "param gamma nan"),
    ("tree", "node 0 ", lambda ln, n: _set_field(ln, 3, "nan")),
    ("knn", "row ", lambda ln, n: _set_field(ln, 2, "inf")),
    ("knn", "param k ", lambda ln, n: "param k inf"),
    ("knn", "param k ", lambda ln, n: "param k 5.7"),
    ("knn", "mean ", lambda ln, n: _set_field(ln, 1, "nan")),
    ("knn", "std ", lambda ln, n: _set_field(ln, 2, "inf")),
    ("knn", "std ", lambda ln, n: _set_field(ln, 1, "-0.5")),
    ("svm", "tags ", lambda ln, n: "tags 1 0 2"),
    ("tree", "tags ", lambda ln, n: "tags 0 0 2"),
], ids=["arity", "bare-kind", "param-no-value", "machine-count", "sv-coeff",
        "sv-count-beyond-file", "machine-tag-not-in-model",
        "machine-tags-equal", "child-out-of-range", "child-not-after-parent",
        "leaf-tag-beyond-tags", "leaf-tag-negative", "count-negative",
        "feature-beyond-width", "split-with-leaf-tag", "no-nodes",
        "node-id-not-its-row",
        "index-beyond-arity", "index-negative", "index-repeated",
        "bias-nan", "sv-coeff-inf", "sv-value-inf", "param-nan",
        "threshold-nan", "knn-row-inf", "int-param-inf",
        "int-param-fraction", "mean-nan",
        "std-inf", "std-negative", "tags-unsorted", "tags-repeated"])
def test_malformed_model_field_is_parse_error_at_its_line(tmp_path, kind,
                                                          prefix, mutate):
    ds = toy(19, n=30, d=4, classes=3)
    trainer = {"knn": train_knn, "tree": train_tree, "svm": train_svm}[kind]
    save_model(trainer(ds), tmp_path / "m.txt")
    lines = (tmp_path / "m.txt").read_text().splitlines()
    n_nodes = len([ln for ln in lines if ln.startswith("node ")])
    i = next(k for k, ln in enumerate(lines) if re.match(prefix, ln))
    lines[i] = mutate(lines[i], n_nodes)
    (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"^line {i + 1}: "):
        load_model(tmp_path / "bad.txt")


def _keep_first_class(lines, at):
    """Only the first `class` line, and a `classes` count of 1."""
    n = int(lines[at].split()[1])
    return lines[:at] + ["classes 1", lines[at + 1]] + lines[at + 1 + n:]


def _renumber_last_class(lines, at):
    n = int(lines[at].split()[1])
    lines[at + n] = _set_field(lines[at + n], 1, lines[at + n].split()[1] + "0")
    return lines


@pytest.mark.parametrize("edit", [_keep_first_class, _renumber_last_class],
                         ids=["classes-dropped", "class-renumbered"])
@pytest.mark.parametrize("kind", KINDS)
def test_class_header_that_disagrees_with_the_core_is_parse_error(tmp_path,
                                                                  kind, edit):
    ds = toy(19, n=30, d=4, classes=3)
    save_model(train(kind, ds), tmp_path / "m.txt")
    lines = (tmp_path / "m.txt").read_text().splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("classes "))
    (tmp_path / "bad.txt").write_text("\n".join(edit(lines, at)) + "\n")
    with pytest.raises(ParseError, match=f"^line {at + 1}: .*core"):
        load_model(tmp_path / "bad.txt")


@pytest.mark.parametrize("kind", KINDS)
def test_hyper_parameters_are_declared_once(kind):
    """The core's PARAMS, which the model file's `param` block is read
    against, name the same keys as every other place that passes them on."""
    core = {"knn": knn_core, "tree": tree_core, "svm": svm_core}[kind]
    trainer = {"knn": train_knn, "tree": train_tree, "svm": train_svm}[kind]
    fit_keys = list(inspect.signature(core.fit).parameters)
    assert fit_keys[:2] == ["X", "y"]
    train_keys = set(inspect.signature(trainer).parameters) - {
        "train", "ranking", "selection_time_s", "seed"}
    cfg = cli.merge_config(argparse.Namespace(config=None))
    assert set(core.PARAMS) == set(fit_keys[2:]) == train_keys \
        == set(train(kind, toy(19, n=30, d=4)).params) \
        == set(cli._hyper(cfg, kind))


def test_knn_model_without_k_is_parse_error(tmp_path):
    ds = toy(19, n=30, d=4, classes=3)
    save_model(train_knn(ds, k=3), tmp_path / "m.txt")
    lines = (tmp_path / "m.txt").read_text().splitlines()
    (tmp_path / "bad.txt").write_text(
        "\n".join(ln for ln in lines if ln != "param k 3") + "\n")
    # one line fewer above it: the core line's 0-based index is its number
    core_line = next(i for i, ln in enumerate(lines) if ln.startswith("core "))
    with pytest.raises(ParseError, match=f"^line {core_line}: .* k param"):
        load_model(tmp_path / "bad.txt")


def test_class_names_round_trip_or_are_rejected_before_writing(tmp_path):
    ds = toy(7, n=10, d=3, classes=2)
    ds.class_names = {0: " lead  gap ", 1: "plain"}
    save_model(train_knn(ds, k=3), tmp_path / "m.txt")
    assert load_model(tmp_path / "m.txt").class_names == ds.class_names
    ds.class_names = {0: "two\nlines", 1: "plain"}
    model = train_knn(ds, k=3)
    with pytest.raises(ValidationError, match="line break"):
        save_model(model, tmp_path / "bad.txt")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.txt"]


def test_evaluate_identities():
    ds = toy(55, n=60, d=4, classes=3)
    tr = SimpleNamespace(X=ds.X[:45], y=ds.y[:45], class_names={})
    te = SimpleNamespace(X=ds.X[45:], y=ds.y[45:], class_names={})
    m = train_knn(tr, k=3)
    rep = evaluate(m, te)
    assert rep.confusion.sum() == rep.n_test == 15
    assert rep.accuracy == pytest.approx(
        np.trace(rep.confusion) / rep.confusion.sum())
    rows = rep.confusion.sum(axis=1)
    for i in range(len(rep.tags)):
        if rows[i] > 0:
            assert rep.tpr[i] == pytest.approx(rep.confusion[i, i] / rows[i])
            assert rep.fnr[i] == pytest.approx(1.0 - rep.tpr[i])
    assert rep.infer_time_s >= 0
    assert rep.infer_time_per_sample_s == pytest.approx(
        rep.infer_time_s / rep.n_test)


def test_evaluate_unseen_class_counts_as_errors():
    tr = SimpleNamespace(X=np.array([[0.0], [1.0], [10.0], [11.0]]),
                         y=np.array([0, 0, 1, 1]), class_names={})
    te = SimpleNamespace(X=np.array([[0.5], [20.0]]),
                         y=np.array([0, 5]), class_names={})
    rep = evaluate(train_knn(tr, k=1), te)
    assert 5 in rep.tags.tolist()
    i5 = rep.tags.tolist().index(5)
    assert rep.confusion[i5, i5] == 0
    assert rep.confusion[i5].sum() == 1
    assert rep.accuracy == 0.5


def test_report_text_and_csv_render():
    ds = toy(60, n=40, d=3, classes=3)
    m = train_tree(ds, max_depth=4)
    rep = evaluate(m, ds)
    text = rep.to_text()
    assert "accuracy:" in text and "confusion (rows = true):" in text
    csv = rep.to_csv()
    assert csv.startswith("# confusion\n")
    assert "\n# metrics\n" in csv
    assert f"\naccuracy,{rep.accuracy:.6f}\n" in csv


# ---------------- cross-validation ----------------

def test_fold_assignments_balanced_and_stratified():
    y = np.repeat([0, 1, 2], 16)
    fold_of = fold_assignments(y, 8, seed=0)
    sizes = np.bincount(fold_of, minlength=8)
    assert sizes.min() == sizes.max() == 6
    for tag in range(3):
        per = np.bincount(fold_of[y == tag], minlength=8)
        assert per.min() == 2 and per.max() == 2


def test_fold_assignments_match_the_per_row_round_robin():
    rng = np.random.default_rng(12)
    for _ in range(20):
        y = rng.integers(0, rng.integers(1, 6), size=rng.integers(2, 60))
        folds, seed = int(rng.integers(2, y.size + 1)), int(rng.integers(99))
        ref_rng, ref, cursor = np.random.default_rng(seed), np.empty_like(y), 0
        for tag in np.unique(y):
            rows = np.nonzero(y == tag)[0]
            for r in rows[ref_rng.permutation(rows.size)]:
                ref[r] = cursor % folds
                cursor += 1
        assert np.array_equal(fold_assignments(y, folds, seed), ref)


def test_cross_validate_loo_matches_manual_loop():
    ds = toy(66, n=14, d=3, classes=2)
    res = cross_validate("knn", ds, folds=14, seed=5, k=3)
    assert len(res.accuracies) == 14
    fold_of = fold_assignments(ds.y, 14, seed=5)
    manual = np.empty(14)
    for f in range(14):
        held = fold_of == f
        sub = SimpleNamespace(X=ds.X[~held], y=ds.y[~held], class_names={})
        m = train_knn(sub, k=3)
        manual[f] = float((predict(m, ds.X[held]) == ds.y[held]).mean())
    assert np.array_equal(res.accuracies, manual)
    assert res.mean_accuracy == pytest.approx(manual.mean())


def test_cross_validate_deterministic_and_validated():
    ds = toy(70, n=30, d=3, classes=3)
    a = cross_validate("tree", ds, folds=5, seed=2, max_depth=3)
    b = cross_validate("tree", ds, folds=5, seed=2, max_depth=3)
    assert np.array_equal(a.accuracies, b.accuracies)
    with pytest.raises(ValidationError):
        cross_validate("knn", ds, folds=1)
    with pytest.raises(ValidationError):
        cross_validate("knn", ds, folds=31)
    with pytest.raises(ValidationError):
        cross_validate("forest", ds, folds=5)


# ---------------- one dispatch for every kind ----------------

_CORE_OF = {"knn": knn_core, "tree": tree_core, "svm": svm_core}


@pytest.mark.parametrize("kind", KINDS)
def test_predict_detail_matches_predict_and_core_scores(kind):
    ds = toy(23, n=40, d=4, classes=4)
    m = train(kind, ds, **({"k": 4} if kind == "knn" else {}))
    probes = ds.X + np.random.default_rng(1).normal(scale=0.7, size=ds.X.shape)
    pred, scores, tags = predict_detail(m, probes)
    assert np.array_equal(tags, m.tags)
    assert np.array_equal(pred, predict(m, probes))
    Z = apply_standardizer(m.stats, probes[:, m.indices])
    assert np.array_equal(scores, _CORE_OF[kind].predict_scores(m.core, Z))


def test_predict_detail_knn_vote_tie_goes_to_nearest_member():
    ds = SimpleNamespace(X=np.array([[0.0], [1.0], [5.0], [5.5]]),
                         y=np.array([0, 0, 1, 1]), class_names={})
    pred, scores, _ = predict_detail(train_knn(ds, k=4), np.array([[4.4]]))
    assert pred.tolist() == [1]
    assert scores.tolist() == [[2.0, 2.0]]


def test_train_dispatches_by_kind_and_rejects_unknown():
    ds = toy(4, n=20)
    assert train("tree", ds, max_depth=2).params == {"max_depth": 2, "min_leaf": 1}
    with pytest.raises(ValidationError, match="forest"):
        train("forest", ds)


def test_save_model_leaves_an_open_reader_the_old_file(tmp_path):
    path = tmp_path / "m.txt"
    save_model(train_knn(toy(1), k=1), path)
    old = path.read_text(encoding="utf-8")
    with open(path, encoding="utf-8") as reader:
        save_model(train_knn(toy(2), k=3), path)
        assert reader.read() == old
    assert path.read_text(encoding="utf-8") != old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.txt"]

import hashlib
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvmsig import features
from nvmsig.chipsim import load_catalog
from nvmsig.errors import NumericError, ValidationError
from nvmsig.features import (
    apply_standardizer,
    bin_feature,
    fit_standardizer,
    mrmr_select,
    mutual_information,
    nca_gradient,
    nca_objective,
    nca_select,
)
from nvmsig.protocol import build_dataset, split


def bin_oracle(values, bins):
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0] * len(values)
    out = []
    for v in values:
        b = math.floor((v - lo) / (hi - lo) * bins)
        out.append(min(max(b, 0), bins - 1))
    return out


def mi_oracle(a_vals, b_vals):
    # dict-counting MI over two discrete sequences, scalar arithmetic only
    n = len(a_vals)
    ca, cb = Counter(a_vals), Counter(b_vals)
    cab = Counter(zip(a_vals, b_vals))
    s = 0.0
    for (av, bv), c in cab.items():
        s += (c / n) * math.log((c / n) / ((ca[av] / n) * (cb[bv] / n)))
    return s


def toy(seed, n=24, d=4, classes=3, informative=True):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, classes, size=n)
    X = rng.normal(size=(n, d))
    if informative:
        X[:, 0] += 2.5 * y
    return SimpleNamespace(X=X, y=y)


# ---------------- standardizer ----------------

def test_standardizer_zero_mean_unit_std():
    X = np.random.default_rng(0).normal(3.0, 2.0, size=(50, 5))
    stats = fit_standardizer(X)
    Z = apply_standardizer(stats, X)
    assert np.allclose(Z.mean(0), 0.0, atol=1e-12)
    assert np.allclose(Z.std(0), 1.0, atol=1e-12)


def test_standardizer_dead_feature_maps_to_zero():
    X = np.column_stack([np.arange(6.0), np.full(6, 4.2)])
    Z = apply_standardizer(fit_standardizer(X), X)
    assert np.all(Z[:, 1] == 0.0)


def test_standardizer_arity_mismatch():
    stats = fit_standardizer(np.ones((3, 2)))
    with pytest.raises(ValidationError):
        apply_standardizer(stats, np.ones((3, 5)))


# ---------------- binning and MI ----------------

@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=60),
       st.integers(1, 20))
def test_bin_feature_matches_oracle(values, bins):
    got = bin_feature(np.array(values), bins)
    assert got.tolist() == bin_oracle(values, bins)


@pytest.mark.parametrize("bins", [2 ** 63 - 1, 2 ** 62, 2 ** 53 + 1])
def test_bin_count_beyond_2_53_is_refused(bins):
    with pytest.raises(ValidationError, match="bins"):
        bin_feature(np.array([0.0, 0.5, 1.0]), bins)


def test_bin_count_2_53_keeps_the_top_value_in_the_top_bin():
    got = bin_feature(np.array([0.0, 0.5, 1.0]), 2 ** 53)
    assert got.tolist() == [0, 2 ** 52, 2 ** 53 - 1]


def test_mi_matches_bruteforce_on_50_instances():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(5, 80))
        f = rng.normal(size=n) * rng.uniform(0.1, 50)
        y = rng.integers(0, int(rng.integers(2, 5)), size=n)
        got = mutual_information(f, y, bins=16)
        want = mi_oracle(bin_oracle(f.tolist(), 16), y.tolist())
        assert got == pytest.approx(want, abs=1e-12)


def test_mi_symmetry():
    rng = np.random.default_rng(7)
    a = rng.integers(0, 4, size=200)
    b = rng.integers(0, 3, size=200)
    # integer-valued inputs with bins >= value count make binning an identity
    assert mutual_information(a.astype(float), b, bins=4) == pytest.approx(
        mutual_information(b.astype(float), a, bins=3), abs=1e-12)


def test_mi_bounded_by_entropies():
    rng = np.random.default_rng(1)
    for _ in range(20):
        f = rng.normal(size=100)
        y = rng.integers(0, 3, size=100)
        mi = mutual_information(f, y)
        hy = mi_oracle(y.tolist(), y.tolist())
        hf = mi_oracle(bin_oracle(f.tolist(), 16), bin_oracle(f.tolist(), 16))
        assert mi <= min(hf, hy) + 1e-12
        assert mi >= -1e-12


def test_mi_deterministic_relation_equals_entropy():
    y = np.repeat([0, 1, 2], 30)
    f = y.astype(float)
    assert mutual_information(f, y, bins=3) == pytest.approx(
        mi_oracle(y.tolist(), y.tolist()), abs=1e-12)


def test_mi_counts_only_occupied_bins():
    """10**12 bins would be a joint table of 10**12 rows per label."""
    rng = np.random.default_rng(12)
    f = rng.normal(size=300)
    y = rng.integers(0, 4, size=300)
    bf = bin_feature(f, 10 ** 12)
    assert np.unique(bf).size == 300
    n = f.size
    pairs, c_joint = np.unique(np.column_stack([bf, y]), axis=0,
                               return_counts=True)
    c_f = dict(zip(*(a.tolist() for a in np.unique(bf, return_counts=True))))
    c_y = dict(zip(*(a.tolist() for a in np.unique(y, return_counts=True))))
    want = sum(c / n * math.log(c * n / (c_f[a] * c_y[b]))
               for (a, b), c in zip(pairs.tolist(), c_joint.tolist()))
    assert mutual_information(f, y, bins=10 ** 12) == pytest.approx(
        want, abs=1e-12)
    ranking = mrmr_select(toy(5, n=60, d=4), k=2, bins=10 ** 12)
    assert ranking.indices.size == 2


def test_mi_constant_feature_is_zero():
    assert mutual_information(np.full(40, 3.3), np.arange(40) % 2) == 0.0


# ---------------- mrmr ----------------

def mrmr_oracle(X, y, k, bins):
    d = X.shape[1]
    cols = [bin_oracle(X[:, j].tolist(), bins) for j in range(d)]
    rel = [mi_oracle(cols[j], y.tolist()) for j in range(d)]
    chosen = []
    while len(chosen) < k:
        best, best_score = None, None
        for j in range(d):
            if j in chosen:
                continue
            red = sum(mi_oracle(cols[j], cols[s]) for s in chosen)
            score = rel[j] - (red / len(chosen) if chosen else 0.0)
            if best is None or score > best_score + 1e-15:
                best, best_score = j, score
        chosen.append(best)
    return chosen


def test_mrmr_matches_greedy_oracle():
    rng = np.random.default_rng(3)
    for seed in range(8):
        ds = toy(seed, n=40, d=6)
        ds.X[:, 3] = ds.X[:, 0] + 0.01 * rng.normal(size=40)  # redundant copy
        got = mrmr_select(ds, k=6).indices.tolist()
        assert got == mrmr_oracle(ds.X, ds.y, 6, 16)


def test_mrmr_prefix_consistency():
    ds = toy(5, n=60, d=8)
    full = mrmr_select(ds, k=8).indices.tolist()
    for k in range(1, 9):
        assert mrmr_select(ds, k=k).indices.tolist() == full[:k]


def test_mrmr_tie_prefers_lowest_index():
    y = np.repeat([0, 1], 20)
    col = np.concatenate([np.zeros(20), np.ones(20)])
    X = np.column_stack([col, col, col])
    got = mrmr_select(SimpleNamespace(X=X, y=y), k=1).indices
    assert got.tolist() == [0]


def test_mrmr_k_bounds():
    ds = toy(0, d=4)
    with pytest.raises(ValidationError):
        mrmr_select(ds, k=5)
    with pytest.raises(ValidationError):
        mrmr_select(ds, k=0)


# ------- mrmr and MI against one joint table per feature and per call -------

def mi_table_reference(feature, labels, bins):
    """MI from this feature's own joint table of occupied bins x labels."""
    _, bf = np.unique(bin_feature(feature, bins), return_inverse=True)
    _, li = np.unique(labels, return_inverse=True)
    n_l = int(li.max()) + 1
    bins = int(bf.max()) + 1
    joint = np.bincount(bf * n_l + li, minlength=bins * n_l)
    joint = joint.reshape(bins, n_l) / bf.size
    px, py = joint.sum(axis=1), joint.sum(axis=0)
    nz = joint > 0
    return float(np.sum(joint[nz] * np.log(joint[nz] / np.outer(px, py)[nz])))


def test_mi_matches_one_table_formula_bit_for_bit():
    rng = np.random.default_rng(77)
    for trial in range(120):
        n = int(rng.integers(1, 70))
        y = rng.integers(0, int(rng.integers(1, 10)), size=n)  # may be 1 label
        f = (rng.normal(size=n) if trial % 3
             else rng.integers(0, 4, size=n).astype(float))
        if trial % 7 == 0:
            f[:] = 2.0
        for bins in (1, 3, 16, 10 ** 12):
            assert mutual_information(f, y, bins) == \
                mi_table_reference(f, y, bins), (trial, bins)


def mrmr_reference(X, y, k, bins):
    """mRMR indices and scores from one mutual_information call per feature
    and per (remaining feature, pick)."""
    d = X.shape[1]
    binned = [bin_feature(X[:, j], bins) for j in range(d)]
    relevance = np.array([mutual_information(X[:, j], y, bins)
                          for j in range(d)])
    chosen, scores = [], []
    redundancy_sum = np.zeros(d)
    for _ in range(k):
        score = (relevance - redundancy_sum / len(chosen) if chosen
                 else relevance.copy())
        score[chosen] = -np.inf
        best = int(np.argmax(score))
        chosen.append(best)
        scores.append(score[best])
        for j in range(d):
            if j not in chosen:
                redundancy_sum[j] += mutual_information(X[:, j], binned[best],
                                                        bins)
    return np.array(chosen), np.array(scores)


@pytest.fixture(scope="module")
def lab1_train():
    """The lab-seed-1 training split (nvmsig dataset --seed 1
    --chips-per-class 2 --locations-per-chip 2 --split)."""
    ds = build_dataset(load_catalog(), chips_per_class=2,
                       locations_per_chip=2, seed=1)
    train = split(ds, seed=1)[0]
    assert train.X.shape == (198, 100)
    return train


@pytest.mark.parametrize("bins", [1, 16])
def test_mrmr_matches_mutual_information_loop_on_lab_seed_1(lab1_train, bins):
    got = mrmr_select(lab1_train, k=25, bins=bins)
    indices, scores = mrmr_reference(lab1_train.X, lab1_train.y, 25, bins)
    assert np.array_equal(got.indices, indices)
    assert np.array_equal(got.scores, scores)


# sha256 of the int64 indices then the float64 scores of mrmr_select(k=25),
# as computed while a joint table had a row per bin whenever bins x labels
# fitted in the row count: the lab-seed-1 train split at 16 bins had such
# tables, at 64 bins (64 x 9 > 198 rows) tables of occupied bins only
_MRMR_SHA256 = {
    ("lab1", 16): "fb2a3d1d670e0a27068bb0152ac93391bdba15304f2781bcff608f7ded42c2f6",
    ("lab1", 64): "940896806ba8b1da2537c8d7948a4589bc2f83e458d0d9f65b9e78c4de052c2d",
    ("default", 16): "3ab03cbb2f4ef1df5aa77d243b193729ef878ced43ef811d8e585d97a7d48ad3",
}


@pytest.mark.parametrize("data,bins", list(_MRMR_SHA256))
def test_mrmr_bits_are_pinned(lab1_train, data, bins):
    train = (lab1_train if data == "lab1" else
             split(build_dataset(load_catalog(), seed=1), seed=1)[0])
    got = mrmr_select(train, k=25, bins=bins)
    assert hashlib.sha256(got.indices.tobytes() + got.scores.tobytes()
                          ).hexdigest() == _MRMR_SHA256[data, bins]


# sha256 of the int64 indices then the float64 scores of nca_select(k=25)
# with one BLAS thread, as computed while every gradient step built the
# n x n same-label mask: the lab-seed-1 train split standardised as
# `nvmsig sweep` does it, and the same rows shuffled
_NCA_SHA256 = {
    "lab1": "c2df3cf9a8faf81f9e2ab26a005c58ff9e8fcf2dc6d4b9c36af07c5cce2e61bb",
    "lab1-shuffled": "5463fb0427bfdcc1ec997d7bf5afed2eaec7fd59061d9ffa8ec5c3a18a9d4764",
}
_NCA_DIGESTS = """
import hashlib
from types import SimpleNamespace
import numpy as np
from nvmsig.chipsim import load_catalog
from nvmsig.features import apply_standardizer, fit_standardizer, nca_select
from nvmsig.protocol import build_dataset, split
train = split(build_dataset(load_catalog(), chips_per_class=2,
                            locations_per_chip=2, seed=1), seed=1)[0]
z = apply_standardizer(fit_standardizer(train.X), train.X)
shuffle = np.random.default_rng(0).permutation(train.y.size)
for name, rows in (("lab1", slice(None)), ("lab1-shuffled", shuffle)):
    got = nca_select(SimpleNamespace(X=z[rows], y=train.y[rows]), k=25)
    print(name, hashlib.sha256(got.indices.tobytes()
                               + got.scores.tobytes()).hexdigest())
"""


@pytest.fixture(scope="module")
def nca_digests():
    """The `_NCA_SHA256` digests of this build, from a child interpreter
    with one BLAS thread: the gradient's matrix products round differently
    on two."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _NCA_DIGESTS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return dict(line.split() for line in done.stdout.splitlines())


@pytest.mark.parametrize("data", list(_NCA_SHA256))
def test_nca_bits_are_pinned(nca_digests, data):
    assert nca_digests[data] == _NCA_SHA256[data]


@pytest.mark.parametrize("cells", [1 << 15, 1])
def test_mrmr_matches_mutual_information_loop_beyond_row_count(cells,
                                                               monkeypatch):
    """10**12 bins gives every feature a table of occupied bins only; at a
    cap of 1 cell each table block holds one feature."""
    monkeypatch.setattr(features, "_JOINT_CELLS", cells)
    for seed in range(4):
        ds = toy(seed, n=60, d=5)
        ds.X[:, 2] = 1.0  # once picked, redundancy is against a single label
        got = mrmr_select(ds, k=5, bins=10 ** 12)
        indices, scores = mrmr_reference(ds.X, ds.y, 5, 10 ** 12)
        assert np.array_equal(got.indices, indices)
        assert np.array_equal(got.scores, scores)


# ---------------- nca ----------------

@pytest.mark.parametrize("seed", range(10))
def test_nca_gradient_matches_central_differences(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(8, 20)), int(rng.integers(2, 5))
    X = rng.normal(size=(n, d))
    y = rng.integers(0, 2, size=n)
    if len(np.unique(y)) < 2:
        y[0], y[1] = 0, 1
    w = rng.uniform(0.5, 1.5, size=d)
    g = nca_gradient(w, X, y)
    h = 1e-6
    fd = np.empty(d)
    for m in range(d):
        wp, wm = w.copy(), w.copy()
        wp[m] += h
        wm[m] -= h
        fd[m] = (nca_objective(wp, X, y) - nca_objective(wm, X, y)) / (2 * h)
    assert np.allclose(g, fd, rtol=1e-5, atol=1e-8)


def nca_oracle(w, X, y):
    """(objective, gradient) with p_ij built row by row and the gradient
    summed over an explicit n x n x d array of squared differences."""
    n = len(y)
    diff2 = (X[:, None, :] - X[None, :, :]) ** 2
    d2 = (diff2 * w ** 2).sum(axis=2)
    p = np.zeros((n, n))
    for i in range(n):
        others = np.arange(n) != i
        e = np.exp(d2[i, others].min() - d2[i, others])
        p[i, others] = e / e.sum()
    same = y[:, None] == y[None, :]
    p_i = (p * same).sum(axis=1)
    M = p_i[:, None] * p - same * p
    grad = (2.0 * w / n) * (M[:, :, None] * diff2).sum(axis=(0, 1))
    return p_i.mean(), grad


@pytest.mark.parametrize("seed", range(8))
def test_nca_matches_brute_force_reference(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(7, 16)), int(rng.integers(2, 5))
    tags = rng.choice([2, 5, 9, 40, 77], size=int(rng.integers(3, 5)),
                      replace=False)
    # the first tag labels a single row; the rest cover the others, shuffled
    y = np.concatenate([tags[:1], tags[1:], rng.choice(tags[1:], n - len(tags))])
    y = rng.permutation(y)
    X = rng.normal(size=(n, d))
    w = rng.uniform(0.3, 1.7, size=d)
    objective, grad = nca_oracle(w, X, y)
    assert abs(nca_objective(w, X, y) - objective) <= 1e-12 * abs(objective)
    assert (np.max(np.abs(nca_gradient(w, X, y) - grad))
            <= 1e-12 * np.max(np.abs(grad)))


@pytest.mark.parametrize("seed", range(8))
def test_nca_matches_brute_force_reference_on_class_runs(seed):
    """The labels of the test above, sorted, so each class is one run."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(7, 16)), int(rng.integers(2, 5))
    tags = rng.choice([2, 5, 9, 40, 77], size=int(rng.integers(3, 5)),
                      replace=False)
    y = np.sort(np.concatenate(
        [tags[:1], tags[1:], rng.choice(tags[1:], n - len(tags))]))
    assert features._class_runs(y) is not None
    X = rng.normal(size=(n, d))
    w = rng.uniform(0.3, 1.7, size=d)
    objective, grad = nca_oracle(w, X, y)
    assert abs(nca_objective(w, X, y) - objective) <= 1e-12 * abs(objective)
    assert (np.max(np.abs(nca_gradient(w, X, y) - grad))
            <= 1e-12 * np.max(np.abs(grad)))


def assert_block_path_equals_mask_path(w, X, y, monkeypatch):
    assert features._class_runs(y) is not None
    objective, grad = features._nca(w, X, y)
    with monkeypatch.context() as m:
        m.setattr(features, "_class_runs", lambda y: None)
        mask_objective, mask_grad = features._nca(w, X, y)
    assert objective == mask_objective
    assert np.array_equal(grad, mask_grad)


@pytest.mark.parametrize("w", ["ones", "random"])
def test_nca_block_path_equals_mask_path_on_lab_seed_1(lab1_train, w,
                                                       monkeypatch):
    z = apply_standardizer(fit_standardizer(lab1_train.X), lab1_train.X)
    d = z.shape[1]
    w = (np.ones(d) if w == "ones"
         else np.random.default_rng(3).uniform(0.3, 1.7, size=d))
    assert_block_path_equals_mask_path(w, z, lab1_train.y, monkeypatch)


@pytest.mark.parametrize("seed", range(6))
def test_nca_block_path_equals_mask_path_with_a_single_row_class(seed,
                                                                 monkeypatch):
    rng = np.random.default_rng(seed)
    y = np.repeat([1, 4, 6], [1, int(rng.integers(2, 9)),
                              int(rng.integers(2, 9))])
    X = rng.normal(size=(y.size, 3))
    assert_block_path_equals_mask_path(rng.uniform(0.3, 1.7, size=3), X, y,
                                       monkeypatch)


def test_nca_block_path_equals_mask_path_past_a_pairwise_sum_block(
        monkeypatch):
    """numpy sums a row in pairwise blocks of 128: runs of 150 and 130 rows
    cross one."""
    rng = np.random.default_rng(4)
    y = np.repeat([0, 1, 2], [150, 130, 20])
    X = rng.normal(size=(y.size, 4))
    X[:, 0] += y
    assert_block_path_equals_mask_path(rng.uniform(0.3, 1.7, size=4), X, y,
                                       monkeypatch)


def test_nca_block_path_equals_mask_path_on_unsorted_run_tags(monkeypatch):
    rng = np.random.default_rng(5)
    y = np.repeat([5, 2, 9], [4, 6, 5])
    X = rng.normal(size=(y.size, 3))
    assert_block_path_equals_mask_path(rng.uniform(0.3, 1.7, size=3), X, y,
                                       monkeypatch)


def test_nca_block_path_equals_mask_path_past_the_subnormal_cut(monkeypatch):
    """Row 0 has two neighbours at squared distance 1, so its softmax sum
    is about 2; the point at 26.63 gets a logit of about -708.1, an exp
    just above tiny and a probability just below it, and the points at 40
    and 41 get logits far below log(tiny)."""
    X = np.array([[0.0], [1.0], [-1.0], [26.63], [40.0], [41.0]])
    y = np.array([0, 0, 0, 1, 1, 2])
    w = np.ones(1)
    d2 = (X - X.T) ** 2
    np.fill_diagonal(d2, np.inf)
    logits = d2.min(axis=1, keepdims=True) - d2
    tiny = np.finfo(np.float64).tiny
    assert np.any(logits < np.log(tiny))
    with np.errstate(under="ignore"):
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
    assert np.any((0 < p) & (p < tiny))
    assert_block_path_equals_mask_path(w, X, y, monkeypatch)


@pytest.mark.parametrize("y", [[1, 1, 2, 2, 1], [3, 4, 3], [0, 1, 0, 1]])
def test_nca_labels_with_a_class_in_two_runs_take_the_mask_path(y):
    assert features._class_runs(np.array(y)) is None


def test_nca_class_runs_are_the_row_bounds_of_each_class():
    assert features._class_runs(np.array([5, 5, 2, 9, 9, 9])) == [
        (0, 2), (2, 3), (3, 6)]


@pytest.mark.parametrize("name,value", [("k", 2.0), ("k", True),
                                        ("iters", 2.5), ("iters", True)])
def test_nca_refuses_a_count_that_is_not_an_integer(name, value):
    with pytest.raises(ValidationError, match=f"{name} must be an integer"):
        nca_select(toy(2, n=20, d=3), **{"k": 2, "iters": 5, name: value})


@pytest.mark.parametrize("lr", ["0.1", True])
def test_nca_refuses_a_learning_rate_that_is_not_a_real(lr):
    with pytest.raises(ValidationError, match="learning_rate"):
        nca_select(toy(2, n=20, d=3), k=2, iters=5, learning_rate=lr)


@pytest.mark.parametrize("name,value", [("k", 2.0), ("k", True),
                                        ("bins", 2.5), ("bins", True)])
def test_mrmr_refuses_a_count_that_is_not_an_integer(name, value):
    with pytest.raises(ValidationError, match=f"{name} must be an integer"):
        mrmr_select(toy(2, n=20, d=3), **{"k": 2, name: value})


def test_nca_objective_nondecreasing_small_lr():
    for seed in range(4):
        ds = toy(seed, n=30, d=3)
        w = np.ones(3)
        prev = nca_objective(w, ds.X, ds.y)
        for _ in range(50):
            w = w + 1e-3 * nca_gradient(w, ds.X, ds.y)
            cur = nca_objective(w, ds.X, ds.y)
            assert cur >= prev - 1e-12
            prev = cur


def test_nca_ranks_informative_feature_first():
    ds = toy(11, n=45, d=5)
    ds.X = apply_standardizer(fit_standardizer(ds.X), ds.X)
    ranking = nca_select(ds, k=5, iters=150, learning_rate=0.05)
    assert ranking.indices[0] == 0
    assert ranking.method == "nca"
    assert np.all(np.diff(ranking.scores) <= 1e-12)


def test_nca_needs_two_classes():
    ds = SimpleNamespace(X=np.random.default_rng(0).normal(size=(10, 3)),
                         y=np.zeros(10, dtype=int))
    with pytest.raises(ValidationError):
        nca_select(ds, k=2)
    with pytest.raises(ValidationError):
        mrmr_select(ds, k=2)


@pytest.mark.parametrize("lr", [math.nan, math.inf])
def test_nca_refuses_a_learning_rate_that_is_not_finite(lr):
    with pytest.raises(ValidationError, match="learning_rate"):
        nca_select(toy(2, n=20, d=3), k=2, iters=5, learning_rate=lr)


def test_nca_nonfinite_gradient_aborts():
    ds = toy(2, n=20, d=3)
    with pytest.raises(NumericError, match="iteration"):
        nca_select(ds, k=2, iters=5, learning_rate=1e200)


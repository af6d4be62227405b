"""Release gate: one verdict line per criterion at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The heavyweight fixtures (default dataset, selector rankings) are shared
across criteria, so the whole gate stays well under the runtime budget.
"""

import filecmp
import time
from types import SimpleNamespace

import numpy as np
import pytest
from test_classifiers import (
    gini_root_oracle,
    grid_dual_max,
    kkt_violations,
    knn_oracle,
    six_point_problem,
    toy,
)
from test_features import bin_oracle, mi_oracle

from nvmsig import cli
from nvmsig.chipsim import (
    cycle_location,
    full_chip_scan,
    latency_block,
    load_catalog,
    mean_latency_curve,
    new_chip,
)
from nvmsig.classifiers import evaluate, predict, train_knn, train_svm, train_tree
from nvmsig.classifiers import knn as knn_core
from nvmsig.classifiers import svm as svm_core
from nvmsig.classifiers import tree as tree_core
from nvmsig.detector import (
    RecycledVerdict,
    baseline_from_catalog,
    detect_recycled,
    locate_used_regions,
)
from nvmsig.features import (
    apply_standardizer,
    fit_standardizer,
    mrmr_select,
    mutual_information,
    nca_gradient,
    nca_objective,
    nca_select,
)
from nvmsig.protocol import Side, build_dataset, latency_stats, split

CATALOG = load_catalog()
SPEC = {s.class_tag: s for s in CATALOG}


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def pipeline():
    """Default catalog, seed 1, 80/20 split, knn on all 100 features."""
    t0 = time.perf_counter()
    ds = build_dataset(CATALOG, seed=1)
    train, test = split(ds, train_fraction=0.8, seed=1)
    model = train_knn(train)
    report = evaluate(model, test)
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(ds=ds, train=train, test=test, model=model,
                           report=report, elapsed=elapsed)


@pytest.fixture(scope="module")
def rankings(pipeline):
    train = pipeline.train
    mrmr = mrmr_select(train, k=25)
    stats = fit_standardizer(train.X)
    z = apply_standardizer(stats, train.X)
    nca = nca_select(SimpleNamespace(X=z, y=train.y, class_names={}), k=25)
    return {"mrmr": mrmr, "nca": nca}


# --------------------------------------------------------------- criterion 1

def test_criterion_1_pipeline_accuracy(pipeline):
    acc = pipeline.report.accuracy
    ok = 0.90 <= acc < 1.00 and pipeline.elapsed < 300.0
    _verdict(1, ok, f"knn all-features test accuracy {acc:.4f} in "
             f"[0.90, 1.00); generate+train+eval took {pipeline.elapsed:.1f}s "
             f"(budget 300s)")


# --------------------------------------------------------------- criterion 2

_TRAIN_REPS = {"knn": 3, "tree": 3, "svm": 2}
_INFER_REPS = {"knn": 5, "tree": 5, "svm": 3}
_TRAINERS = {
    "knn": lambda ds, r: train_knn(ds, ranking=r),
    "tree": lambda ds, r: train_tree(ds, ranking=r),
    "svm": lambda ds, r: train_svm(ds, ranking=r),
}


def _timed_train(kind, train, ranking):
    best, model = np.inf, None
    for _ in range(_TRAIN_REPS[kind]):
        t0 = time.perf_counter()
        model = _TRAINERS[kind](train, ranking)
        best = min(best, time.perf_counter() - t0)
    return model, best


def _timed_infer(kind, model, X):
    best = np.inf
    for _ in range(_INFER_REPS[kind]):
        t0 = time.perf_counter()
        predict(model, X)
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_2_selector_speedup(pipeline, rankings):
    train, test = pipeline.train, pipeline.test
    ok, details = True, []
    for kind in ("knn", "tree", "svm"):
        base, base_train = _timed_train(kind, train, None)
        base_infer = _timed_infer(kind, base, test.X)
        base_acc = float((predict(base, test.X) == test.y).mean())
        for sel in ("mrmr", "nca"):
            model, t_train = _timed_train(kind, train, rankings[sel])
            t_infer = _timed_infer(kind, model, test.X)
            acc = float((predict(model, test.X) == test.y).mean())
            good = (t_train < base_train and t_infer < base_infer
                    and acc >= base_acc - 0.06)
            ok = ok and good
            details.append(
                f"{kind}/{sel} train {base_train * 1e3:.1f}->{t_train * 1e3:.1f}ms "
                f"infer {base_infer * 1e3:.2f}->{t_infer * 1e3:.2f}ms "
                f"acc {base_acc:.4f}->{acc:.4f}" + ("" if good else " BAD"))
    _verdict(2, ok, "; ".join(details))


# --------------------------------------------------------------- criterion 3

def test_criterion_3_classifier_oracles():
    rng = np.random.default_rng(303)
    knn_cases = 0
    for _ in range(100):
        n = int(rng.integers(5, 30))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, n + 1))
        ds = toy(int(rng.integers(1 << 30)), n=n, d=d,
                 classes=int(rng.integers(2, 5)),
                 integer=bool(rng.random() < 0.5))
        core = knn_core.fit(ds.X, ds.y, k)
        probes = rng.normal(size=(6, d)) if rng.random() < 0.5 \
            else rng.integers(0, 8, size=(6, d)).astype(float)
        got = knn_core.predict(core, probes).tolist()
        want = [knn_oracle(ds.X, ds.y, p, k) for p in probes]
        assert got == want
        knn_cases += 1

    tree_cases = 0
    for _ in range(100):
        n = int(rng.integers(4, 30))
        d = int(rng.integers(1, 6))
        ds = toy(int(rng.integers(1 << 30)), n=n, d=d,
                 classes=int(rng.integers(2, 4)),
                 integer=bool(rng.random() < 0.5))
        yd = np.searchsorted(np.unique(ds.y), ds.y)
        got = tree_core.best_split(ds.X, yd, int(yd.max()) + 1, 1)
        want = gini_root_oracle(ds.X, ds.y)
        assert got == want
        tree_cases += 1

    svm_cases = 0
    for seed in range(20):
        X, y = six_point_problem(seed)
        gamma = svm_core.resolve_gamma(X, "auto")
        K = svm_core.rbf_kernel_matrix(X, gamma)
        alpha, bias = svm_core.smo_train(X, y, 1.0, gamma, 1e-4)
        assert abs(float(alpha @ y)) <= 1e-9
        w_smo = svm_core.dual_objective(alpha, y, K)
        assert w_smo == pytest.approx(grid_dual_max(K, y, 1.0), abs=1e-3)
        F = K @ (alpha * y) + bias
        assert kkt_violations(F, y, alpha, 1.0, 1e-4) == 0
        svm_cases += 1

    _verdict(3, True, f"knn oracle exact on {knn_cases} toys; tree root "
             f"split exact on {tree_cases} toys; svm dual within 1e-3 of "
             f"grid with zero KKT violations on {svm_cases} six-point "
             f"problems")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_feature_selection():
    rng = np.random.default_rng(404)
    worst_mi = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 60))
        a = rng.normal(size=n)
        b = (a * rng.uniform(0.2, 2.0) + rng.normal(size=n)
             * rng.uniform(0.0, 1.0))
        labels = rng.integers(0, int(rng.integers(2, 5)), size=n)
        bins = int(rng.integers(2, 12))
        got = mutual_information(a, labels, bins=bins)
        want = mi_oracle(bin_oracle(a, bins), labels)
        worst_mi = max(worst_mi, abs(got - want))
        got_bb = mutual_information(b, labels, bins=bins)
        want_bb = mi_oracle(bin_oracle(b, bins), labels)
        worst_mi = max(worst_mi, abs(got_bb - want_bb))
    assert worst_mi <= 1e-12

    prefix_sets = 0
    for seed in range(10):
        ds = toy(seed + 100, n=30, d=6, classes=3)
        full = mrmr_select(ds, k=6).indices.tolist()
        for k in range(1, 7):
            assert mrmr_select(ds, k=k).indices.tolist() == full[:k]
        prefix_sets += 1

    worst_rel = 0.0
    for seed in range(10):
        r = np.random.default_rng(seed + 4000)
        n, d = int(r.integers(8, 20)), int(r.integers(2, 5))
        X = r.normal(size=(n, d))
        y = r.integers(0, 2, size=n)
        if len(np.unique(y)) < 2:
            y[0], y[1] = 0, 1
        w = np.ones(d)
        g = nca_gradient(w, X, y)
        h = 1e-6
        for m in range(d):
            wp, wm = w.copy(), w.copy()
            wp[m] += h
            wm[m] -= h
            fd = (nca_objective(wp, X, y) - nca_objective(wm, X, y)) / (2 * h)
            worst_rel = max(worst_rel,
                            abs(g[m] - fd) / max(abs(fd), 1e-8))
    ok = worst_rel <= 1e-5
    _verdict(4, ok, f"mutual information within {worst_mi:.1e} of oracle on "
             f"50 instances (tol 1e-12); mrmr prefix-consistent for all k on "
             f"{prefix_sets} sets; nca gradient within {worst_rel:.1e} "
             f"relative of central differences at initialization (tol 1e-5)")


# --------------------------------------------------------------- criterion 5

_SPOT_CYCLES = (1000, 5000, 10_000, 20_000, 30_000, 50_000)


def test_criterion_5_used_location_detection():
    qualifying = found = 0
    false_regions = total_regions = 0
    for i in range(20):
        spec = SPEC[i % 9]
        rng = np.random.default_rng(500 + i)
        addrs = rng.choice(spec.num_locations, size=6, replace=False)
        chip = new_chip(spec, 77_000 + i)
        plan = {int(a): c for a, c in zip(addrs, _SPOT_CYCLES)}
        for addr, cycles in plan.items():
            cycle_location(chip, addr, cycles)
        regions = locate_used_regions(full_chip_scan(chip), flag_ratio=1.5)
        total_regions += len(regions)
        curve0 = mean_latency_curve(spec, [0])[0]
        hot = {a for a, c in plan.items()
               if mean_latency_curve(spec, [c])[0] / curve0 >= 1.5}
        qualifying += len(hot)
        covered = set()
        for r in regions:
            inside = [a for a in plan if r.start_addr <= a <= r.end_addr]
            if not inside:
                false_regions += 1
            covered.update(a for a in inside if a in hot)
        found += len(covered)
    recall = found / qualifying
    ok = false_regions == 0 and recall >= 0.9
    _verdict(5, ok, f"20 chips x 6 seeded spots: precision "
             f"{(total_regions - false_regions)}/{total_regions} regions "
             f"genuine (need all), recall {found}/{qualifying} = "
             f"{recall:.3f} on spots with true elevation >= 1.5x (need 0.9)")


# --------------------------------------------------------------- criterion 6

def test_criterion_6_recycled_detection():
    baseline = baseline_from_catalog(CATALOG)
    fresh_hits = 0
    for i in range(500):
        tag = i % 9
        chip = new_chip(SPEC[tag], 60_000 + i)
        probe = latency_block(chip, i % SPEC[tag].num_locations, 100)
        verdict, _ = detect_recycled(probe, tag, baseline)
        fresh_hits += verdict is RecycledVerdict.FRESH
    used_hits = 0
    precycles = (10_000, 15_000, 30_000, 50_000)
    for i in range(500):
        tag = i % 9
        chip = new_chip(SPEC[tag], 61_000 + i)
        addr = i % SPEC[tag].num_locations
        cycle_location(chip, addr, precycles[i % 4])
        verdict, _ = detect_recycled(latency_block(chip, addr, 100),
                                     tag, baseline)
        used_hits += verdict is RecycledVerdict.USED
    ok = fresh_hits >= 490 and used_hits >= 475
    _verdict(6, ok, f"fresh probes FRESH in {fresh_hits}/500 (need 490); "
             f"pre-cycled >=10k probes USED in {used_hits}/500 (need 475)")


# --------------------------------------------------------------- criterion 7

def test_criterion_7_metric_invariants(pipeline):
    r = pipeline.report
    counts = np.bincount(np.searchsorted(r.tags, pipeline.test.y),
                         minlength=len(r.tags))
    row_ok = np.array_equal(r.confusion.sum(axis=1), counts)
    rates_ok = np.all(np.abs(r.tpr + r.fnr - 1.0) <= 1e-12)
    acc_ok = r.accuracy == np.trace(r.confusion) / r.n_test
    shape_ok = r.confusion.shape == (9, 9)
    ok = row_ok and rates_ok and acc_ok and shape_ok
    _verdict(7, ok, f"confusion shape {r.confusion.shape} (need 9x9); row "
             f"sums match class counts: {row_ok}; tpr+fnr=1 within 1e-12: "
             f"{rates_ok}; accuracy==trace/total: {acc_ok}")


# --------------------------------------------------------------- criterion 8

def test_criterion_8_reproducibility(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["dataset", "--seed", "4", "--classes", "1,8",
            "--chips-per-class", "2", "--locations-per-chip", "3",
            "--checkpoints", "0,10000", "--out", "ds.csv"]
    assert cli.main(args + ["--out-dir", str(a)]) == 0
    assert cli.main(["dataset", "--config", str(a / "ds.csv.manifest"),
                     "--out-dir", str(b)]) == 0
    ds_same = filecmp.cmp(a / "ds.csv", b / "ds.csv", shallow=False)

    targs = ["train", "--seed", "4", "--dataset", str(a / "ds.csv"),
             "--kind", "svm", "--selector", "mrmr", "--select-k", "10",
             "--out", "m.txt"]
    assert cli.main(targs + ["--out-dir", str(a)]) == 0
    assert cli.main(["train", "--config", str(a / "m.txt.manifest"),
                     "--out-dir", str(b)]) == 0
    model_same = filecmp.cmp(a / "m.txt", b / "m.txt", shallow=False)

    ok = ds_same and model_same
    _verdict(8, ok, f"dataset rerun from manifest byte-identical: {ds_same}; "
             f"svm model rerun from manifest byte-identical: {model_same}")


# --------------------------------------------------------------- criterion 9

def test_criterion_9_statistics_protocol():
    stats = latency_stats(CATALOG)
    per_class = {}
    for w in stats:
        per_class.setdefault(w.class_tag, []).append(w)
    counts_ok = all(len(v) == 8 for v in per_class.values())
    n_ok = all(w.n == 500 for w in stats)
    drift_ok = True
    for tag, windows in per_class.items():
        before = next(w for w in windows
                      if w.checkpoint == 1000 and w.side is Side.BEFORE)
        after = next(w for w in windows
                     if w.checkpoint == 36_000 and w.side is Side.AFTER)
        drift_ok = drift_ok and after.mean > before.mean
    ok = counts_ok and n_ok and drift_ok and len(per_class) == 9
    _verdict(9, ok, f"{len(per_class)} classes x 8 windows: {counts_ok}; "
             f"all windows n=500: {n_ok}; AFTER-36k mean > BEFORE-1k mean "
             f"for every class: {drift_ok}")

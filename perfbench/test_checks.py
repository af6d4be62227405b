"""The benchmark's checks must pass intact outputs and reject corrupted ones.

Run with `python3 -m pytest perfbench`.  Each test builds small real
outputs with nvmsig, then corrupts them the way a broken program could:
a flipped label in a model file, a shifted region, a truncated CSV.
"""

import shutil
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
import workloads
from nvmsig import detector, features
from nvmsig.chipsim import cycle_location, full_chip_scan, load_catalog, new_chip
from nvmsig.detector import save_map


@pytest.fixture(scope="module")
def lab(tmp_path_factory):
    """A 3-class sweep small enough to run in a few seconds."""
    wd = tmp_path_factory.mktemp("lab")
    rc, out = workloads.run_cli(
        ["dataset", "--seed", 5, "--classes", "0,4,6", "--chips-per-class", 1,
         "--locations-per-chip", 3, "--split", "--out-dir", wd, "--out", "lab.csv"])
    assert rc == 0, out
    rc, out = workloads.run_cli(
        ["sweep", "--seed", 5, "--train", wd / "lab.train.csv",
         "--test", wd / "lab.test.csv", "--out-dir", wd / "sweep"])
    assert rc == 0, out
    return wd


def _cell(lab, kind, sel, stem=None):
    rows = checks.read_sweep_csv(lab / "sweep" / "sweep.csv")
    test = checks.read_dataset_csv(lab / "lab.test.csv")
    stem = stem or lab / "sweep" / f"sweep_{kind}_{sel}"
    return checks.check_sweep_cell(str(stem), rows[kind, sel], test, workloads.SELECT_K)[0]


def _copy_cell(lab, kind, sel, tmp_path):
    stem = tmp_path / f"sweep_{kind}_{sel}"
    for ext in (".model.txt", ".confusion.csv"):
        shutil.copy(lab / "sweep" / f"sweep_{kind}_{sel}{ext}", f"{stem}{ext}")
    return stem


def _rewrite(path, edit):
    path = Path(path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")


@pytest.mark.parametrize("kind", workloads.KINDS)
@pytest.mark.parametrize("sel", workloads.SELECTORS)
def test_intact_sweep_cells_pass(lab, kind, sel):
    assert _cell(lab, kind, sel) == []


def test_flipped_labels_in_knn_model_are_caught(lab, tmp_path):
    stem = _copy_cell(lab, "knn", "none", tmp_path)

    def flip(lines):   # every training row now claims class 6
        return [f"row 6 {ln.split(' ', 2)[2]}" if ln.startswith("row ") else ln
                for ln in lines]
    _rewrite(f"{stem}.model.txt", flip)
    assert any("accuracy from the model file" in p for p in _cell(lab, "knn", "none", stem))


def test_flipped_leaf_in_tree_model_is_caught(lab, tmp_path):
    stem = _copy_cell(lab, "tree", "mrmr", tmp_path)

    def flip(lines):
        out = []
        for ln in lines:
            p = ln.split()
            if p[0] == "node" and p[2] == "-1":
                p[6] = str((int(p[6]) + 1) % 3)
            out.append(" ".join(p))
        return out
    _rewrite(f"{stem}.model.txt", flip)
    assert any("accuracy from the model file" in p for p in _cell(lab, "tree", "mrmr", stem))


def test_a_probe_on_a_split_is_left_open():
    leaf = {"feature": -1, "threshold": 0.0, "left": -1, "right": -1}
    model = {"mean": np.zeros(1), "std": np.ones(1), "tags": np.array([1, 2]),
             "nodes": [{"feature": 0, "threshold": 0.5, "left": 1, "right": 2, "leaf": -1},
                       dict(leaf, leaf=0), dict(leaf, leaf=1)]}
    pred, open_ = checks.tree_oracle(model, np.array([[0.5 + 1e-12], [0.9]]))
    assert pred.tolist() == [2, 2] and open_.tolist() == [True, False]


def test_tree_counts_must_add_up(lab, tmp_path):
    stem = _copy_cell(lab, "tree", "none", tmp_path)
    _rewrite(f"{stem}.model.txt", lambda lines: [
        ln + "0" if ln.startswith("node 0 ") else ln for ln in lines])
    assert any("children" in p for p in _cell(lab, "tree", "none", stem))


def test_svm_kkt_rejects_scaled_multipliers(lab):
    model = checks.read_model(lab / "sweep" / "sweep_svm_mrmr.model.txt")
    train = checks.read_dataset_csv(lab / "lab.train.csv")
    assert checks.check_svm_kkt(model, train[2], train[0])[:2] == ([], [])
    model["machines"][0]["coef"] *= 0.5
    box, gaps, worst = checks.check_svm_kkt(model, train[2], train[0])
    assert box == [] and any("KKT violation" in p for p in gaps) and worst > 1e-3
    model["machines"][1]["coef"][0] += 0.1
    assert any("sum(alpha*y)" in p for p in checks.check_svm_kkt(model, train[2], train[0])[0])


def test_selection_must_be_distinct_and_in_range():
    model = {"indices": np.array([3, 3, 7])}
    assert checks.check_selection(model, 100, 3, "mrmr")
    model = {"indices": np.array([3, 5, 100])}
    assert checks.check_selection(model, 100, 3, "nca")
    model = {"indices": np.arange(100)}
    assert checks.check_selection(model, 100, 25, "none") == []


@pytest.fixture(scope="module")
def scanned(tmp_path_factory):
    wd = tmp_path_factory.mktemp("scan")
    spec = load_catalog()[2]
    chip = new_chip(spec, 424242)
    spots = [40, 43, 900]
    for addr, cycles in zip(spots, (10_000, 30_000, 50_000)):
        cycle_location(chip, addr, cycles)
    save_map(full_chip_scan(chip), wd / "map.csv")
    rc, out = workloads.run_cli(["scan", "--map", wd / "map.csv"])
    assert rc == 0
    return out, spots


def test_scan_regions_must_equal_the_spots(scanned):
    out, spots = scanned
    assert checks.check_scan(out, spots) == []
    shifted = out.replace("  900 900 ", "  901 901 ")
    assert shifted != out and checks.check_scan(shifted, spots)
    assert checks.check_scan(out, [40, 44, 900])


def test_predict_fields_are_read_from_the_cli_text():
    text = "predicted class: 4 (Winbond 8Mb NOR_FLASH)\nrecycled verdict: USED\n"
    assert checks.predict_fields(text) == ("4", "USED")
    assert checks.predict_fields("garbage") == (None, None)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    wd = tmp_path_factory.mktemp("ds")
    rc, text = workloads.run_cli(["catalog"])
    assert rc == 0
    rc, out = workloads.run_cli(["dataset", "--seed", 9, "--chips-per-class", 2,
                                 "--split", "--out-dir", wd, "--out", "d.csv"])
    assert rc == 0, out
    return wd, checks.read_catalog_csv(text)


def _dataset_problems(wd, catalog, name="d"):
    full, train, test = (checks.read_dataset_csv(wd / f"{name}{s}.csv")
                         for s in ("", ".train", ".test"))
    return (checks.check_dataset_rows(full, 9, 2, 12, 7)
            + checks.check_split(full, train, test, 0.8)
            + checks.check_class_means(full, catalog, 100))


def test_intact_dataset_passes(small_dataset):
    assert _dataset_problems(*small_dataset) == []


@pytest.mark.parametrize("part", ["", ".train"])
def test_truncated_csv_is_caught(small_dataset, tmp_path, part):
    wd, catalog = small_dataset
    for s in ("", ".train", ".test"):
        shutil.copy(wd / f"d{s}.csv", tmp_path / f"d{s}.csv")
    _rewrite(tmp_path / f"d{part}.csv", lambda lines: lines[:-5])
    problems = _dataset_problems(tmp_path, catalog)
    assert any(("rows, want" in p) or ("partition" in p) for p in problems)


def test_class_means_reject_scaled_latencies(small_dataset):
    wd, catalog = small_dataset
    y, meta, X, names = checks.read_dataset_csv(wd / "d.csv")
    assert checks.check_class_means((y, meta, X, names), catalog, 100) == []
    assert checks.check_class_means((y, meta, X * 1.1, names), catalog, 100)


def test_a_known_fault_fails_its_operation_but_only_a_check_makes_it_wrong():
    tally = workloads.Tally()
    tally.op("a")
    tally.op("b", error="the solver stopped without converging")
    tally.op("c", problems=["class 3 != batch predict 4"])
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 2, 1)


def test_tracer_wraps_every_alias_and_restores_them():
    import nvmsig
    from nvmsig import cli
    original = features.nca_select
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.nca_select is features.nca_select is nvmsig.nca_select
        assert cli.nca_select is not original
        features.fit_standardizer(np.ones((2, 2)))   # not a target: no span
        baseline = detector.baseline_from_catalog(load_catalog())
        detector.detect_recycled(np.full(5, 400.0), 0, baseline)
    finally:
        tracer.uninstall()
    assert cli.nca_select is original and features.nca_select is original
    assert [s[2] for s in tracer.spans] == ["detector.detect_recycled"]


def test_self_time_subtracts_direct_children():
    spans = [(0, -1, "a", "round", 0.0, 10.0, 0), (1, 0, "b", "round", 1.0, 4.0, 0),
             (2, 1, "c", "round", 2.0, 3.0, 0), (3, 0, "b", "round", 5.0, 6.0, 0)]
    assert tracing.self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    totals = tracing.layer_totals(spans, {"round": 2})
    assert totals["b"]["calls"] == 1.0 and totals["b"]["s"] == 1.5
    assert totals["b"]["ms"] == 1500.0

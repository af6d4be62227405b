"""End-to-end command-line flows, exit codes, and manifest reproducibility."""

import argparse
import contextlib
import dataclasses
import filecmp
import hashlib
import inspect
import io
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvmsig import cli, features
from nvmsig.chipsim import (BUILTIN_CATALOG, dump_catalog, full_chip_scan,
                            load_catalog, new_chip)
from nvmsig.classifiers import (KINDS, cross_validate, knn as knn_core,
                                load_model, predict_detail, save_model,
                                svm as svm_core,
                                train_knn, train_svm, train_tree)
from nvmsig.detector import (detect_recycled, load_map, locate_used_regions,
                             save_map)
from nvmsig.errors import ParseError
from nvmsig.features import mrmr_select, nca_select
from nvmsig.protocol import (build_dataset, load_dataset, save_dataset, split,
                             split_rows)


def run(*argv):
    return cli.main([str(a) for a in argv])


def _differing_files(first, second):
    """The relative paths that only one tree holds or that differ in bytes,
    as `diff -r` lists them."""
    def files(root):
        return {p.relative_to(root): p.read_bytes()
                for p in root.rglob("*") if p.is_file()}
    a, b = files(first), files(second)
    return sorted(str(p) for p in a.keys() | b.keys() if a.get(p) != b.get(p))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A tiny two-class corpus: dataset, split files, and a knn model."""
    root = tmp_path_factory.mktemp("cli")
    assert run("dataset", "--seed", 2, "--classes", "4,6",
               "--chips-per-class", 2, "--locations-per-chip", 4,
               "--checkpoints", "0,10000,30000", "--split",
               "--out-dir", root, "--out", "two.csv") == 0
    assert run("train", "--seed", 2, "--dataset", root / "two.train.csv",
               "--out-dir", root, "--out", "knn.model.txt") == 0
    return root


# ------------------------------------------------------------- simulate

def test_simulate_row_count_and_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("simulate", "--class", 0, "--cycles", 200, "--seed", 9,
               "--out", a) == 0
    assert run("simulate", "--class", 0, "--cycles", 200, "--seed", 9,
               "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "cycle,latency_us"
    assert len(lines) == 201


def test_simulate_single_cycle(tmp_path):
    out = tmp_path / "one.csv"
    assert run("simulate", "--class", 3, "--cycles", 1, "--seed", 4,
               "--out", out) == 0
    assert len(out.read_text().splitlines()) == 2


def test_simulate_stdout_when_no_out(capsys):
    assert run("simulate", "--class", 1, "--cycles", 3, "--seed", 7) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "cycle,latency_us"
    assert len(lines) == 4


# sha256 of each trace as written in one piece, before traces were written
# in blocks; 8195 rows straddle block boundaries
_TRACE_SHA256 = {
    (3, 0, 1, 4): "79b419f5a9dbb668ff513e9c4ae2e3fa22d2f37520a2f762a3e206f495d5dace",
    (0, 0, 200, 9): "60fcf16a9dcb227814f3c2997e31d910b8c0b9d4db937c5e9ff087dc509a54d6",
    (2, 5, 8195, 1): "93cf7894062bb390566517c3c0d8105d0126ae77d1a03fd52b81aeae8713f613",
}


@pytest.mark.parametrize("tag,addr,cycles,seed", sorted(_TRACE_SHA256))
@pytest.mark.parametrize("to_file", [False, True])
def test_simulate_trace_bytes_unchanged_by_blocks(tmp_path, capsys, tag, addr,
                                                  cycles, seed, to_file):
    argv = ["simulate", "--class", tag, "--addr", addr, "--cycles", cycles,
            "--seed", seed]
    if to_file:
        assert run(*argv, "--out", tmp_path / "t.csv") == 0
        text = (tmp_path / "t.csv").read_bytes()
    else:
        assert run(*argv) == 0
        text = capsys.readouterr().out.encode()
    assert hashlib.sha256(text).hexdigest() == _TRACE_SHA256[tag, addr, cycles, seed]


def test_simulate_trace_is_formatted_one_block_at_a_time():
    assert cli._TRACE_BLOCK < 8195 and 8195 % cli._TRACE_BLOCK != 0
    chip = new_chip(load_catalog("builtin")[0], 1)
    # a trace longer than memory could hold yields its first block at once
    first = next(cli._trace_blocks(chip, 0, 10 ** 12))
    assert first.count("\n") == cli._TRACE_BLOCK
    assert chip.wear[0] == cli._TRACE_BLOCK


def test_simulate_bad_address_writes_nothing(tmp_path, capsys):
    assert run("simulate", "--seed", 1, "--class", 0, "--addr", 10 ** 9,
               "--out-dir", tmp_path / "out", "--out", "t.csv") == 1
    captured = capsys.readouterr()
    assert "out of range" in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()
    assert run("simulate", "--seed", 1, "--class", 0, "--addr", -1) == 1
    assert capsys.readouterr().out == ""


def test_simulate_bad_class_tag_is_validation_error(capsys):
    assert run("simulate", "--class", 99, "--cycles", 5, "--seed", 1) == 1
    assert "class tag 99" in capsys.readouterr().err


def test_simulate_manifest_rerun_identical(tmp_path):
    assert run("simulate", "--class", 5, "--cycles", 50, "--seed", 11,
               "--out-dir", tmp_path, "--out", "trace.csv") == 0
    rerun = tmp_path / "rerun"
    assert run("simulate", "--config", tmp_path / "trace.csv.manifest",
               "--out-dir", rerun) == 0
    assert filecmp.cmp(tmp_path / "trace.csv", rerun / "trace.csv",
                       shallow=False)


# -------------------------------------------------------------- dataset

def test_dataset_single_class_row_formula(tmp_path):
    assert run("dataset", "--seed", 5, "--classes", "7",
               "--chips-per-class", 2, "--locations-per-chip", 3,
               "--checkpoints", "0,1000,30000",
               "--out-dir", tmp_path, "--out", "one.csv") == 0
    ds = load_dataset(tmp_path / "one.csv")
    assert ds.y.size == 2 * 3 * 3


def test_dataset_manifest_rerun_byte_identical(tmp_path):
    first = tmp_path / "first"
    assert run("dataset", "--seed", 3, "--classes", "0,8",
               "--chips-per-class", 2, "--locations-per-chip", 2,
               "--checkpoints", "0,5000", "--out-dir", first,
               "--out", "ds.csv") == 0
    second = tmp_path / "second"
    assert run("dataset", "--config", first / "ds.csv.manifest",
               "--out-dir", second) == 0
    assert filecmp.cmp(first / "ds.csv", second / "ds.csv", shallow=False)
    assert filecmp.cmp(first / "ds.csv.manifest",
                       second / "ds.csv.manifest", shallow=False)


def test_dataset_split_files_partition(workdir):
    full = load_dataset(workdir / "two.csv")
    train = load_dataset(workdir / "two.train.csv")
    test = load_dataset(workdir / "two.test.csv")
    assert train.y.size + test.y.size == full.y.size
    assert sorted(np.unique(train.y)) == [4, 6]


def test_generation_commands_require_seed(capsys):
    assert run("dataset", "--out", "x.csv") == 1
    assert run("simulate", "--class", 0) == 1
    assert "--seed is required" in capsys.readouterr().err


def test_dataset_bad_train_fraction_writes_nothing(tmp_path, capsys):
    assert run("dataset", "--seed", 2, "--classes", "4,6",
               "--chips-per-class", 2, "--locations-per-chip", 2,
               "--checkpoints", "0,10000", "--split", "--train-fraction", 2,
               "--out-dir", tmp_path) == 1
    assert "train_fraction" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_dataset_bad_split_makes_no_directory(tmp_path, capsys):
    assert run("dataset", "--seed", 2, "--classes", "4,6",
               "--chips-per-class", 2, "--locations-per-chip", 2,
               "--checkpoints", "0,10000", "--split", "--train-fraction", 2,
               "--out-dir", tmp_path, "--out", "sub/ds.csv") == 1
    assert "train_fraction" in capsys.readouterr().err
    assert not (tmp_path / "sub").exists()


# ---------------------------------------------------------- train / eval

def test_eval_on_train_set_is_perfect(workdir, tmp_path, capsys):
    assert run("eval", "--model", workdir / "knn.model.txt",
               "--dataset", workdir / "two.train.csv",
               "--out-dir", tmp_path, "--out", "selfeval") == 0
    out = capsys.readouterr().out
    assert "acc=1.0000" in out
    assert (tmp_path / "selfeval.report.txt").exists()
    assert (tmp_path / "selfeval.confusion.csv").exists()


def test_train_manifest_rerun_model_byte_identical(workdir, tmp_path):
    first = tmp_path / "m1"
    assert run("train", "--seed", 2, "--dataset", workdir / "two.train.csv",
               "--kind", "svm", "--selector", "mrmr", "--select-k", 8,
               "--out-dir", first, "--out", "svm.model.txt") == 0
    second = tmp_path / "m2"
    assert run("train", "--config", first / "svm.model.txt.manifest",
               "--out-dir", second) == 0
    assert filecmp.cmp(first / "svm.model.txt", second / "svm.model.txt",
                       shallow=False)


@pytest.mark.parametrize("argv,model_keys", [
    (["--kind", "knn"], ["kind", "k", "selector"]),
    (["--kind", "tree", "--selector", "nca", "--select-k", 4, "--nca-iters", 5],
     ["kind", "max_depth", "min_leaf", "selector", "select_k", "nca_iters",
      "nca_lr"]),
    (["--kind", "svm", "--selector", "mrmr", "--select-k", 4],
     ["kind", "c", "gamma", "tol", "selector", "select_k", "mrmr_bins"]),
], ids=["knn-none", "tree-nca", "svm-mrmr"])
def test_train_manifest_holds_only_the_keys_that_act(workdir, tmp_path, argv,
                                                     model_keys):
    """No key of another kind or selector is recorded."""
    assert run("train", "--seed", 2, "--dataset", workdir / "two.train.csv",
               *argv, "--out-dir", tmp_path, "--out", "m.txt") == 0
    lines = (tmp_path / "m.txt.manifest").read_text().splitlines()[1:]
    assert [line.split(" = ")[0] for line in lines] == \
        ["seed", "dataset", *model_keys, "out"]


def test_manifest_with_retired_max_passes_reruns_byte_identical(workdir,
                                                                 tmp_path):
    """A knn train manifest in the format written while `max_passes` was a
    key; the workdir model was trained from the same settings."""
    manifest = tmp_path / "knn.model.txt.manifest"
    manifest.write_text(
        "# nvmsig 0.1.0 train manifest; rerun with --config\n"
        "seed = 2\n"
        f"dataset = {workdir / 'two.train.csv'}\n"
        "kind = knn\nk = 5\nmax_depth = 20\nmin_leaf = 1\nc = 1.0\n"
        "gamma = auto\ntol = 0.001\nmax_passes = 10\nselector = none\n"
        "select_k = 25\nmrmr_bins = 16\nnca_iters = 200\nnca_lr = 0.01\n"
        "nca_subsample = false\nout = knn.model.txt\n")
    assert run("train", "--config", manifest, "--out-dir", tmp_path / "rerun") == 0
    assert filecmp.cmp(workdir / "knn.model.txt",
                       tmp_path / "rerun" / "knn.model.txt", shallow=False)


def test_retired_jobs_and_nca_subsample_keys(workdir, tmp_path, capsys):
    """`jobs` never changed an output and is ignored; `nca_subsample = true`
    ranked on a subsample that can no longer be drawn, so it is refused."""
    base = (f"seed = 2\ndataset = {workdir / 'two.train.csv'}\n"
            "kind = knn\nout = knn.model.txt\n")
    config = tmp_path / "old.cfg"
    config.write_text(base + "jobs = 2\n")
    assert run("train", "--config", config, "--out-dir", tmp_path / "rerun") == 0
    assert filecmp.cmp(workdir / "knn.model.txt",
                       tmp_path / "rerun" / "knn.model.txt", shallow=False)
    config.write_text(base + "nca_subsample = true\n")
    with pytest.raises(ParseError, match="line 5: nca_subsample"):
        cli.read_config(config)
    assert run("train", "--config", config, "--out-dir", tmp_path / "no") == 1
    assert "line 5" in capsys.readouterr().err
    assert not (tmp_path / "no").exists()
    assert run("sweep", "--seed", 2, "--dataset", workdir / "two.csv",
               "--jobs", 2, "--out-dir", tmp_path / "no") == 1
    assert not (tmp_path / "no").exists()


def test_train_needs_no_seed(workdir, tmp_path):
    assert run("train", "--dataset", workdir / "two.train.csv", "--kind", "svm",
               "--out-dir", tmp_path, "--out", "svm.model.txt") == 0
    text = (tmp_path / "svm.model.txt").read_text()
    assert "\nparam seed " not in text and "\nparam max_passes " not in text
    assert "seed = " not in (tmp_path / "svm.model.txt.manifest").read_text()


def test_unconverged_svm_is_numeric_error(workdir, tmp_path, monkeypatch,
                                          capsys):
    monkeypatch.setattr(svm_core, "_MAX_ITER_PER_ROW", 0)
    assert run("train", "--dataset", workdir / "two.train.csv", "--kind", "svm",
               "--out-dir", tmp_path, "--out", "svm.model.txt") == 3
    assert "KKT gap" in capsys.readouterr().err
    assert not (tmp_path / "svm.model.txt").exists()


def test_eval_arity_mismatch_is_validation_error(workdir, tmp_path, capsys):
    assert run("dataset", "--seed", 6, "--classes", "4,6",
               "--chips-per-class", 2, "--locations-per-chip", 2,
               "--checkpoints", "0,10000", "--group", 50,
               "--out-dir", tmp_path, "--out", "narrow.csv") == 0
    assert run("eval", "--model", workdir / "knn.model.txt",
               "--dataset", tmp_path / "narrow.csv") == 1
    assert "error" in capsys.readouterr().err


def test_crossval_table_and_csv(workdir, tmp_path, capsys):
    assert run("crossval", "--dataset", workdir / "two.csv", "--kind", "tree",
               "--folds", 4, "--seed", 3, "--out-dir", tmp_path,
               "--out", "cv.csv") == 0
    out = capsys.readouterr().out
    assert "mean=" in out and "stdev=" in out
    lines = (tmp_path / "cv.csv").read_text().splitlines()
    assert lines[0] == "fold,accuracy"
    assert len(lines) == 1 + 4 + 2


# ----------------------------------------------------------------- sweep

def test_sweep_emits_all_nine_cells(workdir, tmp_path, capsys):
    out = tmp_path / "grid"
    assert run("sweep", "--seed", 2, "--train", workdir / "two.train.csv",
               "--test", workdir / "two.test.csv", "--select-k", 6,
               "--nca-iters", 40, "--out-dir", out) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "method,selector,n_features,accuracy"
    cells = {tuple(r.split(",")[:2]) for r in rows[1:]}
    assert cells == {(m, s) for m in ("knn", "tree", "svm")
                     for s in ("none", "mrmr", "nca")}
    table = capsys.readouterr().out
    assert table.count("acc=") == 9
    for kind, sel in cells:
        assert (out / f"sweep_{kind}_{sel}.model.txt").exists()
        assert (out / f"sweep_{kind}_{sel}.confusion.csv").exists()


def test_sweep_fits_each_selector_once(workdir, tmp_path, monkeypatch):
    calls = {"nca": 0, "mrmr": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "nca_select", counted("nca", cli.nca_select))
    monkeypatch.setattr(cli, "mrmr_select", counted("mrmr", cli.mrmr_select))
    assert run("sweep", "--seed", 2, "--train", workdir / "two.train.csv",
               "--test", workdir / "two.test.csv", "--select-k", 4,
               "--nca-iters", 10, "--out-dir", tmp_path) == 0
    assert calls == {"nca": 1, "mrmr": 1}


def test_sweep_on_train_and_test_records_no_split_keys(workdir, tmp_path):
    """The split keys act only on --dataset.  A manifest of the older format,
    which carried them, reruns to every file the flags write: the models,
    the confusion tables, sweep.csv and the manifest."""
    first, rerun = tmp_path / "first", tmp_path / "rerun"
    train, test = workdir / "two.train.csv", workdir / "two.test.csv"
    assert run("sweep", "--seed", 2, "--train", train, "--test", test,
               "--select-k", 4, "--nca-iters", 10, "--out-dir", first) == 0
    manifest = (first / "sweep.csv.manifest").read_text()
    assert "train_fraction" not in manifest and "split_seed" not in manifest
    old = tmp_path / "old.manifest"
    old.write_text(
        "# nvmsig 0.1.0 sweep manifest; rerun with --config\n"
        f"seed = 2\ntrain = {train}\ntest = {test}\ntrain_fraction = 0.8\n"
        "split_seed = 2\nk = 5\nmax_depth = 20\nmin_leaf = 1\nc = 1.0\n"
        "gamma = auto\ntol = 0.001\nselect_k = 4\nmrmr_bins = 16\n"
        "nca_iters = 10\nnca_lr = 0.01\n")
    assert run("sweep", "--config", old, "--out-dir", rerun) == 0
    names = ["sweep.csv", "sweep.csv.manifest"] + [
        f"sweep_{kind}_{sel}.{ext}" for kind in KINDS
        for sel in cli.SELECTORS for ext in ("model.txt", "confusion.csv")]
    assert sorted(p.name for p in first.iterdir()) == sorted(names)
    assert _differing_files(first, rerun) == []


@pytest.mark.parametrize("command", ["train", "crossval", "sweep"])
def test_unknown_kind_is_validation_error(workdir, tmp_path, capsys, command):
    assert run(command, "--seed", 2, "--dataset", workdir / "two.csv",
               "--kind", "forest", "--out-dir", tmp_path) == 1
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# -------------------------------------------------------- predict / scan

def test_predict_class4_probe(workdir, tmp_path, capsys):
    probe = tmp_path / "probe.csv"
    assert run("simulate", "--class", 4, "--cycles", 100, "--seed", 314,
               "--out", probe) == 0
    assert run("predict", "--model", workdir / "knn.model.txt",
               "--probe", probe, "--out-dir", tmp_path,
               "--out", "verdict") == 0
    out = capsys.readouterr().out
    assert "predicted class: 4" in out
    assert "recycled verdict: FRESH" in out
    assert (tmp_path / "verdict.txt").exists()
    assert (tmp_path / "verdict.csv").exists()


def test_predict_bad_probe_file(workdir, tmp_path, capsys):
    probe = tmp_path / "bad.csv"
    probe.write_text("cycle,latency_us\n0,notanumber\n")
    assert run("predict", "--model", workdir / "knn.model.txt",
               "--probe", probe) == 1
    assert "line 2" in capsys.readouterr().err


def test_probe_blank_lines_are_skipped(tmp_path):
    probe = tmp_path / "probe.csv"
    probe.write_text("cycle,latency_us\n0,3.5\n\n1,4.5\n  \nx\n")
    with pytest.raises(ParseError, match="^line 6: "):
        cli._load_probe(probe)
    probe.write_text("cycle,latency_us\n0,3.5\n\n1,4.5\n  \n")
    assert cli._load_probe(probe).tolist() == [3.5, 4.5]


def test_scan_uniform_map_reports_none(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    save_map(np.full(64, 5.0), path)
    assert run("scan", "--map", path) == 0
    assert "no used regions" in capsys.readouterr().out


def test_scan_seeded_spots_match_ground_truth(tmp_path, capsys):
    out = tmp_path / "regions.csv"
    assert run("scan", "--class", 2, "--seed", 5,
               "--spots", "40:20000,900:50000,1500:10000",
               "--out-dir", tmp_path, "--out", "regions.csv",
               "--map-out", "map.csv") == 0
    rows = out.read_text().splitlines()[1:]
    starts = sorted(int(r.split(",")[0]) for r in rows)
    assert starts == [40, 900, 1500]
    assert (tmp_path / "map.csv").exists()
    assert "used regions" in capsys.readouterr().out


@pytest.mark.parametrize("spots", [[], ["--spots", "40:20000,100:50000"]],
                         ids=["no-spots", "two-spots"])
def test_scan_manifest_reruns_byte_identical(tmp_path, spots):
    first, rerun = tmp_path / "first", tmp_path / "rerun"
    assert run("scan", "--seed", 1, "--class", 0, *spots, "--out-dir", first,
               "--map-out", "m.csv") == 0
    assert run("scan", "--config", first / "m.csv.manifest",
               "--out-dir", rerun) == 0
    for name in ("m.csv", "m.csv.manifest"):
        assert (rerun / name).read_bytes() == (first / name).read_bytes()


def test_scan_manifest_records_flag_ratio_and_out(tmp_path):
    """Both shape the region listing, so a rerun rebuilds it too."""
    first, rerun = tmp_path / "first", tmp_path / "rerun"
    assert run("scan", "--seed", 5, "--class", 2, "--spots", "40:20000",
               "--flag-ratio", 1.4, "--out-dir", first, "--map-out", "m.csv",
               "--out", "regions.csv") == 0
    lines = (first / "m.csv.manifest").read_text().splitlines()
    assert "flag_ratio = 1.4" in lines and "out = regions.csv" in lines
    assert run("scan", "--config", first / "m.csv.manifest",
               "--out-dir", rerun) == 0
    for name in ("m.csv", "m.csv.manifest", "regions.csv"):
        assert (rerun / name).read_bytes() == (first / name).read_bytes()


@pytest.mark.parametrize("argv,manifest", [
    (["simulate", "--seed", 3, "--class", 0, "--addr", 5, "--cycles", 50,
      "--out", "t.csv"], "t.csv.manifest"),
    (["dataset", "--seed", 2, "--classes", "4,6", "--chips-per-class", 1,
      "--locations-per-chip", 2, "--checkpoints", "0,10000", "--split",
      "--out", "d.csv"], "d.csv.manifest"),
    (["train", "--dataset", "{root}/two.train.csv", "--kind", "tree",
      "--selector", "mrmr", "--select-k", 4, "--out", "m.txt"],
     "m.txt.manifest"),
    (["sweep", "--seed", 2, "--dataset", "{root}/two.csv", "--select-k", 4,
      "--nca-iters", 10], "sweep.csv.manifest"),
    (["sweep", "--split-seed", 2, "--dataset", "{root}/two.csv",
      "--select-k", 4, "--nca-iters", 10], "sweep.csv.manifest"),
    (["sweep", "--seed", 2, "--train", "{root}/two.train.csv",
      "--test", "{root}/two.test.csv", "--select-k", 4, "--nca-iters", 10],
     "sweep.csv.manifest"),
    (["sweep", "--train", "{root}/two.train.csv",
      "--test", "{root}/two.test.csv", "--select-k", 4, "--nca-iters", 10],
     "sweep.csv.manifest"),
    (["scan", "--seed", 5, "--class", 2, "--spots", "40:20000",
      "--map-out", "m.csv", "--out", "regions.csv"], "m.csv.manifest"),
    (["eval", "--model", "{root}/knn.model.txt",
      "--dataset", "{root}/two.test.csv", "--out", "e"], None),
], ids=["simulate", "dataset-split", "train", "sweep-dataset",
        "sweep-dataset-split-seed-only", "sweep-train-test",
        "sweep-train-test-without-seed", "scan", "eval"])
def test_every_file_of_a_run_reruns_byte_for_byte(workdir, tmp_path, argv,
                                                  manifest):
    """A manifest rerun, or for eval a second run, rewrites every file of the
    first run byte for byte: no file carries a clock."""
    argv = [str(a).format(root=workdir) for a in argv]
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(*argv, "--out-dir", first) == 0
    again = ["--config", first / manifest] if manifest else argv[1:]
    assert run(argv[0], *again, "--out-dir", second) == 0
    assert any(first.iterdir())
    assert _differing_files(first, second) == []


@pytest.mark.parametrize("argv", [
    ["train", "--kind", "svm", "--c", "nan"],
    ["train", "--kind", "svm", "--c", "inf"],
    ["train", "--kind", "svm", "--tol", "nan"],
    ["train", "--kind", "svm", "--tol", "inf"],
    ["predict", "--used-threshold", "inf"],
    ["predict", "--used-threshold", "nan"],
    ["predict", "--fresh-threshold", "nan"],
    ["scan", "--flag-ratio", "nan"],
    ["scan", "--flag-ratio", "inf"],
], ids=lambda argv: "-".join(argv[-2:]).strip("-"))
def test_non_finite_real_is_refused(workdir, tmp_path, capsys, argv):
    """NaN and infinity would silently change the result: a NaN flag ratio
    flags nothing, an infinite USED threshold never calls USED."""
    probe, map_path = tmp_path / "probe.csv", tmp_path / "map.csv"
    assert run("simulate", "--class", 4, "--cycles", 100, "--seed", 314,
               "--out", probe) == 0
    assert run("scan", "--class", 2, "--seed", 5, "--spots",
               "40:20000,900:50000", "--out-dir", tmp_path,
               "--map-out", "map.csv") == 0
    context = {"train": ["--dataset", workdir / "two.train.csv"],
               "predict": ["--model", workdir / "knn.model.txt",
                           "--probe", probe],
               "scan": ["--map", map_path]}[argv[0]]
    capsys.readouterr()
    assert run(*argv, *context, "--out-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_mrmr_bins_beyond_row_count_train(workdir, tmp_path):
    assert run("train", "--dataset", workdir / "two.train.csv",
               "--selector", "mrmr", "--select-k", 4,
               "--mrmr-bins", 10 ** 12, "--out-dir", tmp_path) == 0


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_nca_learning_rate_not_finite_exits_1(workdir, tmp_path, capsys, lr):
    assert run("train", "--dataset", workdir / "two.train.csv",
               "--selector", "nca", "--select-k", 4,
               "--nca-lr", lr, "--out-dir", tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "learning_rate" in err


def test_mrmr_bins_beyond_2_53_is_validation_error(workdir, tmp_path, capsys):
    assert run("train", "--dataset", workdir / "two.train.csv",
               "--selector", "mrmr", "--select-k", 4,
               "--mrmr-bins", 2 ** 63 - 1, "--out-dir", tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bins" in err


@pytest.mark.parametrize("value", ["arity", "-1", "repeat"])
def test_predict_with_model_index_out_of_range_exits_1(workdir, tmp_path,
                                                        capsys, value):
    lines = (workdir / "knn.model.txt").read_text().splitlines()
    arity = next(ln for ln in lines if ln.startswith("arity ")).split()[1]
    row = next(i for i, ln in enumerate(lines) if ln.startswith("indices "))
    parts = lines[row].split()
    parts[-1] = {"arity": arity, "-1": "-1", "repeat": parts[1]}[value]
    lines[row] = " ".join(parts)
    bad = tmp_path / "bad.model.txt"
    bad.write_text("\n".join(lines) + "\n")
    probe = tmp_path / "probe.csv"
    assert run("simulate", "--class", 4, "--cycles", 100, "--seed", 314,
               "--out", probe) == 0
    capsys.readouterr()
    assert run("predict", "--model", bad, "--probe", probe) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {row + 1}: ") and "indices" in err


@pytest.fixture(scope="module")
def lab1(tmp_path_factory):
    """The lab-seed-1 split, and a knn, tree and svm model trained on it
    with the CLI defaults, and an svm on the mRMR-25 columns."""
    root = tmp_path_factory.mktemp("lab1")
    assert run("dataset", "--seed", 1, "--chips-per-class", 2,
               "--locations-per-chip", 2, "--split", "--out-dir", root) == 0
    for kind in KINDS:
        assert run("train", "--kind", kind, "--dataset",
                   root / "dataset.train.csv", "--out-dir", root,
                   "--out", f"{kind}.model.txt") == 0
    assert run("train", "--kind", "svm", "--selector", "mrmr", "--dataset",
               root / "dataset.train.csv", "--out-dir", root,
               "--out", "svm_mrmr.model.txt") == 0
    return root


@pytest.mark.parametrize("kind", ["knn", "svm"])
def test_values_beyond_the_distance_range_are_an_error_line(lab1, tmp_path,
                                                             capsys, kind):
    """A probe, or a model row, whose squared norm overflows float64 exits 1
    with an error line, where it once printed an overflow warning and a
    verdict; a model row is named at its core line."""
    probe = tmp_path / "probe.csv"
    probe.write_text("cycle,latency_us\n" + "".join(
        f"{i},{1.7e308 if i % 2 == 0 else 1e-300!r}\n" for i in range(100)))
    model = lab1 / f"{kind}.model.txt"
    assert run("predict", "--model", model, "--probe", probe) == 1
    assert capsys.readouterr().err.startswith("error: ")
    lines = model.read_text().splitlines()
    core = next(i for i, ln in enumerate(lines) if ln.startswith("core "))
    row = next(i for i, ln in enumerate(lines) if ln.startswith(("row ", "sv ")))
    lines[row] = lines[row].rsplit(" ", 1)[0] + " 1e300"
    bad = tmp_path / "bad.model.txt"
    bad.write_text("\n".join(lines) + "\n")
    probe.write_text("cycle,latency_us\n" + "".join(
        f"{i},400\n" for i in range(100)))
    assert run("predict", "--model", bad, "--probe", probe) == 1
    assert capsys.readouterr().err.startswith(f"error: line {core + 1}: ")


def test_median_beyond_the_float_range_is_an_error_line(lab1, tmp_path, capsys):
    """A probe or map whose median overflows float64 exits 1 with one error
    line, where `predict` on a tree model once printed numpy's overflow
    warning, a USED verdict at an infinite ratio and exited 0, and `scan`
    reported no regions."""
    probe = tmp_path / "probe.csv"
    probe.write_text("cycle,latency_us\n" + "".join(
        f"{i},{1.7e308!r}\n" for i in range(100)))
    assert run("predict", "--model", lab1 / "tree.model.txt", "--probe", probe) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: probe latencies too large") and err.count("\n") == 1
    assert "verdict" not in out
    path = tmp_path / "map.csv"
    save_map(np.full(64, 1.7e308), path)
    assert run("scan", "--map", path) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: map latencies too large") and err.count("\n") == 1
    assert out == ""


def test_elevation_ratio_beyond_the_float_range_is_an_error_line(lab1, tmp_path,
                                                                 capsys):
    """A catalog whose fresh means are 1e-307 µs puts a plain probe's ratio
    beyond float64: exit 1 with one error line, where `predict` once
    printed a USED verdict at an infinite ratio and exited 0."""
    catalog = tmp_path / "catalog.csv"
    catalog.write_text(dump_catalog(
        [dataclasses.replace(s, base_latency_us=1e-307) for s in BUILTIN_CATALOG]))
    probe = tmp_path / "probe.csv"
    probe.write_text("cycle,latency_us\n" + "".join(
        f"{i},400\n" for i in range(100)))
    assert run("predict", "--model", lab1 / "tree.model.txt", "--probe", probe,
               "--catalog", catalog) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: elevation ratio overflows") and err.count("\n") == 1
    assert out == ""


def test_peak_ratio_beyond_the_float_range_is_an_error_line(tmp_path, capsys):
    """A map of 1e-300 µs with one address at 1e10 µs: exit 1 with one
    error line, where `scan` once printed numpy's overflow warning and a
    region at an infinite peak ratio, and exited 0."""
    path = tmp_path / "map.csv"
    path.write_text("addr,latency_us\n" + "".join(
        f"{i},{1e10 if i == 5 else 1e-300!r}\n" for i in range(64)))
    assert run("scan", "--map", path) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: peak ratio overflows") and err.count("\n") == 1
    assert out == ""


# sha256 of the model files trained on the lab-seed-1 dataset: knn and tree
# as the linked-node tree code wrote them, svm as model.py wrote every core
# block before each core module wrote its own, and the mRMR-25 svm as it was
# written from one object per pair machine
_LAB1_MODEL_SHA256 = {
    "knn": "24f362f211f98a15ec985e2d182bc7bb72ef023a0a2d8afca7e5db68a51c7805",
    "tree": "f09d08dcfc8a5632907d0d9eb462210892f4fc285f64aa639aa346e6a988011e",
    "svm": "c7d8be1b66207338b609ce1f93b3d13a112dcad80ec12d2a04ba0e88e986c98a",
    "svm_mrmr": "5101a46a8033e96a34618055daed4687d421a197a73f21f86c1230b739d7bcd7",
}


def test_lab_seed_1_model_file_bytes_are_pinned(lab1):
    for kind, digest in _LAB1_MODEL_SHA256.items():
        assert hashlib.sha256((lab1 / f"{kind}.model.txt").read_bytes()
                              ).hexdigest() == digest, kind


# sha256 of the int64 calls then the float64 scores that predict_detail
# gives for each lab-seed-1 model, loaded from its file, on the lab-seed-1
# test split, as computed while model.py handed each core its class axis
# (the mRMR-25 svm: while the svm walked one object per pair machine)
_LAB1_EVIDENCE_SHA256 = {
    "knn": "7b87fb14ba9fff4103548ea7d0d8952e9dda1fedb00d8a325dc5e9048f48c6fe",
    "tree": "f070094cac5d8ae05438478de3e3ffd49e16f75bfaa9e12fef26bf36fa031d97",
    "svm": "499bd3f9c33cfc91f2e39b8b77c097492fac82d29ae100f9ef83e21abf344f02",
    "svm_mrmr": "866d4569b5900bf70d6f4bdb228f339d95a062ac2f0db15ffe1f5ac25e3d68dc",
}


def test_lab_seed_1_evidence_is_pinned(lab1):
    test = load_dataset(lab1 / "dataset.test.csv")
    for kind, digest in _LAB1_EVIDENCE_SHA256.items():
        model = load_model(lab1 / f"{kind}.model.txt")
        pred, scores, tags = predict_detail(model, test.X)
        assert (pred.dtype, scores.dtype) == (np.int64, np.float64), kind
        assert scores.shape == (test.y.size, tags.size), kind
        assert hashlib.sha256(pred.tobytes() + scores.tobytes()).hexdigest() \
            == digest, kind


def _field_outputs(lab1, root, capsys):
    """{name: bytes} of the field commands: two `scan` runs with seeded
    spots (map, manifest, regions CSV and stdout, the out dir read as
    `<out>`), and the `predict --out` report of a fresh and a worn probe
    against each lab-seed-1 model."""
    files = {}
    for seed, tag, spots in ((5, 2, "40:20000,900:50000"),
                             (6, 7, "3:30000,4:30000,500:8000")):
        out = root / f"scan{seed}"
        capsys.readouterr()
        assert run("scan", "--seed", seed, "--class", tag, "--spots", spots,
                   "--map-out", "m.csv", "--out", "r.csv", "--out-dir", out) == 0
        files[f"scan{seed}/stdout"] = \
            capsys.readouterr().out.replace(str(out), "<out>").encode()
        for name in ("m.csv", "m.csv.manifest", "r.csv"):
            files[f"scan{seed}/{name}"] = (out / name).read_bytes()
    # the worn probe is the last 100 cycles of a 30,100-cycle trace
    assert run("simulate", "--seed", 7, "--class", 4, "--cycles", 100,
               "--out", "fresh.csv", "--out-dir", root) == 0
    assert run("simulate", "--seed", 3, "--class", 0, "--cycles", 30_100,
               "--out", "trace.csv", "--out-dir", root) == 0
    lines = (root / "trace.csv").read_text().splitlines(keepends=True)
    (root / "worn.csv").write_text(lines[0] + "".join(lines[-100:]))
    for model in _LAB1_MODEL_SHA256:
        for probe in ("fresh", "worn"):
            stem = f"{model}_{probe}"
            assert run("predict", "--model", lab1 / f"{model}.model.txt",
                       "--probe", root / f"{probe}.csv",
                       "--out-dir", root, "--out", stem) == 0
            for ext in (".txt", ".csv"):
                files[stem + ext] = (root / (stem + ext)).read_bytes()
    capsys.readouterr()
    return files


# sha256 of what `scan` and `predict` write, as computed while a latency map
# and a fresh baseline were each wrapped in a type of their own
_FIELD_SHA256 = {
    "scan5/stdout":
        "c8b9897283e4bcf5bc6db724396b4bae4cd96194cb20baac606dd56a37825b86",
    "scan5/m.csv":
        "f23c30b52dd742a8128be0f403abb65f589236a72894e7f34666053f59255b97",
    "scan5/m.csv.manifest":
        "c827d203cb42db4dece5ab6ef7ed9cc39da6630b9e4d99323ddb4fc0b32201e1",
    "scan5/r.csv":
        "5d64707ed7ec01c8972df483c00cfc52ed87d5973633f6ba72c86065bb25399f",
    "scan6/stdout":
        "16fb4281accd752405138639438f0da96cb2832f29c5d6de535900d72be83d3f",
    "scan6/m.csv":
        "2a05bac80187c7a27068a06b0d2eab744affb224347607d7ac4b88a21647ac76",
    "scan6/m.csv.manifest":
        "d0ea4d29adce396f9e0c3badd791174ac0f09ace1a9744c35145146cb4805335",
    "scan6/r.csv":
        "47b89a83c5de14612a8a1a25edbe7630e0fb662c879705a35365ccbdc4c2425a",
    "knn_fresh.txt":
        "44796893df0405283ed74a9a736dd2f36a3c7d6712ab6dd9d3d8099990f63ce7",
    "knn_fresh.csv":
        "4f6fd9ba4cc14d539518f135cd81dc50099f81bd2cb6c0f367dff7aecd6f43b5",
    "knn_worn.txt":
        "7366e1a747e757d9bc2ed540d82b72077f80831ea54d5823799f64be124dd96b",
    "knn_worn.csv":
        "1a0dc2823778b17307430e535f05a89067c380e52e38785a5b2cbfe9254d3ddd",
    "tree_fresh.txt":
        "134a48a2c75881853205afb629131a3fe3f5975c3d916037fd712339ef3d7eba",
    "tree_fresh.csv":
        "d75536d36313d1e5cd4b5814a632cf743a621495ff855e233c403de03eaea852",
    "tree_worn.txt":
        "7366e1a747e757d9bc2ed540d82b72077f80831ea54d5823799f64be124dd96b",
    "tree_worn.csv":
        "1a0dc2823778b17307430e535f05a89067c380e52e38785a5b2cbfe9254d3ddd",
    "svm_fresh.txt":
        "95240ec541bc217377ed15f38516b112f1b380db9ba2740f742eb1e52fee9c68",
    "svm_fresh.csv":
        "3da3b46b66d7a994d5a9a5c2fa152170cf0ee8fe50fbe2a16a019ec8796e83fc",
    "svm_worn.txt":
        "2f972af571919211f975a1cdf9f91dfe54e1cceea1563ba201c6c5dd7df61126",
    "svm_worn.csv":
        "725cfa7669460933cf709f72ddebda1ee83bd2545b364c3cce6faf1a01313553",
    "svm_mrmr_fresh.txt":
        "95240ec541bc217377ed15f38516b112f1b380db9ba2740f742eb1e52fee9c68",
    "svm_mrmr_fresh.csv":
        "3da3b46b66d7a994d5a9a5c2fa152170cf0ee8fe50fbe2a16a019ec8796e83fc",
    "svm_mrmr_worn.txt":
        "2f972af571919211f975a1cdf9f91dfe54e1cceea1563ba201c6c5dd7df61126",
    "svm_mrmr_worn.csv":
        "725cfa7669460933cf709f72ddebda1ee83bd2545b364c3cce6faf1a01313553",
}


def test_field_command_bytes_are_pinned(lab1, tmp_path, capsys):
    files = _field_outputs(lab1, tmp_path, capsys)
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in files.items()} == _FIELD_SHA256


# sha256 of the lab-seed-1 svm with tol 5, as written from one object per
# pair machine: the solver starts at a KKT gap of 2, within tol, so every
# alpha stays 0 and no machine keeps a support row
_LAB1_EMPTY_SVM_SHA256 = \
    "0154fc6c36f47c286f65e80180238e53e63b3e28ca5ae4d2083a55c52cb56889"


def test_svm_machines_without_support_rows_vote_by_their_bias(lab1, tmp_path):
    model = train_svm(load_dataset(lab1 / "dataset.train.csv"), tol=5.0)
    assert model.core.counts.tolist() == [0] * 36
    assert model.core.pool.shape == (0, 100)
    assert model.core.coef.shape == (0, 36)
    assert not model.core.bias.any()
    test = load_dataset(lab1 / "dataset.test.csv")
    path, again = tmp_path / "empty.model.txt", tmp_path / "again.model.txt"
    save_model(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _LAB1_EMPTY_SVM_SHA256
    loaded = load_model(path)
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    for m in (model, loaded):
        # every decision is an exact zero, which sides with the lower tag
        pred, scores, tags = predict_detail(m, test.X)
        assert np.array_equal(pred, np.zeros(test.y.size, dtype=np.int64))
        assert np.array_equal(scores, np.tile(np.arange(8.0, -1.0, -1.0),
                                              (test.y.size, 1)))


def _cut_last_machine(lines):
    """`core svm 35 9`, and the last machine block gone."""
    core = lines.index("core svm 36 9")
    last = max(i for i, ln in enumerate(lines) if ln.startswith("machine "))
    return lines[:core] + ["core svm 35 9"] + lines[core + 1:last] + ["end"]


def _swap_first_machine(lines):
    at = next(i for i, ln in enumerate(lines) if ln.startswith("machine "))
    lines[at] = lines[at].replace("machine 0 1 ", "machine 1 0 ", 1)
    return lines


def _param(key, *values):
    """The `param <key>` line replaced by one line per value: none drops it,
    two repeat it."""
    def edit(lines):
        at = next(i for i, ln in enumerate(lines)
                  if ln.startswith(f"param {key} "))
        return lines[:at] + [f"param {key} {v}" for v in values] + lines[at + 1:]
    return edit


def _insert_before(prefix, line):
    def edit(lines):
        at = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
        return lines[:at] + [line] + lines[at:]
    return edit


def _swap_params(lines):
    at = next(i for i, ln in enumerate(lines) if ln.startswith("param "))
    return lines[:at] + [lines[at + 1], lines[at]] + lines[at + 2:]


@pytest.mark.parametrize("edit,prefix,match", [
    (_cut_last_machine, "core ", "35 machines, 9 tags need 36"),
    (_swap_first_machine, "machine ", "machine of tags 0 and 1"),
    (_param("gamma", -1), "core ", "gamma"),
    (_param("gamma", 0), "core ", "gamma"),
], ids=["35-machines", "first-machine-1-0", "gamma-negative", "gamma-zero"])
def test_svm_file_that_fit_could_not_write_is_parse_error(lab1, tmp_path,
                                                         edit, prefix, match):
    lines = edit((lab1 / "svm.model.txt").read_text().splitlines())
    at = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
    (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"^line {at + 1}: .*{match}"):
        load_model(tmp_path / "bad.txt")


# a fault in a value is reported at the `core` line, one in the keys at the
# line that breaks the declared, sorted key list
@pytest.mark.parametrize("name,edit,prefix,match", [
    ("tree", _param("max_depth", -5), "core ", "max_depth param must be > 0"),
    ("tree", _param("min_leaf", 0), "core ", "min_leaf param must be > 0"),
    ("svm", _param("C", -3), "core ", "C param must be > 0"),
    ("svm", _param("tol", 0), "core ", "tol param must be > 0"),
    ("knn", _param("k", 0), "core ", "k param must be > 0"),
    ("knn", _param("k", 500), "core ", r"k must be in \[1, 198\]"),
    ("tree", _param("min_leaf"), "core ", "expected the min_leaf param"),
    ("knn", _insert_before("param k ", "param foo 1"), "param foo ",
     "expected the k param"),
    ("knn", _param("k", 5, 3), "param k 3", "expected 'core"),
    ("tree", _swap_params, "param min_leaf ", "expected the max_depth param"),
    ("svm", _insert_before("param tol ", "param max_passes 10000"),
     "param max_passes ", "expected the tol param"),
], ids=["max-depth-negative", "min-leaf-zero", "c-negative", "tol-zero",
        "k-zero", "k-beyond-rows", "min-leaf-missing", "unknown-key",
        "k-repeated", "keys-unsorted", "retired-svm-key"])
def test_param_block_fault_is_parse_error_at_its_line(lab1, tmp_path, capsys,
                                                      name, edit, prefix,
                                                      match):
    lines = edit((lab1 / f"{name}.model.txt").read_text().splitlines())
    at = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
    bad, probe = tmp_path / "bad.txt", tmp_path / "probe.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"^line {at + 1}: .*{match}"):
        load_model(bad)
    assert run("simulate", "--class", 4, "--cycles", 100, "--seed", 314,
               "--out", probe) == 0
    capsys.readouterr()
    assert run("predict", "--model", bad, "--probe", probe) == 1
    assert capsys.readouterr().err.startswith(f"error: line {at + 1}: ")


# sha256 of the lab-seed-1 dataset files and of the default dataset, as
# written while build_dataset sampled its chips in a loop of its own
_LAB1_DATASET_SHA256 = {
    "dataset.csv": "c24ddb2d27f5da7b042bf90c1e56b5b654b3e2a7cca333a2f46dee8c8f116b53",
    "dataset.train.csv": "eae4ec82c66b68bd6839d35e4638981e4631431c4515c750098acd3685c17e2c",
    "dataset.test.csv": "fe1009b43f659b462363c37f3aac9636830687fce9272bdb46be5b5ad0860fe8",
}
_DEFAULT_DATASET_SHA256 = \
    "3e987bbcdd8d1c16db8a442ea71c6ac3677bc23ba346d96a2fffa323e31a5f11"


def test_lab_seed_1_dataset_bytes_are_pinned(lab1):
    for name, digest in _LAB1_DATASET_SHA256.items():
        assert hashlib.sha256((lab1 / name).read_bytes()).hexdigest() \
            == digest, name


def test_default_dataset_bytes_are_pinned(tmp_path):
    assert run("dataset", "--seed", 1, "--out-dir", tmp_path) == 0
    assert hashlib.sha256((tmp_path / "dataset.csv").read_bytes()
                          ).hexdigest() == _DEFAULT_DATASET_SHA256


# sha256 of the default dataset's split files, as written by one
# save_dataset call per file
_DEFAULT_SPLIT_SHA256 = {
    "dataset.train.csv": "b2b5268cfec39b52efa3e2bf2d2513bf257d3faef4cd88df9ec9e6143106a8d1",
    "dataset.test.csv": "33ccb701ddbbb22bfb28746ff544cf4810c1fbe5e41dd4f905f92f13af739b05",
}


def test_default_split_dataset_bytes_are_pinned(tmp_path):
    assert run("dataset", "--seed", 1, "--split", "--out-dir", tmp_path) == 0
    for name, digest in {"dataset.csv": _DEFAULT_DATASET_SHA256,
                         **_DEFAULT_SPLIT_SHA256}.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() \
            == digest, name


def test_split_files_equal_the_library_split_in_unsorted_class_order(tmp_path):
    # the split draws classes in tag order (1, 5, 8), the file holds 5, 1, 8
    assert run("dataset", "--seed", 3, "--classes", "5,1,8",
               "--chips-per-class", 2, "--locations-per-chip", 2, "--split",
               "--out-dir", tmp_path / "cli") == 0
    by_tag = {s.class_tag: s for s in BUILTIN_CATALOG}
    ds = build_dataset([by_tag[t] for t in (5, 1, 8)], chips_per_class=2,
                       locations_per_chip=2, seed=3)
    for part, name in zip(split(ds, 0.8, seed=3), ("train", "test")):
        save_dataset(part, tmp_path / f"{name}.csv")
        assert (tmp_path / "cli" / f"dataset.{name}.csv").read_bytes() == \
            (tmp_path / f"{name}.csv").read_bytes(), name


def _one_run_per_class(y):
    starts = np.flatnonzero(np.diff(y)) + 1
    return len(set(y[np.r_[0, starts]].tolist())) == starts.size + 1


@pytest.mark.parametrize("data", ["lab1", "default"])
def test_split_files_hold_each_class_in_one_run(lab1, tmp_path, data):
    """The NCA gradient takes its class-block path only on such labels."""
    root = lab1
    if data == "default":
        root = tmp_path
        assert run("dataset", "--seed", 1, "--split", "--out-dir", root) == 0
    for name in ("dataset.csv", "dataset.train.csv", "dataset.test.csv"):
        y = load_dataset(root / name).y
        assert _one_run_per_class(y), name
        assert features._class_runs(y) is not None, name


@pytest.mark.parametrize("edit", ["classes-dropped", "class-renumbered"])
def test_class_header_that_disagrees_with_the_core_exits_1(lab1, tmp_path,
                                                          capsys, edit):
    probe = tmp_path / "probe.csv"
    assert run("simulate", "--class", 8, "--cycles", 100, "--seed", 314,
               "--out", probe) == 0
    for kind in KINDS:
        lines = (lab1 / f"{kind}.model.txt").read_text().splitlines()
        at = lines.index("classes 9")
        if edit == "classes-dropped":  # keep `class 0` and `class 1`
            lines[at:at + 10] = ["classes 2"] + lines[at + 1:at + 3]
        else:
            lines[at + 9] = lines[at + 9].replace("class 8 ", "class 80 ", 1)
        bad = tmp_path / f"{kind}.model.txt"
        bad.write_text("\n".join(lines) + "\n")
        for argv in (["predict", "--probe", probe],
                     ["eval", "--dataset", lab1 / "dataset.test.csv"]):
            capsys.readouterr()
            assert run(*argv, "--model", bad, "--out-dir", tmp_path / "out") == 1
            assert capsys.readouterr().err.startswith(
                f"error: line {at + 1}: "), (kind, argv[0])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,core,func,message", [
    ("train", svm_core, "smo_train_pairs", "Unable to allocate 298. GiB"),
    ("eval", knn_core, "_neighbors", ""),
], ids=["train-svm", "eval-knn"])
def test_out_of_memory_is_an_error_line_and_exit_1(workdir, tmp_path, capsys,
                                                   monkeypatch, command, core,
                                                   func, message):
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(core, func, refuse)
    argv = {"train": ["--kind", "svm", "--dataset", workdir / "two.train.csv"],
            "eval": ["--model", workdir / "knn.model.txt",
                     "--dataset", workdir / "two.test.csv"]}[command]
    assert run(command, *argv, "--out-dir", tmp_path / "out") == 1
    assert f"error: {message or 'out of memory'}\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scan_needs_map_or_seed(capsys):
    assert run("scan") == 1
    assert "--seed is required" in capsys.readouterr().err


@pytest.mark.parametrize("argv,missing", [
    (["train"], "dataset"),
    (["crossval"], "dataset"),
    (["eval"], "model"),
    (["eval", "--model", "{model}"], "dataset"),
    (["predict", "--probe", "{model}"], "model"),
    (["predict", "--model", "{model}"], "probe"),
    (["sweep", "--seed", "1"], "dataset"),
    (["sweep", "--seed", "1", "--train", "{model}"], "test"),
    (["sweep"], "seed"),
    (["sweep", "--dataset", "{model}"], "seed"),
    (["sweep", "--train", "{model}"], "test"),
    (["scan"], "seed"),
], ids=["train", "crossval", "eval", "eval-model-only", "predict",
        "predict-model-only", "sweep", "sweep-train-only", "sweep-bare",
        "sweep-dataset-without-seed", "sweep-train-only-without-seed", "scan"])
def test_command_without_a_required_input_names_its_flag(workdir, tmp_path,
                                                         capsys, argv, missing):
    argv = [a.format(model=workdir / "knn.model.txt") for a in argv]
    assert run(*argv, "--out-dir", tmp_path / "out") == 1
    assert capsys.readouterr().err == \
        f"error: --{missing} is required for '{argv[0]}'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--seed", 1, "--dataset", "{ds}.csv", "--train", "{ds}.test.csv"],
    ["sweep", "--seed", 1, "--dataset", "{ds}.csv", "--test", "{ds}.test.csv"],
    ["scan", "--map", "{map}", "--map-out", "copy.csv"],
    ["scan", "--map", "{map}", "--spots", "5:100"],
    ["dataset", "--seed", 1, "--train-fraction", 0.3],
    ["sweep", "--seed", 1, "--train", "{ds}.train.csv",
     "--test", "{ds}.test.csv", "--train-fraction", 0.3],
    ["sweep", "--seed", 1, "--train", "{ds}.train.csv",
     "--test", "{ds}.test.csv", "--split-seed", 5],
    ["scan", "--map", "{map}", "--seed", 9],
    ["scan", "--map", "{map}", "--class", 7],
    ["scan", "--map", "{map}", "--catalog", "/nonexistent"],
    ["train", "--dataset", "{ds}.train.csv", "--kind", "knn", "--c", 5],
    ["crossval", "--dataset", "{ds}.csv", "--selector", "none",
     "--select-k", 3],
], ids=["sweep-dataset-and-train", "sweep-dataset-and-test", "scan-map-out",
        "scan-map-spots", "dataset-train-fraction-without-split",
        "sweep-train-test-and-train-fraction", "sweep-train-test-and-split-seed",
        "scan-map-seed", "scan-map-class", "scan-map-catalog", "train-knn-c",
        "crossval-none-select-k"])
def test_input_the_command_would_ignore_is_refused(workdir, tmp_path, capsys,
                                                   argv):
    """The last flag would not act on the run; the refusal names it."""
    path = tmp_path / "map.csv"
    save_map(np.full(64, 5.0), path)
    argv = [str(a).format(ds=workdir / "two", map=path) for a in argv]
    flag = [a for a in argv if a.startswith("--")][-1]
    assert run(*argv, "--out-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} has no effect with ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_every_switch_names_keys_its_command_takes():
    """A switch or listed key that its command does not take would leave
    nothing idle."""
    for command, switches in cli._SWITCHES.items():
        takes = set(cli._COMMANDS[command][1])
        for switch, by_value in switches.items():
            assert switch in takes, (command, switch)
            for keys in by_value.values():
                assert set(keys) <= takes, (command, switch, keys)
    for command in ("train", "crossval"):
        assert set(cli._SWITCHES[command]["kind"]) == set(KINDS)
        assert set(cli._SWITCHES[command]["selector"]) == set(cli.SELECTORS)


def test_switches_that_idle_each_other_in_a_config_are_refused(workdir,
                                                                tmp_path,
                                                                capsys):
    """An idle config key is dropped, but a config naming both inputs of a
    sweep leaves neither acting, so nothing could record the run."""
    config = tmp_path / "both.cfg"
    config.write_text(f"seed = 1\ndataset = {workdir / 'two.csv'}\n"
                      f"train = {workdir / 'two.train.csv'}\n"
                      f"test = {workdir / 'two.test.csv'}\n")
    assert run("sweep", "--config", config, "--out-dir", tmp_path / "out") == 1
    assert capsys.readouterr().err.startswith("error: --train has no effect "
                                              "with --dataset ")
    assert not (tmp_path / "out").exists()


def test_a_switch_that_idles_only_itself_is_accepted(tmp_path):
    assert run("dataset", "--seed", 2, "--classes", 4, "--chips-per-class", 1,
               "--locations-per-chip", 2, "--checkpoints", "0,10000",
               "--no-split", "--train-fraction", 0.5, "--out-dir", tmp_path,
               "--out", "d.csv") == 1
    assert run("dataset", "--seed", 2, "--classes", 4, "--chips-per-class", 1,
               "--locations-per-chip", 2, "--checkpoints", "0,10000",
               "--no-split", "--out-dir", tmp_path, "--out", "d.csv") == 0
    assert "split" not in (tmp_path / "d.csv.manifest").read_text()


@pytest.mark.parametrize("key", ["kind", "selector"])
def test_bad_choice_in_config_is_parse_error_at_its_line(workdir, tmp_path,
                                                         capsys, key):
    config = tmp_path / "bad.cfg"
    config.write_text(f"dataset = {workdir / 'two.train.csv'}\n{key} = forest\n")
    with pytest.raises(ParseError, match=f"^line 2: {key}: expected one of "):
        cli.read_config(config)
    assert run("train", "--config", config, "--out-dir", tmp_path / "out") == 1
    assert "line 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------ config and errors

def test_missing_input_file_is_io_error(tmp_path, capsys):
    assert run("train", "--seed", 1, "--dataset", tmp_path / "ghost.csv") == 2
    assert "error" in capsys.readouterr().err


_BEYOND_INT64 = "99999999999999999999"


@pytest.mark.parametrize("case", ["class", "chip_seed", "config_seed",
                                  "seed_flag", "split_seed_flag", "cycles_flag",
                                  "chips_per_class_flag"])
def test_integer_beyond_int64_is_validation_error(workdir, tmp_path, capsys,
                                                  case):
    if case in ("class", "chip_seed"):
        lines = (workdir / "two.train.csv").read_text().splitlines(keepends=True)
        row = 1 + next(i for i, line in enumerate(lines)
                       if line.startswith("class,"))
        parts = lines[row].split(",")
        parts[0 if case == "class" else 1] = _BEYOND_INT64
        lines[row] = ",".join(parts)
        bad = tmp_path / "big.csv"
        bad.write_text("".join(lines))
        with pytest.raises(ParseError, match=f"line {row + 1}:"):
            load_dataset(bad)
        argv = ["train", "--dataset", bad]
    elif case == "config_seed":
        config = tmp_path / "big.cfg"
        config.write_text(f"seed = {_BEYOND_INT64}\n")
        argv = ["dataset", "--config", config]
    elif case == "seed_flag":
        argv = ["dataset", "--seed", _BEYOND_INT64]
    elif case == "cycles_flag":
        argv = ["simulate", "--seed", 1, "--class", 0, "--cycles", _BEYOND_INT64]
    elif case == "chips_per_class_flag":
        argv = ["dataset", "--seed", 1, "--chips-per-class", _BEYOND_INT64]
    else:
        argv = ["dataset", "--seed", 1, "--split", "--split-seed", _BEYOND_INT64]
    assert run(*argv, "--out-dir", tmp_path / "out") == 1
    assert "int64" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["spots_flag", "checkpoints_flag",
                                  "checkpoints_config"])
def test_list_field_beyond_int64_is_validation_error(tmp_path, capsys, case):
    if case == "spots_flag":
        argv = ["scan", "--seed", 1, "--spots", f"3:{_BEYOND_INT64}"]
    elif case == "checkpoints_flag":
        argv = ["dataset", "--seed", 1, "--checkpoints", f"0,{_BEYOND_INT64}"]
    else:
        config = tmp_path / "big.cfg"
        config.write_text(f"seed = 1\ncheckpoints = 0,{_BEYOND_INT64}\n")
        argv = ["dataset", "--config", config]
    assert run(*argv, "--out-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert any(line.startswith("error:") for line in err.splitlines())
    if case == "checkpoints_config":
        assert "line 2: checkpoints:" in err and "int64" in err
    else:
        assert "does not fit in int64" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,key", [("dataset", "catalog"),
                                         ("train", "dataset")])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_nul_byte_in_path_is_validation_error(tmp_path, capsys, command, key,
                                              via):
    if via == "flag":
        argv = [command, "--seed", 1, f"--{key}", "a\x00b.csv"]
    else:
        config = tmp_path / "nul.cfg"
        config.write_text(f"seed = 1\n{key} = a\x00b.csv\n")
        argv = [command, "--config", config]
    assert run(*argv, "--out-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "NUL byte" in err
    if via == "flag":
        assert f"argument --{key}:" in err
    assert any(line.startswith("error:") for line in err.splitlines())
    assert not (tmp_path / "out").exists()


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("seed = 1\nwibble = 2\n")
    assert run("dataset", "--config", cfgfile) == 1
    assert "line 2" in capsys.readouterr().err


def test_flag_overrides_config(tmp_path):
    cfgfile = tmp_path / "sim.cfg"
    cfgfile.write_text("# comment\nseed = 9\nclass = 5\ncycles = 3\n")
    out = tmp_path / "t.csv"
    assert run("simulate", "--config", cfgfile, "--cycles", 7,
               "--out", out) == 0
    assert len(out.read_text().splitlines()) == 8


def test_usage_errors_are_validation_errors(capsys):
    assert run("simulate", "--cycles", "notanint") == 1
    assert run() == 1
    assert run("catalog", "--no-such-flag") == 1
    # flags that these commands would not read
    for command, flag in [("train", "--catalog"), ("crossval", "--catalog"),
                          ("eval", "--catalog"), ("sweep", "--catalog"),
                          ("catalog", "--seed"), ("eval", "--seed"),
                          ("predict", "--seed")]:
        capsys.readouterr()
        assert run(command, flag, 1) == 1
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


# each loader with a valid header line for it
_TABLES = {
    "catalog": (load_catalog, dump_catalog([]).strip()),
    "dataset": (load_dataset, "class,chip_seed,addr,checkpoint,f000"),
    "map": (load_map, "addr,latency_us"),
    "probe": (cli._load_probe, "cycle,latency_us"),
}


@pytest.mark.parametrize("fmt", list(_TABLES))
@pytest.mark.parametrize("text", ["", "{header}\n", "{header}\n\n \n"],
                         ids=["empty", "header-only", "header-and-blanks"])
def test_table_without_rows_is_parse_error_at_line_1(tmp_path, fmt, text):
    load, header = _TABLES[fmt]
    path = tmp_path / "table.csv"
    path.write_text(text.format(header=header), encoding="utf-8")
    with pytest.raises(ParseError, match="^line 1: "):
        load(path)


@pytest.mark.parametrize("text", ["", "class,chip_seed,addr,checkpoint,f000\n"],
                         ids=["no-header", "header-only"])
def test_dataset_without_rows_after_class_names_fails_at_line_2(tmp_path, text):
    path = tmp_path / "ds.csv"
    path.write_text("# class_names: 0=a\n" + text, encoding="utf-8")
    with pytest.raises(ParseError, match="^line 2: "):
        load_dataset(path)


# (library function, its parameter, the config key that sets it); the
# config keys' defaults are what `-h` prints
_LIBRARY_DEFAULTS = [
    (load_catalog, "path", "catalog"),
    (build_dataset, "chips_per_class", "chips_per_class"),
    (build_dataset, "group", "group"),
    (build_dataset, "locations_per_chip", "locations_per_chip"),
    (build_dataset, "checkpoints", "checkpoints"),
    (split, "train_fraction", "train_fraction"),
    (split_rows, "train_fraction", "train_fraction"),
    (train_knn, "k", "k"),
    (train_tree, "max_depth", "max_depth"),
    (train_tree, "min_leaf", "min_leaf"),
    (train_svm, "C", "c"),
    (train_svm, "gamma", "gamma"),
    (train_svm, "tol", "tol"),
    (mrmr_select, "k", "select_k"),
    (mrmr_select, "bins", "mrmr_bins"),
    (nca_select, "k", "select_k"),
    (nca_select, "iters", "nca_iters"),
    (nca_select, "learning_rate", "nca_lr"),
    (cross_validate, "folds", "folds"),
    (locate_used_regions, "flag_ratio", "flag_ratio"),
    (detect_recycled, "used_threshold", "used_threshold"),
    (detect_recycled, "fresh_threshold", "fresh_threshold"),
]


def test_cli_defaults_are_the_library_defaults():
    differ = []
    for fn, param, key in _LIBRARY_DEFAULTS:
        library = inspect.signature(fn).parameters[param].default
        if isinstance(library, tuple):
            library = list(library)
        if library != cli._SCHEMA[key].default:
            differ.append((fn.__name__, param, library, cli._SCHEMA[key].default))
    assert differ == []


def test_catalog_dump(tmp_path):
    out = tmp_path / "cat.csv"
    assert run("catalog", "--out", out) == 0
    specs = load_catalog(out)
    assert [s.class_tag for s in specs] == [s.class_tag
                                            for s in load_catalog()]


# ------------------------------------------------------- command surface

_COMMON_FLAGS = {"-h", "--help", "--config", "--out-dir"}
_MODEL_FLAGS = {"--k", "--max-depth", "--min-leaf", "--c", "--gamma", "--tol",
                "--select-k", "--mrmr-bins", "--nca-iters", "--nca-lr"}
# every flag each command took when each was declared by hand, less the
# --seed and --catalog of the commands that never read them
_SURFACE = {
    "catalog": {"--catalog", "--out"},
    "simulate": {"--seed", "--catalog", "--class", "--addr", "--cycles",
                 "--out"},
    "dataset": {"--seed", "--catalog", "--classes", "--chips-per-class",
                "--checkpoints", "--group", "--locations-per-chip", "--split",
                "--no-split", "--train-fraction", "--split-seed", "--out"},
    "train": {"--seed", "--dataset", "--kind", "--selector",
              "--out"} | _MODEL_FLAGS,
    "crossval": {"--seed", "--dataset", "--folds", "--kind", "--selector",
                 "--out"} | _MODEL_FLAGS,
    "eval": {"--model", "--dataset", "--out"},
    "sweep": {"--seed", "--dataset", "--train", "--test", "--train-fraction",
              "--split-seed"} | _MODEL_FLAGS,
    "predict": {"--catalog", "--model", "--probe", "--used-threshold",
                "--fresh-threshold", "--out"},
    "scan": {"--seed", "--catalog", "--map", "--class", "--spots",
             "--flag-ratio", "--map-out", "--out"},
}


def test_command_surface_is_unchanged():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    accepted = {name: {s for a in p._actions for s in a.option_strings}
                for name, p in sub.choices.items()}
    assert accepted == {name: _COMMON_FLAGS | flags
                        for name, flags in _SURFACE.items()}


@pytest.mark.parametrize("command", sorted(_SURFACE))
def test_no_flag_states_two_defaults(command):
    """A key whose default merge_config works out (--out-dir, --split-seed)
    says so in its own help, with no `(default: None)` after it."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    text = sub.choices[command].format_help()
    assert "(default: None)" not in text
    # one entry per flag: a line that starts with two spaces and a dash
    entries = text.split("options:\n", 1)[1].split("\n  -")
    assert len(entries) == len(_COMMON_FLAGS | _SURFACE[command]) - 1 \
        - ("--split" in _SURFACE[command])  # --[no-]split is one entry
    assert [e.split()[0] for e in entries if e.count("(default") > 1] == []
    flat = " ".join(text.split())
    assert "output directory (default $NVMSIG_OUT or '.')" in flat
    if command in ("sweep", "dataset"):
        assert "split stream seed (default: seed)" in flat


def test_dispatch_finds_the_handler_at_call_time(tmp_path, monkeypatch):
    path = tmp_path / "flat.csv"
    save_map(np.full(64, 5.0), path)
    cli.build_parser()  # a parser that held handlers would hold the old one
    calls = []

    def counted(cfg):
        calls.append(cfg.map)
        return real(cfg)

    real = cli.cmd_scan
    monkeypatch.setattr(cli, "cmd_scan", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run("scan", "--map", path) == 0
        assert run("scan", "--map", path) == 0
    assert calls == [str(path)] * 2


# ----------------------------------------------- undecodable and oversized

@pytest.mark.parametrize("argv", [
    ["train", "--dataset", "{bad}"],
    ["eval", "--model", "{bad}", "--dataset", "{bad}"],
    ["predict", "--model", "{model}", "--probe", "{bad}"],
    ["scan", "--map", "{bad}"],
    ["dataset", "--seed", 1, "--catalog", "{bad}"],
    ["simulate", "--config", "{bad}"],
], ids=["dataset", "model", "probe", "map", "catalog", "config"])
def test_undecodable_input_is_validation_error(workdir, tmp_path, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe1,2\n")
    argv = [str(a).format(bad=bad, model=workdir / "knn.model.txt") for a in argv]
    assert run(*argv, "--out-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "error: line 1: not UTF-8 text" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("num_locations", [_BEYOND_INT64, str(1 << 62)])
@pytest.mark.parametrize("command", ["dataset", "scan"])
def test_oversized_catalog_is_validation_error(tmp_path, capsys, num_locations,
                                               command):
    lines = dump_catalog(load_catalog()).splitlines()
    row = lines[1].split(",")
    row[5] = num_locations  # class 0's num_locations
    lines[1] = ",".join(row)
    catalog = tmp_path / "cat.csv"
    catalog.write_text("\n".join(lines) + "\n")
    assert run(command, "--seed", 1, "--catalog", catalog,
               "--out-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err
    if num_locations == _BEYOND_INT64:
        assert "error: line 2: " in err and "int64" in err
    else:
        assert f"error: class0: cannot allocate {num_locations} locations" in err
    assert not (tmp_path / "out").exists()


def test_dataset_refuses_a_repeated_class(tmp_path, capsys):
    # each chip of a repeated class would be drawn twice, so a split could
    # put copies of one probe on both sides
    assert run("dataset", "--seed", 1, "--classes", "1,1",
               "--chips-per-class", 2, "--locations-per-chip", 2,
               "--out-dir", tmp_path / "out") == 1
    assert "error: duplicate class_tag 1\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_dataset_too_large_to_allocate_fails_at_once(tmp_path, capsys):
    assert run("dataset", "--seed", 1, "--chips-per-class", (1 << 63) - 1,
               "--out-dir", tmp_path / "out") == 1
    rows = 9 * ((1 << 63) - 1) * 12 * 7
    assert f"error: cannot allocate a dataset of {rows} rows" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------ mutated input files

_ODD_FIELDS = ["", " ", "x", "nan", "-inf", "1e999", "0x10", "1_0",
               _BEYOND_INT64, "-" + _BEYOND_INT64]


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    """One small valid file of each text format, with the argv that reads
    it through the CLI; `{path}` stands for the (mutated) file."""
    root = tmp_path_factory.mktemp("tiny")
    assert run("dataset", "--seed", 4, "--chips-per-class", 1,
               "--locations-per-chip", 1, "--out-dir", root) == 0
    assert run("train", "--dataset", root / "dataset.csv",
               "--out-dir", root, "--out", "knn.model.txt") == 0
    assert run("simulate", "--seed", 5, "--class", 4, "--cycles", 100,
               "--out", root / "probe.csv") == 0
    chip = new_chip(load_catalog()[0], 3)
    save_map(full_chip_scan(chip), root / "map.csv")
    (root / "catalog.csv").write_text(dump_catalog(load_catalog()))
    (root / "sim.cfg").write_text(
        "# simulate config\nseed = 9\ncatalog = builtin\nclass = 5\n"
        "addr = 3\ncycles = 3\n")
    model, probe = root / "knn.model.txt", root / "probe.csv"
    argv = {
        "dataset": ("dataset.csv", ["train", "--dataset", "{path}", "--kind", "knn"]),
        "map": ("map.csv", ["scan", "--map", "{path}"]),
        "catalog": ("catalog.csv", ["dataset", "--seed", 1, "--catalog", "{path}",
                                    "--chips-per-class", 1,
                                    "--locations-per-chip", 1, "--checkpoints", 0]),
        "probe": ("probe.csv", ["predict", "--model", model, "--probe", "{path}"]),
        "config": ("sim.cfg", ["simulate", "--config", "{path}", "--cycles", 5]),
        "model": ("knn.model.txt", ["predict", "--model", "{path}", "--probe", probe]),
    }
    return {fmt: ((root / name).read_text().splitlines(), command)
            for fmt, (name, command) in argv.items()}


@st.composite
def _mutated(draw, lines):
    """`lines` with one line changed, as the bytes of a file."""
    lines = list(lines)
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["drop", "duplicate", "replace", "insert",
                                "field", "byte"]))
    if how == "drop":
        del lines[i]
    elif how == "duplicate":
        lines.insert(i, lines[i])
    elif how == "replace":
        lines[i] = draw(st.text(max_size=30))
    elif how == "byte":
        j = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:j] + "\udcff" + lines[i][j:]  # encodes as 0xff
    else:
        parts = lines[i].split(",")
        j = draw(st.integers(0, len(parts) - (how == "field")))
        value = draw(st.sampled_from(_ODD_FIELDS) | st.text(max_size=8))
        if how == "insert":
            parts.insert(j, value)
        else:
            parts[j] = value
        lines[i] = ",".join(parts)
    return ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")


@pytest.mark.parametrize("fmt", ["dataset", "map", "catalog", "probe", "config",
                                 "model"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mutated_file_through_cli_exits_cleanly(tiny_inputs, tmp_path_factory,
                                                fmt, data):
    """A file with one bad line runs or fails with exit 1-3 and an error
    line; no exception escapes main."""
    lines, command = tiny_inputs[fmt]
    root = tmp_path_factory.mktemp("mutant")
    path = root / "mutant"
    path.write_bytes(data.draw(_mutated(lines)))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = run(*[str(a).format(path=path) for a in command],
                   "--out-dir", root / "out")
    assert code in (0, 1, 2, 3)
    if code:
        assert any(line.startswith("error:")
                   for line in err.getvalue().splitlines())

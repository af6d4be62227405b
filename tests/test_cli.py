"""End-to-end command-line flows, exit codes, and manifest reproducibility."""

import argparse
import contextlib
import filecmp
import hashlib
import inspect
import io
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvmsig import cli
from nvmsig.chipsim import (SpatialLatencyMap, dump_catalog, full_chip_scan,
                            load_catalog, new_chip)
from nvmsig.classifiers import (cross_validate, svm as svm_core, train_knn,
                                train_svm, train_tree)
from nvmsig.detector import (detect_recycled, load_map, locate_used_regions,
                             save_map)
from nvmsig.errors import ParseError
from nvmsig.features import mrmr_select, nca_select
from nvmsig.protocol import build_dataset, load_dataset, split


def run(*argv):
    return cli.main([str(a) for a in argv])


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
    save_map(SpatialLatencyMap(np.full(64, 5.0)), path)
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


# sha256 of the model files trained on the lab-seed-1 dataset: knn and tree
# as the linked-node tree code wrote them, svm as model.py wrote every core
# block before each core module wrote its own
_LAB1_MODEL_SHA256 = {
    "knn": "24f362f211f98a15ec985e2d182bc7bb72ef023a0a2d8afca7e5db68a51c7805",
    "tree": "f09d08dcfc8a5632907d0d9eb462210892f4fc285f64aa639aa346e6a988011e",
    "svm": "c7d8be1b66207338b609ce1f93b3d13a112dcad80ec12d2a04ba0e88e986c98a",
}


def test_lab_seed_1_model_file_bytes_are_pinned(tmp_path):
    assert run("dataset", "--seed", 1, "--chips-per-class", 2,
               "--locations-per-chip", 2, "--split", "--out-dir", tmp_path) == 0
    for kind, digest in _LAB1_MODEL_SHA256.items():
        out = f"{kind}.model.txt"
        assert run("train", "--kind", kind, "--dataset",
                   tmp_path / "dataset.train.csv", "--out-dir", tmp_path,
                   "--out", out) == 0
        assert hashlib.sha256((tmp_path / out).read_bytes()).hexdigest() \
            == digest, kind


def test_scan_needs_map_or_seed(capsys):
    assert run("scan") == 1
    assert "--seed is required" in capsys.readouterr().err


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


# (library function, its parameter, the config key that sets it)
_LIBRARY_DEFAULTS = [
    (build_dataset, "chips_per_class", "chips_per_class"),
    (build_dataset, "group", "group"),
    (build_dataset, "locations_per_chip", "locations_per_chip"),
    (build_dataset, "checkpoints", "checkpoints"),
    (split, "train_fraction", "train_fraction"),
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

_COMMON_FLAGS = {"-h", "--help", "--config", "--seed", "--catalog", "--out-dir"}
_MODEL_FLAGS = {"--k", "--max-depth", "--min-leaf", "--c", "--gamma", "--tol",
                "--select-k", "--mrmr-bins", "--nca-iters", "--nca-lr"}
# every flag each command took when each was declared by hand
_SURFACE = {
    "catalog": {"--out"},
    "simulate": {"--class", "--addr", "--cycles", "--out"},
    "dataset": {"--classes", "--chips-per-class", "--checkpoints", "--group",
                "--locations-per-chip", "--split", "--no-split",
                "--train-fraction", "--split-seed", "--out"},
    "train": {"--dataset", "--kind", "--selector", "--out"} | _MODEL_FLAGS,
    "crossval": {"--dataset", "--folds", "--kind", "--selector",
                 "--out"} | _MODEL_FLAGS,
    "eval": {"--model", "--dataset", "--out"},
    "sweep": {"--dataset", "--train", "--test", "--train-fraction",
              "--split-seed"} | _MODEL_FLAGS,
    "predict": {"--model", "--probe", "--used-threshold", "--fresh-threshold",
                "--out"},
    "scan": {"--map", "--class", "--spots", "--flag-ratio", "--map-out", "--out"},
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


def test_dispatch_finds_the_handler_at_call_time(tmp_path, monkeypatch):
    path = tmp_path / "flat.csv"
    save_map(SpatialLatencyMap(np.full(64, 5.0)), path)
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

"""The numeric blocks of model, map, probe and dataset files are read by
np.loadtxt in one pass.  These tests hold each loader to a per-line
reference reading with int() and float(), bit for bit, and to the number
grammar that `_atomic.number` states."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nvmsig import cli
from nvmsig._atomic import number, read_block
from nvmsig.chipsim import BUILTIN_CATALOG
from nvmsig.classifiers import load_model, save_model, train
from nvmsig.detector import load_map, save_map
from nvmsig.errors import ParseError
from nvmsig.protocol import build_dataset, load_dataset, save_dataset

def run(*argv):
    return cli.main([str(a) for a in argv])


# ------------------------------------------------- per-line reference reading

def _fields(path, prefix):
    """The fields after `prefix` on each `prefix` line of a model file."""
    return [line.split()[1:] for line in path.read_text().splitlines()
            if line.startswith(prefix + " ")]


def _reference_core(path, kind):
    """The arrays of a model file's core block, one value at a time."""
    if kind == "knn":
        rows = _fields(path, "row")
        return [np.array([int(r[0]) for r in rows], dtype=np.int64),
                np.array([[float(v) for v in r[1:]] for r in rows])]
    if kind == "svm":
        rows, heads = _fields(path, "sv"), _fields(path, "machine")
        return [np.array([float(r[0]) for r in rows]),
                np.array([[float(v) for v in r[1:]] for r in rows]),
                np.array([float(r[3]) for r in heads]),
                np.array([[int(r[0]), int(r[1])] for r in heads], dtype=np.int64),
                np.array([int(r[2]) for r in heads], dtype=np.int64)]
    rows = _fields(path, "node")
    return [np.array([int(r[i]) for r in rows], dtype=np.int64)
            for i in (1, 3, 4, 5)] + [
        np.array([float(r[2]) for r in rows]),
        np.array([[int(c) for c in r[6:]] for r in rows], dtype=np.int64)]


def _core_arrays(model):
    core = model.core
    if model.kind == "knn":
        return [core.y, core.X]
    if model.kind == "svm":
        return [core.alpha_y, core.pool[core.member], core.bias, core.pairs,
                core.counts]
    return [core.feature, core.left, core.right, core.leaf, core.threshold,
            core.counts]


def _reference_table(path):
    """The cells of a CSV file's non-blank rows below its header."""
    lines = path.read_text(encoding="utf-8").splitlines()
    start = 2 if lines[0].startswith("# class_names:") else 1
    return [line.split(",") for line in lines[start:] if line.strip()]


def _assert_same_bytes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


@pytest.fixture(scope="module")
def lab1_sweep(tmp_path_factory):
    """The nine model files of `nvmsig sweep --seed 1` on the lab-seed-1
    split."""
    root = tmp_path_factory.mktemp("lab1sweep")
    assert run("dataset", "--seed", 1, "--chips-per-class", 2,
               "--locations-per-chip", 2, "--split", "--out-dir", root) == 0
    assert run("sweep", "--seed", 1, "--train", root / "dataset.train.csv",
               "--test", root / "dataset.test.csv", "--out-dir", root) == 0
    paths = sorted(root.glob("sweep_*.model.txt"))
    assert len(paths) == 9
    return paths


def test_sweep_model_cores_equal_the_per_line_reading(lab1_sweep):
    for path in lab1_sweep:
        model = load_model(path)
        _assert_same_bytes(_core_arrays(model),
                           _reference_core(path, model.kind))
        if model.kind == "knn":
            assert model.core.X.flags.c_contiguous
        if model.kind == "svm":
            assert model.core.alpha_y.flags.c_contiguous
            assert model.core.pool.flags.c_contiguous


def test_default_split_datasets_equal_the_per_line_reading(tmp_path):
    assert run("dataset", "--seed", 1, "--split", "--out-dir", tmp_path) == 0
    for name in ("dataset.csv", "dataset.train.csv", "dataset.test.csv"):
        rows = _reference_table(tmp_path / name)
        ds = load_dataset(tmp_path / name)
        heads = np.array([[int(c) for c in r[:4]] for r in rows],
                         dtype=np.int64)
        _assert_same_bytes([ds.y, ds.meta, ds.X],
                           [heads[:, 0], heads[:, 1:],
                            np.array([[float(c) for c in r[4:]] for r in rows])])


def test_map_and_probe_equal_the_per_line_reading(tmp_path):
    lat = np.random.default_rng(5).uniform(0.5, 900.0, 1000)
    save_map(lat, tmp_path / "map.csv")
    want = [float(r[1]) for r in _reference_table(tmp_path / "map.csv")]
    _assert_same_bytes([load_map(tmp_path / "map.csv")],
                       [np.array(want)])
    assert run("simulate", "--class", 4, "--cycles", 300, "--seed", 7,
               "--out", tmp_path / "probe.csv") == 0
    want = [float(r[-1]) for r in _reference_table(tmp_path / "probe.csv")]
    _assert_same_bytes([cli._load_probe(tmp_path / "probe.csv")],
                       [np.array(want)])


def _text(value, fmt):
    return repr(value) if fmt == "repr" else fmt % value


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=40),
       fmt=st.sampled_from(["%.9g", "%.6f", "repr"]))
def test_bulk_reals_equal_float_of_each_token(tmp_path_factory, values, fmt):
    texts = [_text(v, fmt) for v in values]
    want = np.array([float(t) for t in texts])
    # whitespace-separated, as in a model file's block
    got = read_block([" ".join(texts)], [1], [("v", np.float64, len(texts))])
    assert got["v"][0].tobytes() == want.tobytes()
    # comma-separated, as in a map
    path = tmp_path_factory.mktemp("reals") / "map.csv"
    path.write_text("addr,latency_us\n" + "".join(
        f"{i},{t}\n" for i, t in enumerate(texts)), encoding="utf-8")
    assert load_map(path).tobytes() == want.tobytes()


_DIGITS = "0123456789+-.eE_ infatyINFAYx\t\x1f"
# ASCII without the line and cell breaks
_ASCII = "".join(chr(c) for c in range(128) if chr(c) not in "\n\r\x0b\x0c\x1c\x1d\x1e,")


@settings(max_examples=500, deadline=None)
@given(token=st.text(alphabet=_DIGITS, min_size=1, max_size=8)
       | st.text(alphabet=_ASCII, min_size=1, max_size=8),
       integer=st.booleans(), spaced=st.booleans())
def test_number_reads_what_np_loadtxt_reads_in_ascii(token, integer, spaced):
    # a block line of one cell: comma-separated, or whitespace-separated
    # with no whitespace inside the cell
    assume(not spaced or len(token.split()) == 1)
    dtype = np.int64 if integer else np.float64
    try:
        bulk = np.loadtxt([token], dtype=dtype, delimiter=None if spaced else ",",
                          comments=None, ndmin=2)
    except ValueError:
        bulk = None
    try:
        value = number(token, integer)
    except ValueError:
        assert bulk is None or not np.isfinite(bulk).all()
    else:
        assert bulk is not None and bulk.shape == (1, 1)
        assert bulk[0, 0].tobytes() == np.array(value, dtype).tobytes()


@given(token=st.text(min_size=1, max_size=8).filter(lambda t: not t.isascii()),
       integer=st.booleans())
def test_number_refuses_text_that_is_not_ascii(token, integer):
    with pytest.raises(ValueError):
        number(token, integer)


# ---------------------------------------------------------- faulty numbers

def _model_file(root, kind):
    y = np.repeat([0, 1, 2], 10)
    X = np.random.default_rng(3).normal(size=(30, 4)) + 3.0 * y[:, None]
    path = root / f"{kind}.model.txt"
    save_model(train(kind, SimpleNamespace(X=X, y=y, class_names={})), path)
    return path


def _files(root):
    """{loader: (load, path, [(line number, cell index)])} of valid files,
    with a cell of each numeric kind that a block holds."""
    files = {}
    for kind, prefix, cells in [("knn", "row ", [1, 2]), ("svm", "sv ", [1, 3]),
                                ("tree", "node ", [3, 7])]:
        path = _model_file(root, kind)
        lines = path.read_text().splitlines()
        at = [i + 1 for i, ln in enumerate(lines) if ln.startswith(prefix)][-1]
        files[kind] = (load_model, path, [(at, c) for c in cells])
    save_map(np.linspace(1.0, 2.0, 8), root / "map.csv")
    files["map"] = (load_map, root / "map.csv", [(4, 0), (4, 1)])
    (root / "probe.csv").write_text("cycle,latency_us\n0,3.5\n1,4.5\n2,5.5\n")
    files["probe"] = (cli._load_probe, root / "probe.csv", [(3, 1)])
    ds = build_dataset(BUILTIN_CATALOG[:2], chips_per_class=1,
                       checkpoints=[0], locations_per_chip=2)
    save_dataset(ds, root / "ds.csv")
    files["dataset"] = (load_dataset, root / "ds.csv",
                        [(4, 0), (4, 3), (4, 5), (5, 103)])
    return files


def _set_cell(path, lineno, index, token):
    sep = " " if path.suffix == ".txt" else ","
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[lineno - 1].split(sep)
    cells[index] = token
    lines[lineno - 1] = sep.join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("loader", ["knn", "svm", "tree", "map", "probe",
                                    "dataset"])
def test_numbers_outside_the_grammar_fail_at_their_line(tmp_path, loader):
    load, path, cells = _files(tmp_path)[loader]
    good = path.read_text(encoding="utf-8")
    load(path)
    # int() and float() take "1_0", "٣" and " 3\xa0"; numpy reads "⥰" as
    # the int64 10560
    for token in ["1_0", "٣", " 3\xa0", "⥰", "nan", "inf", "-Infinity", "1e999"]:
        for lineno, index in cells:
            path.write_text(good, encoding="utf-8")
            _set_cell(path, lineno, index, token)
            with pytest.raises(ParseError, match=f"^line {lineno}: "):
                load(path)


@pytest.mark.parametrize("extra", [1, -1], ids=["one-more", "one-fewer"])
@pytest.mark.parametrize("loader", ["knn", "map", "probe", "dataset"])
def test_a_row_of_the_wrong_width_fails_at_its_line(tmp_path, loader, extra):
    load, path, cells = _files(tmp_path)[loader]
    lineno = cells[0][0]
    sep = " " if path.suffix == ".txt" else ","
    lines = path.read_text(encoding="utf-8").splitlines()
    width = len(lines[lineno - 1].split(sep))
    lines[lineno - 1] = (lines[lineno - 1] + sep + "9" if extra > 0
                         else lines[lineno - 1].rsplit(sep, 1)[0])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"^line {lineno}: expected {width} "
                                         f"columns, got {width + extra}$"):
        load(path)


def _svm_repeats(root):
    """(path, lines, [line numbers of one row text]) of a saved svm whose
    `sv <alpha_y> <row>` lines repeat row texts: every row text that two or
    more machines keep, with its lines in file order."""
    path = _model_file(root, "svm")
    lines = path.read_text().splitlines()
    at = {}
    for n, line in enumerate(lines, 1):
        if line.startswith("sv "):
            at.setdefault(line.split(" ", 2)[2], []).append(n)
    repeats = [ns for ns in at.values() if len(ns) > 1]
    assert len(repeats) >= 3
    return path, lines, repeats


def _write_with(path, lines, edits):
    """`lines`, with `token` as cell `index` of each line in `edits`, a
    {line number: (index, token)}."""
    lines = list(lines)
    for lineno, (index, token) in edits.items():
        cells = lines[lineno - 1].split(" ")
        cells[index] = token
        lines[lineno - 1] = " ".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("token", ["nan", "٣", "1_0"])
def test_svm_row_cell_fault_is_named_at_the_first_line_of_its_row(tmp_path,
                                                                  token):
    path, lines, repeats = _svm_repeats(tmp_path)
    for ns in repeats:
        for index in (2, 5):  # the row's first and last of its 4 cells
            # the row text, fault and all, repeats on later lines
            _write_with(path, lines, {n: (index, token) for n in ns})
            with pytest.raises(ParseError, match=f"^line {ns[0]}: "):
                load_model(path)
            # the fault on a later line only: its row text starts there
            _write_with(path, lines, {ns[-1]: (index, token)})
            with pytest.raises(ParseError, match=f"^line {ns[-1]}: "):
                load_model(path)


@pytest.mark.parametrize("token", ["nan", "٣", "1_0", "inf", "", "3\xa0"])
def test_svm_coefficient_fault_on_a_repeated_row_is_named_at_its_line(tmp_path,
                                                                      token):
    path, lines, repeats = _svm_repeats(tmp_path)
    for ns in repeats:
        for n in ns[1:]:
            _write_with(path, lines, {n: (1, token)})
            with pytest.raises(ParseError, match=f"^line {n}: "):
                load_model(path)


def test_a_non_ascii_space_in_a_repeated_sv_line_is_named_at_its_line(tmp_path):
    # str.split() would take '\xa0' for the space it replaces
    path, lines, repeats = _svm_repeats(tmp_path)
    for ns in repeats:
        # after `sv`, after the coefficient
        for sep, match in ((1, "expected 'sv ...'"), (2, "a row of numbers must be ASCII")):
            bad = list(lines)
            cells = bad[ns[-1] - 1].split(" ")
            bad[ns[-1] - 1] = " ".join(cells[:sep]) + "\xa0" + " ".join(cells[sep:])
            path.write_text("\n".join(bad) + "\n", encoding="utf-8")
            with pytest.raises(ParseError, match=f"^line {ns[-1]}: {match}"):
                load_model(path)


def test_of_an_svm_coefficient_and_row_fault_the_earlier_line_is_named(tmp_path):
    path, lines, repeats = _svm_repeats(tmp_path)
    first = next(n for n, line in enumerate(lines, 1) if line.startswith("sv "))
    last = max(n for ns in repeats for n in ns)
    n = repeats[0][1]  # a coefficient read on its own
    assert first < n < last
    _write_with(path, lines, {n: (1, "nan"), last: (3, "nan")})
    with pytest.raises(ParseError, match=f"^line {n}: "):
        load_model(path)
    _write_with(path, lines, {n: (1, "nan"), first: (3, "nan")})
    with pytest.raises(ParseError, match=f"^line {first}: "):
        load_model(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_dataset_non_finite_latency_is_parse_error_at_its_line(tmp_path, token):
    ds = build_dataset(BUILTIN_CATALOG[:1], chips_per_class=1,
                       checkpoints=[0], locations_per_chip=4)
    save_dataset(ds, tmp_path / "ds.csv")
    _set_cell(tmp_path / "ds.csv", 5, 50, token)
    with pytest.raises(ParseError, match=f"^line 5: '{token}' is not a finite"):
        load_dataset(tmp_path / "ds.csv")


# ------------------------------------------------------------ edge cases

def _tables(root):
    """{loader: (load, text of a valid file, lines above the first row)}"""
    ds = build_dataset(BUILTIN_CATALOG[:2], chips_per_class=1,
                       checkpoints=[0], locations_per_chip=2)
    ds.class_names = {t: f"c{t}" for t in np.unique(ds.y).tolist()}
    save_dataset(ds, root / "ds.csv")
    save_map(np.linspace(1.0, 2.0, 5), root / "map.csv")
    return {"dataset": (load_dataset, (root / "ds.csv").read_text(), 2),
            "map": (load_map, (root / "map.csv").read_text(), 1),
            "probe": (cli._load_probe,
                      "cycle,latency_us\n0,3.5\n1,4.5\n2,5.5\n", 1)}


def _arrays(loaded):
    if isinstance(loaded, np.ndarray):
        return [loaded]
    return [loaded.X, loaded.y, loaded.meta]


# no warning, np.loadtxt's "input contained no data" included, may escape
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("loader", ["dataset", "map", "probe"])
def test_header_only_table_has_no_data_rows(tmp_path, loader):
    load, text, top = _tables(tmp_path)[loader]
    head = text.splitlines()[:top]
    for tail in ([], [""], ["", " \t"]):
        (tmp_path / "t.csv").write_text("\r\n".join(head + tail) + "\r\n")
        with pytest.raises(ParseError, match=f"^line {top}: no data rows$"):
            load(tmp_path / "t.csv")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("loader", ["dataset", "map", "probe"])
@pytest.mark.parametrize("blank", ["", " ", " \t　"])
def test_blank_lines_and_crlf_anywhere_load_the_same(tmp_path, loader, blank):
    load, text, top = _tables(tmp_path)[loader]
    path = tmp_path / "t.csv"
    path.write_text(text)
    want = _arrays(load(path))
    lines = text.splitlines()
    bad = lines[:-1] + [lines[-1] + ",9"]
    for at in range(top, len(lines) + 1):
        for end in ("\n", "\r\n"):
            path.write_bytes(end.join(lines[:at] + [blank, blank] + lines[at:]
                                      + [""]).encode("utf-8"))
            _assert_same_bytes(_arrays(load(path)), want)
            # a fault in the last row is named at its line of the file
            path.write_bytes(end.join(bad[:at] + [blank, blank] + bad[at:]
                                      + [""]).encode("utf-8"))
            lineno = len(lines) + 2 * (at < len(lines))
            with pytest.raises(ParseError, match=f"^line {lineno}: "):
                load(path)


@pytest.mark.parametrize("kind,prefix,field", [("knn", "selection ", 2),
                                               ("tree", "core tree ", 3)])
def test_an_oversized_count_fails_before_it_sizes_a_record(tmp_path, kind,
                                                          prefix, field):
    # 10**8 indices or tags would size an 800 MB record
    path = _model_file(tmp_path, kind)
    lines = path.read_text().splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
    _set_cell(path, at + 1, field, str(10 ** 8))
    with pytest.raises(ParseError, match=f"^line {at + 2}: .*expected 100000000 "):
        load_model(path)


_ARABIC_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@pytest.mark.parametrize("kind,prefix,field", [("tree", "arity ", 1),
                                               ("tree", "n_train ", 1),
                                               ("knn", "selection ", 2),
                                               ("tree", "core tree ", 2),
                                               ("svm", "machine ", 3)])
def test_model_header_integers_follow_the_grammar(tmp_path, kind, prefix,
                                                  field):
    path = _model_file(tmp_path, kind)
    good = path.read_text()
    at = next(i for i, ln in enumerate(good.splitlines())
              if ln.startswith(prefix)) + 1
    value = good.splitlines()[at - 1].split(" ")[field]
    # the same integer to int(), with a separator and in Arabic-Indic digits
    for token in ("0_" + value, value.translate(_ARABIC_DIGITS)):
        path.write_text(good)
        _set_cell(path, at, field, token)
        with pytest.raises(ParseError, match=f"^line {at}: "):
            load_model(path)

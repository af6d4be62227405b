import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvmsig import _atomic, protocol
from nvmsig._atomic import atomic_open, format_rows, read_lines
from nvmsig._rng import derive_seed
from nvmsig.chipsim import (
    BUILTIN_CATALOG,
    ChipClassSpec,
    OpKind,
    Technology,
    cycle_location,
    full_chip_scan,
    latency_at,
    latency_block,
    new_chip,
)
from nvmsig.classifiers import load_model, save_model, train_knn
from nvmsig.detector import save_map
from nvmsig.errors import ParseError, ValidationError
from nvmsig.protocol import (
    DEFAULT_CHECKPOINTS,
    Dataset,
    Side,
    build_dataset,
    latency_stats,
    load_dataset,
    save_dataset,
    split,
    split_rows,
)


def toy_spec(**kw):
    base = dict(
        class_tag=0, manufacturer="Acme", capacity_label="1Mb",
        technology=Technology.NOR_FLASH, op_kind=OpKind.SECTOR_ERASE,
        num_locations=64, base_latency_us=100.0, drift_amplitude=1.0,
        drift_exponent=1.0, drift_ref_cycles=10000, noise_sigma=0.0,
        chip_sigma=0.0, loc_sigma=0.0,
    )
    base.update(kw)
    return ChipClassSpec(**base)


def small_dataset(n_per_class=12, arity=4, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    n = n_per_class * classes
    X = rng.normal(size=(n, arity))
    y = np.repeat(np.arange(classes), n_per_class)
    meta = np.zeros((n, 3), dtype=np.int64)
    return Dataset(X, y, meta, {i: f"class{i}" for i in range(classes)})


# ---------------- build_dataset ----------------

def test_build_dataset_minimal():
    ds = build_dataset([toy_spec()], chips_per_class=1, checkpoints=[0],
                       locations_per_chip=1)
    assert len(ds) == 1
    assert ds.arity == 100
    assert ds.meta[0, 2] == 0


def test_build_dataset_count_formula():
    ds = build_dataset(BUILTIN_CATALOG[:2], chips_per_class=2,
                       checkpoints=[0, 1000, 5000], locations_per_chip=3)
    assert len(ds) == 2 * 2 * 3 * 3


def test_build_dataset_default_is_about_2250():
    ds = build_dataset(BUILTIN_CATALOG)
    assert len(ds) == 9 * 3 * 12 * 7 == 2268
    assert ds.arity == 100
    assert ds.class_counts() == {t: 252 for t in range(9)}


def test_build_dataset_deterministic():
    a = build_dataset(BUILTIN_CATALOG[:1], chips_per_class=2,
                      checkpoints=[0, 1000], locations_per_chip=4, seed=9)
    b = build_dataset(BUILTIN_CATALOG[:1], chips_per_class=2,
                      checkpoints=[0, 1000], locations_per_chip=4, seed=9)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.meta, b.meta)


def test_build_dataset_checkpoint_means_increase_noise_off():
    spec = toy_spec()
    ds = build_dataset([spec], chips_per_class=1, checkpoints=[0, 50000],
                       locations_per_chip=2)
    m0 = ds.X[ds.meta[:, 2] == 0].mean()
    m5 = ds.X[ds.meta[:, 2] == 50000].mean()
    assert m5 > m0
    assert np.all(ds.meta[:, 2][1::2] == 50000)


def test_build_dataset_groups_are_consecutive_cycles_of_one_location():
    # every row must replay exactly from (chip_seed, addr, checkpoint)
    ds = build_dataset(BUILTIN_CATALOG[3:5], chips_per_class=1,
                       checkpoints=[0, 1000, 5000], locations_per_chip=2,
                       seed=3)
    spec_by_tag = {s.class_tag: s for s in BUILTIN_CATALOG}
    for i in range(len(ds)):
        seed_, addr, ck = ds.meta[i]
        chip = new_chip(spec_by_tag[int(ds.y[i])], int(seed_))
        cycle_location(chip, int(addr), int(ck))
        assert np.array_equal(latency_block(chip, int(addr), ds.arity), ds.X[i])


def _reference_dataset(catalog, chips_per_class, checkpoints, group,
                       locations_per_chip, seed):
    """build_dataset as a probe-by-probe loop: fast-forward, then sample."""
    rows, labels, meta = [], [], []
    for spec in catalog:
        for ci in range(chips_per_class):
            chip_seed = derive_seed(seed, spec.class_tag, ci) & ((1 << 63) - 1)
            chip = new_chip(spec, chip_seed)
            rng = np.random.default_rng(derive_seed(0xD5, chip_seed))
            addrs = np.sort(rng.choice(spec.num_locations,
                                       size=locations_per_chip, replace=False))
            for addr in addrs.tolist():
                for ck in checkpoints:
                    cycle_location(chip, addr, ck - int(chip.wear[addr]))
                    rows.append(latency_block(chip, addr, group))
                    labels.append(spec.class_tag)
                    meta.append((chip_seed, addr, ck))
    return np.array(rows), np.array(labels), np.array(meta)


@pytest.mark.parametrize("classes,chips,locations,checkpoints,group,seed", [
    (range(9), 2, 2, DEFAULT_CHECKPOINTS, 100, 1),
    ((3, 0, 8), 1, 12, DEFAULT_CHECKPOINTS, 100, 12345),
    ((5,), 3, 1, (0, 150, 400), 150, 7),
    ((2, 6), 2, 5, (250, 1000, 20000), 37, 2**40 + 3),
])
def test_build_dataset_equals_probe_by_probe_sampling(classes, chips, locations,
                                                      checkpoints, group, seed):
    catalog = [BUILTIN_CATALOG[t] for t in classes]
    ds = build_dataset(catalog, chips_per_class=chips, checkpoints=checkpoints,
                       group=group, locations_per_chip=locations, seed=seed)
    X, y, meta = _reference_dataset(catalog, chips, checkpoints, group,
                                    locations, seed)
    assert ds.X.tobytes() == X.tobytes()
    assert ds.y.dtype == y.dtype and np.array_equal(ds.y, y)
    assert ds.meta.dtype == meta.dtype and np.array_equal(ds.meta, meta)


def test_build_dataset_validations():
    with pytest.raises(ValidationError):
        build_dataset([])
    with pytest.raises(ValidationError):
        build_dataset([toy_spec()], checkpoints=[0, 50], group=100)
    with pytest.raises(ValidationError):
        build_dataset([toy_spec()], checkpoints=[1000, 1000])
    with pytest.raises(ValidationError):
        build_dataset([toy_spec()], checkpoints=[-5, 1000])
    with pytest.raises(ValidationError, match="65 locations requested, chip has 64"):
        build_dataset([toy_spec()], locations_per_chip=65)
    with pytest.raises(ValidationError, match="int64"):
        build_dataset([toy_spec()], checkpoints=[0, (1 << 63) - 99])
    # a size no array can hold fails at once instead of filling chip by chip
    rows = ((1 << 63) - 1) * 12 * len(DEFAULT_CHECKPOINTS)
    with pytest.raises(ValidationError, match=f"dataset of {rows} rows"):
        build_dataset([toy_spec()], chips_per_class=(1 << 63) - 1)
    # a repeated class would draw the same chips twice
    with pytest.raises(ValidationError, match="duplicate class_tag 1"):
        build_dataset([toy_spec(), toy_spec(class_tag=1), toy_spec(class_tag=1)])


# ---------------- split ----------------

def test_split_default_dataset_counts():
    ds = build_dataset(BUILTIN_CATALOG)
    tr, te = split(ds, 0.8, seed=1)
    assert len(tr) == 1818 and len(te) == 450
    for tag, cnt in tr.class_counts().items():
        assert cnt == 202  # round(0.8 * 252)


def test_split_is_partition():
    ds = small_dataset()
    tr, te = split(ds, 0.7, seed=4)
    key = lambda d: {tuple(row) for row in d.X}
    assert key(tr) | key(te) == key(ds)
    assert not key(tr) & key(te)


def test_split_two_sample_class():
    ds = small_dataset(n_per_class=2, classes=2)
    tr, te = split(ds, 0.5, seed=0)
    assert tr.class_counts() == te.class_counts() == {0: 1, 1: 1}


def test_split_deterministic_in_seed():
    ds = small_dataset()
    a1, _ = split(ds, 0.8, seed=11)
    a2, _ = split(ds, 0.8, seed=11)
    b, _ = split(ds, 0.8, seed=12)
    assert np.array_equal(a1.X, a2.X)
    assert not np.array_equal(a1.X, b.X)


def test_split_rejects_tiny_class_and_bad_fraction():
    ds = small_dataset(n_per_class=1, classes=2)
    with pytest.raises(ValidationError):
        split(ds, 0.8, seed=0)
    with pytest.raises(ValidationError):
        split(small_dataset(), 1.0, seed=0)


def test_split_is_the_subset_at_split_rows():
    ds = small_dataset(n_per_class=7, classes=4, seed=3)
    ds.y = np.array([9, 2, 5, 0])[ds.y]  # classes stored out of tag order
    tr_idx, te_idx = split_rows(ds.y, 0.6, seed=5)
    tr, te = split(ds, 0.6, seed=5)
    assert np.array_equal(tr.X, ds.X[tr_idx]) and np.array_equal(te.X, ds.X[te_idx])
    assert np.array_equal(np.sort(np.concatenate([tr_idx, te_idx])), np.arange(28))
    assert list(dict.fromkeys(tr.y)) == [0, 2, 5, 9]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 40), frac=st.floats(0.05, 0.95), seed=st.integers(0, 99))
def test_split_proportions_property(n, frac, seed):
    ds = small_dataset(n_per_class=n, classes=3, seed=seed)
    tr, te = split(ds, frac, seed=seed)
    assert len(tr) + len(te) == len(ds)
    want = int(np.floor(frac * n + 0.5))
    want = min(max(want, 1), n - 1)
    assert all(c == want for c in tr.class_counts().values())


# ---------------- latency_stats ----------------

def test_latency_stats_default_shape():
    out = latency_stats(BUILTIN_CATALOG)
    assert len(out) == 9 * 8
    for w in out:
        assert w.n == 500
    per_class = {}
    for w in out:
        per_class.setdefault(w.class_tag, []).append(w)
    assert all(len(v) == 8 for v in per_class.values())


def test_latency_stats_single_sample_window():
    out = latency_stats([toy_spec()], chips=1, locations=1,
                        checkpoints=[100], span=1)
    assert len(out) == 2
    for w in out:
        assert w.n == 1
        assert w.mean == w.min == w.max
        assert w.stdev == 0.0


def test_latency_stats_after36k_exceeds_before1k():
    out = latency_stats(BUILTIN_CATALOG)
    for tag in range(9):
        mine = [w for w in out if w.class_tag == tag]
        b1k = next(w for w in mine if w.checkpoint == 1000 and w.side is Side.BEFORE)
        a36k = next(w for w in mine if w.checkpoint == 36000 and w.side is Side.AFTER)
        assert a36k.mean > b1k.mean


def test_latency_stats_window_ranges_disjoint():
    # BEFORE of ckpt c is (c-span, c], AFTER is (c, c+span]: reconstruct and
    # compare against direct wear-range sampling
    spec = toy_spec(noise_sigma=0.01)
    out = latency_stats([spec], chips=1, locations=1, checkpoints=[200, 400],
                        span=50, seed=5)
    from nvmsig._rng import derive_seed
    chip_seed = derive_seed(5, 0, 0, 0x57) & ((1 << 63) - 1)
    chip = new_chip(spec, chip_seed)
    import numpy as _np
    for w in out:
        lo = w.checkpoint - 50 if w.side is Side.BEFORE else w.checkpoint
        wears = _np.arange(lo, lo + 50)
        # the one sampled location is deterministic given the seed
        addr = int(_chip_addr(spec, chip_seed))
        vals = latency_at(chip, _np.full(50, addr), wears)
        assert w.mean == pytest.approx(vals.mean(), rel=1e-12)


def _chip_addr(spec, chip_seed):
    from nvmsig._rng import derive_seed as d
    rng = np.random.default_rng(d(0x57, chip_seed))
    return np.sort(rng.choice(spec.num_locations, size=1, replace=False))[0]


def test_latency_stats_validations():
    with pytest.raises(ValidationError):
        latency_stats([toy_spec()], span=0)
    with pytest.raises(ValidationError):
        latency_stats([toy_spec()], checkpoints=[100, 150], span=50)
    with pytest.raises(ValidationError):
        latency_stats([toy_spec()], checkpoints=[10], span=50)
    with pytest.raises(ValidationError, match="int64"):
        latency_stats([toy_spec()], checkpoints=[(1 << 63) - 10], span=50)
    with pytest.raises(ValidationError, match="checkpoints is empty"):
        latency_stats([toy_spec()], checkpoints=[])


# sizes that numpy refuses outright, so no host can grant them
@pytest.mark.parametrize("kw", [{"chips": (1 << 63) - 1},
                                {"checkpoints": [1 << 62], "span": 1 << 62}],
                         ids=["chips", "span"])
def test_latency_stats_too_large_to_allocate_is_validation_error(kw):
    with pytest.raises(ValidationError, match="cannot allocate"):
        latency_stats(BUILTIN_CATALOG, **kw)


def stats_digest(stats):
    """sha256 of each window's (class, checkpoint, side, n) as int64, then
    of its (mean, stdev, min, max) as float64."""
    ints = np.array([(w.class_tag, w.checkpoint, w.side is Side.AFTER, w.n)
                     for w in stats], dtype=np.int64)
    reals = np.array([(w.mean, w.stdev, w.min, w.max) for w in stats])
    return hashlib.sha256(ints.tobytes() + reals.tobytes()).hexdigest()


def test_default_latency_stats_are_pinned():
    # as computed while latency_stats sampled its chips in a loop of its own
    assert stats_digest(latency_stats(BUILTIN_CATALOG)) == \
        "f134140bbfd8388ae28aff09a7c9f22ee3466685609ab60aa58c9b564b767599"


# ---------------- persistence ----------------

def test_dataset_round_trip(tmp_path):
    ds = build_dataset(BUILTIN_CATALOG[:3], chips_per_class=1,
                       checkpoints=[0, 1000], locations_per_chip=2)
    path = tmp_path / "ds.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)
    assert np.array_equal(back.meta, ds.meta)
    assert back.class_names == ds.class_names


def test_dataset_class_names_with_commas_round_trip(tmp_path):
    ds = small_dataset()
    ds.class_names = {0: "Microchip Technology, Inc. AT28C64", 1: "a=b, 1 =c,",
                      2: " spaced "}
    path = tmp_path / "ds.csv"
    save_dataset(ds, path)
    assert load_dataset(path).class_names == ds.class_names


def _with_class_names_line(tmp_path, body):
    path = tmp_path / "ds.csv"
    save_dataset(small_dataset(), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([f"# class_names: {body}", *lines[1:]]) + "\n",
                    encoding="utf-8")
    return path


# int() takes each of these tags
@pytest.mark.parametrize("tag", ["0_0", "\u0660", "99999999999999999999999"],
                         ids=["separator", "arabic-indic-digit", "beyond-int64"])
def test_dataset_class_name_tag_follows_the_number_grammar(tmp_path, tag):
    path = _with_class_names_line(tmp_path, f"{tag}=a")
    with pytest.raises(ParseError, match="^line 1: bad class_names entry"):
        load_dataset(path)


def test_dataset_class_name_tag_given_twice_is_parse_error(tmp_path):
    path = _with_class_names_line(tmp_path, "0=a,0=b")
    with pytest.raises(ParseError, match="^line 1: repeated class_names tag 0$"):
        load_dataset(path)


@pytest.mark.parametrize("name", ["two\nlines", "carriage\r", "A,3=B", "A,-3=B"])
def test_dataset_unstorable_class_name_rejected(tmp_path, name):
    ds = small_dataset()
    ds.class_names[1] = name
    path = tmp_path / "ds.csv"
    with pytest.raises(ValidationError, match="class 1"):
        save_dataset(ds, path)
    assert not path.exists()


@pytest.mark.parametrize("shape", [(0, 4), (5, 0)], ids=["no-rows", "no-features"])
def test_dataset_that_would_not_load_is_not_saved(tmp_path, shape):
    ds = Dataset(np.zeros(shape), np.zeros(shape[0]), np.zeros((shape[0], 3)))
    path = tmp_path / "ds.csv"
    with pytest.raises(ValidationError, match="need >= 1 of each"):
        save_dataset(ds, path)
    assert not path.exists()


def test_save_dataset_parts_equal_saves_of_the_subsets(tmp_path):
    ds = small_dataset(n_per_class=50, classes=3, seed=2)
    rows = [np.array([149, 0, 3, 3, 77]), np.arange(150)[::-1]]
    save_dataset(ds, tmp_path / "full.csv",
                 [(r, tmp_path / f"part{i}.csv") for i, r in enumerate(rows)])
    for i, r in enumerate(rows):
        save_dataset(ds.subset(r), tmp_path / f"ref{i}.csv")
        assert (tmp_path / f"part{i}.csv").read_bytes() == \
            (tmp_path / f"ref{i}.csv").read_bytes()
    save_dataset(ds, tmp_path / "ref.csv")
    assert (tmp_path / "full.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("rows", [[], [0, 36], [-1], [[0, 1]], [0.0]],
                         ids=["empty", "past-end", "negative", "2-d", "float"])
def test_save_dataset_bad_part_rows_open_no_file(tmp_path, rows):
    ds = small_dataset()
    with pytest.raises(ValidationError, match="part's rows"):
        save_dataset(ds, tmp_path / "full.csv", [(rows, tmp_path / "part.csv")])
    assert list(tmp_path.iterdir()) == []


def test_split_write_peak_memory_is_about_one_file(tmp_path):
    # the row text is kept once, a block at a time: a whole-matrix tolist()
    # or a whole-file join would peak at several times the file's size
    ds = build_dataset(BUILTIN_CATALOG)
    tr_idx, te_idx = split_rows(ds.y, 0.8, seed=1)
    parts = [(tr_idx, tmp_path / "ds.train.csv"), (te_idx, tmp_path / "ds.test.csv")]
    tracemalloc.start()
    try:
        save_dataset(ds, tmp_path / "ds.csv", parts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * (tmp_path / "ds.csv").stat().st_size


def test_atomic_open_failure_keeps_the_old_file(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("new\n")
            raise RuntimeError("interrupted")
    assert path.read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.txt"]


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_read_lines_matches_text_mode_reading(tmp_path, newline):
    path = tmp_path / "f.txt"
    path.write_bytes(newline.join(["a", "", "b,c ", "\u00e9"]).encode() + b"\n")
    with open(path, encoding="utf-8") as fh:
        assert read_lines(path) == fh.read().splitlines() == ["a", "", "b,c ", "\u00e9"]


def test_read_lines_names_the_line_of_a_bad_byte(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"a\r\nb\n\xe9t\xe9\n")
    with pytest.raises(ParseError, match="line 3: not UTF-8"):
        read_lines(path)


def test_read_lines_names_the_line_of_a_bad_byte_after_lone_carriage_returns(
        tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"a\rb\r\xe9t\xe9\r")
    with pytest.raises(ParseError, match="line 3: not UTF-8"):
        read_lines(path)


@pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029"])
def test_read_lines_breaks_only_at_newlines_and_carriage_returns(tmp_path, sep):
    path = tmp_path / "f.txt"
    path.write_text(f"a{sep}b\nc\r\n{sep}\rd", encoding="utf-8", newline="")
    assert read_lines(path) == [f"a{sep}b", "c", sep, "d"]


def test_a_class_name_holding_a_form_feed_round_trips(tmp_path):
    ds = small_dataset()
    ds.class_names = {0: "form\ffeed", 1: "\x1cgroup\x85", 2: "plain"}
    save_dataset(ds, tmp_path / "ds.csv")
    back = load_dataset(tmp_path / "ds.csv")
    assert back.class_names == ds.class_names
    assert np.array_equal(back.y, ds.y)
    save_model(train_knn(back, k=3), tmp_path / "m.txt")
    assert load_model(tmp_path / "m.txt").class_names == ds.class_names


def test_dataset_file_shape(tmp_path):
    ds = build_dataset(BUILTIN_CATALOG[:1], chips_per_class=1,
                       checkpoints=[0], locations_per_chip=3)
    path = tmp_path / "ds.csv"
    save_dataset(ds, path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[1].split(",")[:4] == ["class", "chip_seed", "addr", "checkpoint"]
    assert len(lines) == 2 + 3
    assert "\r" not in text
    assert lines[1].split(",")[4] == "f000"
    assert lines[1].split(",")[-1] == "f099"


def test_dataset_wrong_column_count_rejected(tmp_path):
    ds = build_dataset(BUILTIN_CATALOG[:1], chips_per_class=1,
                       checkpoints=[0], locations_per_chip=2)
    path = tmp_path / "ds.csv"
    save_dataset(ds, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = ",".join(lines[2].split(",")[:-1])  # drop one feature column
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 3"):
        load_dataset(path)


def test_dataset_header_must_match(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("class,chip_seed,addr\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_dataset(path)


def _reference_save(ds, path):
    """save_dataset's format written one value at a time."""
    lines = []
    if ds.class_names:
        lines.append("# class_names: " + ",".join(
            f"{t}={ds.class_names[t]}" for t in sorted(ds.class_names)))
    lines.append(",".join(["class", "chip_seed", "addr", "checkpoint"]
                          + [f"f{i:03d}" for i in range(ds.arity)]))
    for i in range(len(ds)):
        lines.append(",".join([str(ds.y[i])] + [str(v) for v in ds.meta[i]]
                              + [f"{v:.6f}" for v in ds.X[i]]))
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


# exact ties at the sixth decimal (k / 128) among them
_EDGE_FLOATS = [0.0, -0.0, 5e-7, -5e-7, 1e300, -1e300, 0.0078125, -0.0234375,
                1.0078125, 123.4564995, np.nan, np.inf, -np.inf]


@st.composite
def _datasets(draw, finite):
    """Random int64 y/meta and float64 X: every bit pattern (NaN, ±inf and
    subnormals included), latency-scale values and the edge values above."""
    n = draw(st.integers(1, 200))
    arity = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sources = np.stack([
        rng.integers(0, 2**64, (n, arity), dtype=np.uint64).view(np.float64),
        np.round(rng.uniform(-1000, 1000, (n, arity)), 7),
        rng.choice(_EDGE_FLOATS, (n, arity)),
    ])
    X = np.take_along_axis(sources, rng.integers(0, 3, (1, n, arity)), 0)[0]
    if finite:
        X[~np.isfinite(X)] = 1.5
    y = rng.integers(-2**63, 2**63 - 1, n, dtype=np.int64, endpoint=True)
    meta = rng.integers(-2**63, 2**63 - 1, (n, 3), dtype=np.int64,
                        endpoint=True)
    names = draw(st.sampled_from([{}, {0: "a", -3: "b c"}]))
    return Dataset(X, y, meta, names)


@settings(max_examples=40, deadline=None)
@given(ds=_datasets(finite=False))
def test_save_dataset_bytes_equal_per_value_formatting(tmp_path_factory, ds):
    root = tmp_path_factory.mktemp("save")
    save_dataset(ds, root / "fast.csv")
    _reference_save(ds, root / "ref.csv")
    assert (root / "fast.csv").read_bytes() == (root / "ref.csv").read_bytes()


@settings(max_examples=20, deadline=None)
@given(ds=_datasets(finite=True))
def test_save_load_round_trip_of_rounded_values(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("trip") / "ds.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    want = np.array([[float(f"{v:.6f}") for v in row] for row in ds.X])
    assert np.array_equal(back.X, want)
    assert np.array_equal(back.y, ds.y)
    assert np.array_equal(back.meta, ds.meta)
    assert back.class_names == ds.class_names


@st.composite
def _rows(draw):
    """(ints, reals) of 1-300 rows: int64 columns of every width and sign,
    and float64 columns drawn from a random subset of four sources: every
    bit pattern, 6-decimal values across the micro grid's range, 2-decimal
    latencies and the edge values above.  So some draws lie wholly on the
    grid and some mix every kind."""
    n = draw(st.integers(1, 300))
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = sorted(draw(st.sets(st.integers(0, 3), min_size=1)))
    sources = np.stack([
        rng.integers(0, 2**64, (n, b), dtype=np.uint64).view(np.float64),
        np.round(rng.uniform(-2**31, 2**31, (n, b)), 6),
        np.round(rng.uniform(0, 5000, (n, b)), 2),
        rng.choice(_EDGE_FLOATS, (n, b)),
    ])
    reals = np.take_along_axis(sources, rng.choice(kinds, (1, n, b)), 0)[0]
    ints = rng.integers(-2**63, 2**63 - 1, (n, a), dtype=np.int64, endpoint=True)
    return ints >> rng.integers(0, 64, (n, a)), reals


@settings(max_examples=60, deadline=None)
@given(rows=_rows())
def test_format_rows_equals_the_per_row_template(rows):
    ints, reals = rows
    template = ",".join(["%d"] * ints.shape[1] + ["%.6f"] * reals.shape[1]) + "\n"
    with np.errstate(all="raise"):
        text = format_rows(ints, reals)
    assert text == "".join(template % (*i, *r)
                           for i, r in zip(ints.tolist(), reals.tolist()))


@settings(max_examples=40, deadline=None)
@given(rows=_rows())
def test_save_map_bytes_equal_per_value_formatting(tmp_path_factory, rows):
    lat = rows[1][:, 0]
    path = tmp_path_factory.mktemp("map") / "map.csv"
    with np.errstate(all="raise"):
        save_map(lat, path)
    assert path.read_bytes() == ("addr,latency_us\n" + "".join(
        f"{addr},{v:.6f}\n" for addr, v in enumerate(lat))).encode()


def test_save_dataset_blocks_on_and_off_the_grid_equal_per_value_formatting(
        tmp_path, monkeypatch):
    """Four write blocks: the second holds a value of every kind the micro
    grid refuses, and the third one value past 2**31 that passes the
    rint check but whose `%.6f` differs from the grid's digits, so those
    two blocks alone are formatted row by row; the fourth holds the
    grid's extremes.  The full file and its parts, whose rows come
    shuffled, equal the reference and the saves of the subsets."""
    block = protocol._SAVE_BLOCK
    rng = np.random.default_rng(5)
    n = 3 * block + 7
    X = np.round(rng.uniform(50, 1500, (n, 6)), 2)
    X[block + 3] = [0.1 + 0.2, np.nan, 1e300, -0.0, 2**31 - 1e-6, -(2**31 - 1e-6)]
    X[block + 9, :2] = [2**31, -2**31]
    X[2 * block + 4, 1] = 17179869184.384167  # the grid would write .384166
    X[3 * block + 2] = [-0.0, 2**31 - 1e-6, -(2**31 - 1e-6), 0.0, 1e-6, -1e-6]
    y = rng.integers(-2**63, 2**63 - 1, n, dtype=np.int64, endpoint=True)
    meta = rng.integers(-2**63, 2**63 - 1, (n, 3), dtype=np.int64, endpoint=True)
    meta[::5] = [0, -1, 9]
    ds = Dataset(X, y, meta, {2: "two"})
    order = rng.permutation(n)
    parts = [order[:n // 3], order[n // 3:]]
    per_row, template_rows = [], _atomic._template_rows
    monkeypatch.setattr(_atomic, "_template_rows", lambda ints, reals: (
        per_row.append(len(ints)) or template_rows(ints, reals)))
    with np.errstate(all="raise"):
        save_dataset(ds, tmp_path / "full.csv",
                     [(r, tmp_path / f"part{i}.csv") for i, r in enumerate(parts)])
    assert per_row == [block, block]
    _reference_save(ds, tmp_path / "ref.csv")
    assert (tmp_path / "full.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    for i, r in enumerate(parts):
        got = (tmp_path / f"part{i}.csv").read_bytes()
        _reference_save(ds.subset(r), tmp_path / "ref.csv")
        save_dataset(ds.subset(r), tmp_path / "sub.csv")
        assert got == (tmp_path / "ref.csv").read_bytes() == (tmp_path / "sub.csv").read_bytes()


def test_simulated_latencies_never_reach_the_per_row_template(tmp_path, monkeypatch):
    """Every latency the simulator makes is on the micro grid, and so is
    every value read back from a dataset file, so the writer's fast path
    is the only one these files take."""
    def refuse(ints, reals):
        raise AssertionError("a row was formatted by the per-row template")

    ds = build_dataset(BUILTIN_CATALOG, chips_per_class=2, locations_per_chip=2, seed=1)
    tr_idx, te_idx = split_rows(ds.y, 0.8, seed=1)
    _reference_save(ds, tmp_path / "ref.csv")
    monkeypatch.setattr(_atomic, "_template_rows", refuse)
    with np.errstate(all="raise"):
        save_dataset(ds, tmp_path / "ds.csv", [(tr_idx, tmp_path / "ds.train.csv"),
                                               (te_idx, tmp_path / "ds.test.csv")])
        save_dataset(load_dataset(tmp_path / "ds.csv"), tmp_path / "again.csv")
        save_map(full_chip_scan(new_chip(BUILTIN_CATALOG[2], 5)), tmp_path / "map.csv")
    assert (tmp_path / "ds.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes() \
        == (tmp_path / "again.csv").read_bytes()

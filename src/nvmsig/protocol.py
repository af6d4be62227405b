"""Measurement protocols on top of the chip simulator.

Covers the three data products the analysis pipeline consumes: the
grouped-sampling dataset (100 consecutive latencies per group at fixed wear
checkpoints), windowed before/after statistics, and the stratified
train/test split.  Plus CSV persistence for datasets.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field

import numpy as np

from ._atomic import (atomic_open, format_rows, has_line_break, number, read_block,
                      read_lines, read_table)
from ._rng import derive_seed
from .chipsim import latency_at, new_chip
from .errors import ParseError, ValidationError

__all__ = [
    "Dataset",
    "Side",
    "WindowStats",
    "build_dataset",
    "split",
    "split_rows",
    "latency_stats",
    "save_dataset",
    "load_dataset",
    "DEFAULT_CHECKPOINTS",
    "DEFAULT_GROUP",
    "DEFAULT_LOCATIONS_PER_CHIP",
    "DEFAULT_STATS_CHECKPOINTS",
]

DEFAULT_CHECKPOINTS = (0, 1000, 5000, 10000, 15000, 30000, 50000)
DEFAULT_GROUP = 100
DEFAULT_LOCATIONS_PER_CHIP = 12
DEFAULT_STATS_CHECKPOINTS = (1000, 6000, 16000, 36000)
_BASE_COLUMNS = ["class", "chip_seed", "addr", "checkpoint"]  # before the features

# stream tags keeping location draws independent between protocols
_STREAM_DATASET_LOCS = 0xD5
_STREAM_STATS_LOCS = 0x57
_STREAM_SPLIT = 0x5B

# chip seeds ride in an int64 metadata column, so keep them to 63 bits
_SEED_MASK = (1 << 63) - 1

# rows per format_rows call in save_dataset: enough to amortise its fixed
# cost of about 0.2 ms, few enough that its working arrays (about 0.4 MB
# at 100 features, five times the block's text) add little peak memory
# to the one copy of the file's text that split parts keep, which
# tests/test_protocol.py bounds at 1.3 times the file's size
_SAVE_BLOCK = 64


@dataclass
class Dataset:
    """Sample matrix plus labels and per-sample provenance.

    Rows of `X` are feature vectors (consecutive latencies in µs unless the
    dataset has been standardized); `meta` columns are
    (chip_seed, addr, checkpoint).
    """

    X: np.ndarray
    y: np.ndarray
    meta: np.ndarray
    class_names: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        self.meta = np.asarray(self.meta, dtype=np.int64)
        if self.X.ndim != 2:
            raise ValidationError("X must be 2-D")
        if len(self.y) != len(self.X) or len(self.meta) != len(self.X):
            raise ValidationError("X, y and meta must have equal lengths")
        if self.meta.shape[1] != 3:
            raise ValidationError("meta must have columns (chip_seed, addr, checkpoint)")

    def __len__(self) -> int:
        return len(self.X)

    @property
    def arity(self) -> int:
        return self.X.shape[1]

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(self.X[idx], self.y[idx], self.meta[idx],
                       dict(self.class_names))

    def class_counts(self) -> dict[int, int]:
        tags, counts = np.unique(self.y, return_counts=True)
        return {int(t): int(c) for t, c in zip(tags, counts)}


class Side(enum.Enum):
    BEFORE = "BEFORE"
    AFTER = "AFTER"


@dataclass(frozen=True)
class WindowStats:
    class_tag: int
    checkpoint: int
    side: Side
    mean: float
    stdev: float
    min: float
    max: float
    n: int


def _sample(specs, chips, locations, checkpoints, lo, hi, seed_of, stream):
    """Latencies of every chip of every spec at wears ck+lo .. ck+hi-1 of
    each checkpoint ck, as one specs x chips x locations x checkpoints x
    (hi - lo) array.

    Chip `ci` of a spec has seed `seed_of(class_tag, ci)` (kept to 63 bits)
    and `locations` sorted distinct addresses drawn from `stream`.  The
    windows must ascend without overlapping, the first must start at wear
    >= 0 and the last must end inside the int64 wear counter.  Every array
    is allocated before the first chip is drawn, so a size that cannot be
    held fails at once.  Latency depends only on (chip, addr, wear), so
    each chip takes one `latency_at` call over its locations and wears.
    Returns (latencies, chip seeds, addresses, checkpoints).
    """
    if chips < 1 or locations < 1:
        raise ValidationError("chip and location counts must be >= 1")
    ckpts = [int(c) for c in checkpoints]
    if not ckpts:
        raise ValidationError("checkpoints is empty")
    if ckpts[0] + lo < 0:
        raise ValidationError(f"first checkpoint must be >= {-lo}")
    if any(b + lo < a + hi for a, b in zip(ckpts, ckpts[1:])):
        raise ValidationError(f"checkpoints must ascend by >= {hi - lo} "
                              "cycles so that their windows do not overlap")
    if ckpts[-1] + hi > 1 << 63:
        raise ValidationError(f"checkpoint {ckpts[-1]} plus {hi} passes the "
                              "int64 wear counter")
    for spec in specs:
        if locations > spec.num_locations:
            raise ValidationError(
                f"class{spec.class_tag}: {locations} locations requested, "
                f"chip has {spec.num_locations}")
    shape = (len(specs), chips, locations, len(ckpts))
    try:
        lat = np.empty(shape + (hi - lo,))
        seeds = np.empty(shape[:2], dtype=np.int64)
        addrs = np.empty(shape[:3], dtype=np.int64)
    except (ValueError, MemoryError):
        raise ValidationError(f"cannot allocate a dataset of {math.prod(shape)} "
                              f"rows x {hi - lo} latencies") from None
    wears = np.array(ckpts, dtype=np.int64)[:, None] + np.arange(lo, hi)
    for s, spec in enumerate(specs):
        for ci in range(chips):
            seeds[s, ci] = seed = seed_of(spec.class_tag, ci) & _SEED_MASK
            chip = new_chip(spec, seed)
            rng = np.random.default_rng(derive_seed(stream, seed))
            addrs[s, ci] = np.sort(rng.choice(spec.num_locations,
                                              size=locations, replace=False))
            lat[s, ci] = latency_at(chip, addrs[s, ci, :, None, None], wears)
    return lat, seeds, addrs, ckpts


def build_dataset(catalog, chips_per_class: int = 3,
                  checkpoints=DEFAULT_CHECKPOINTS, group: int = DEFAULT_GROUP,
                  locations_per_chip: int = DEFAULT_LOCATIONS_PER_CHIP,
                  seed: int = 1) -> Dataset:
    """Grouped-sampling dataset over every (class, chip, location, checkpoint).

    The row of checkpoint `ck` holds the latencies at wears
    ck .. ck + group - 1: each location is fast-forwarded to each
    checkpoint's wear in ascending order and then sampled `group`
    consecutive advancing cycles, so a checkpoint must be at least `group`
    cycles past the previous one (wear only moves forward).  Sample count
    is exactly len(catalog) * chips_per_class * locations_per_chip *
    len(checkpoints), allocated up front.  Rows run in catalog order, then
    chip, address and checkpoint.
    """
    catalog = list(catalog)
    if not catalog:
        raise ValidationError("catalog is empty")
    tags = [s.class_tag for s in catalog]
    for i, tag in enumerate(tags):
        if tag in tags[:i]:  # its chips would be drawn twice
            raise ValidationError(f"duplicate class_tag {tag}")
    if group < 1:
        raise ValidationError("group must be >= 1")
    lat, seeds, addrs, ckpts = _sample(
        catalog, chips_per_class, locations_per_chip, checkpoints, 0, group,
        lambda tag, ci: derive_seed(seed, tag, ci), _STREAM_DATASET_LOCS)
    meta = np.empty(lat.shape[:4] + (3,), dtype=np.int64)
    meta[..., 0] = seeds[:, :, None, None]
    meta[..., 1] = addrs[..., None]
    meta[..., 2] = ckpts
    X = lat.reshape(-1, group)
    y = np.repeat(np.array(tags, dtype=np.int64), len(X) // len(tags))
    return Dataset(X, y, meta.reshape(-1, 3),
                   {s.class_tag: s.label for s in catalog})


def split_rows(y, train_fraction: float = 0.8, seed: int = 1):
    """(train, test) row indices of a stratified split of labels `y`; per
    class the train count is round(fraction * count), both sides non-empty.
    Classes are drawn in ascending tag order, each side's rows class by
    class."""
    if not 0 < train_fraction < 1:
        raise ValidationError("train_fraction must be in (0, 1)")
    y = np.asarray(y)
    rng = np.random.default_rng(derive_seed(seed, _STREAM_SPLIT))
    tr_idx, te_idx = [], []
    for tag in np.unique(y):
        idx = np.where(y == tag)[0]
        if len(idx) < 2:
            raise ValidationError(
                f"class {tag} has {len(idx)} sample(s); need >= 2 to stratify")
        idx = rng.permutation(idx)
        # round half up, clamped so both sides stay non-empty
        n_tr = int(np.floor(train_fraction * len(idx) + 0.5))
        n_tr = min(max(n_tr, 1), len(idx) - 1)
        tr_idx.append(idx[:n_tr])
        te_idx.append(idx[n_tr:])
    return np.concatenate(tr_idx), np.concatenate(te_idx)


def split(ds: Dataset, train_fraction: float = 0.8, seed: int = 1):
    """Stratified split of `ds` at the rows of `split_rows`."""
    tr_idx, te_idx = split_rows(ds.y, train_fraction, seed)
    return ds.subset(tr_idx), ds.subset(te_idx)


def latency_stats(specs, chips: int = 2, locations: int = 5,
                  checkpoints=DEFAULT_STATS_CHECKPOINTS, span: int = 50,
                  seed: int = 0) -> list[WindowStats]:
    """Before/after window statistics around wear checkpoints, for each
    spec of the iterable `specs`.

    For every checkpoint c the BEFORE window covers cycles (c-span, c] and
    AFTER covers (c, c+span], pooled over `chips` chips with `locations`
    random locations each, so n = span * chips * locations per window.
    """
    if span < 1:
        raise ValidationError("span must be >= 1")
    specs = list(specs)
    # the windows of checkpoint ck cover wears ck-span .. ck+span-1
    lat, _, _, ckpts = _sample(
        specs, chips, locations, checkpoints, -span, span,
        lambda tag, ci: derive_seed(seed, tag, ci, _STREAM_STATS_LOCS),
        _STREAM_STATS_LOCS)
    out = []
    for s, spec in enumerate(specs):
        for k, ck in enumerate(ckpts):
            for side, half in ((Side.BEFORE, slice(None, span)),
                               (Side.AFTER, slice(span, None))):
                # pooled in (chip, location, wear) order
                vals = lat[s, :, :, k, half].reshape(-1)
                out.append(WindowStats(
                    class_tag=spec.class_tag, checkpoint=ck, side=side,
                    mean=float(vals.mean()), stdev=float(vals.std()),
                    min=float(vals.min()), max=float(vals.max()),
                    n=int(vals.size)))
    return out


def _feature_columns(arity):
    return [f"f{i:03d}" for i in range(arity)]


# the class_names line splits only at a comma that opens a `<tag>=` entry
_NAME_SEP = re.compile(r",(?=-?\d+=)")


def save_dataset(ds: Dataset, path, parts=()) -> None:
    """CSV with one row per sample; latencies as fixed 6-decimal µs.

    Rows are formatted by `format_rows`, `_SAVE_BLOCK` rows per call, with
    the text of `str` of an int64 and `f"{v:.6f}"` of a float64.  For
    each `(rows, part_path)` of `parts`, `part_path` gets the same header
    and the rows of `ds` at index array `rows`, in that order, cut from
    the text already formatted for `path`: the bytes
    `save_dataset(ds.subset(rows), part_path)` writes.  Everything is
    checked before the first file is opened.
    """
    for tag, name in ds.class_names.items():
        if has_line_break(name) or _NAME_SEP.search(name):
            raise ValidationError(f"class {tag} name {name!r} cannot be stored: "
                                  "it holds a line break or ',<int>='")
    # load_dataset refuses a file without rows or without feature columns
    if not len(ds) or not ds.arity:
        raise ValidationError(f"cannot store a dataset of {len(ds)} rows x "
                              f"{ds.arity} features: need >= 1 of each")
    parts = [(_part_rows(rows, len(ds)), part_path) for rows, part_path in parts]
    head_lines = ""
    if ds.class_names:
        names = ",".join(f"{t}={ds.class_names[t]}"
                         for t in sorted(ds.class_names))
        head_lines = f"# class_names: {names}\n"
    head_lines += ",".join(_BASE_COLUMNS + _feature_columns(ds.arity)) + "\n"
    head = np.column_stack((ds.y, ds.meta))
    blocks = []  # each block's text and row offsets, kept only for the parts
    with atomic_open(path) as fh:
        fh.write(head_lines)
        for start in range(0, len(ds), _SAVE_BLOCK):
            text = format_rows(head[start:start + _SAVE_BLOCK],
                               ds.X[start:start + _SAVE_BLOCK])
            fh.write(text)
            if parts:
                ends = np.flatnonzero(np.frombuffer(text.encode("ascii"), np.uint8)
                                      == ord("\n")) + 1
                blocks.append((text, [0, *ends.tolist()]))

    def row_text(r):
        text, at = blocks[r // _SAVE_BLOCK]
        i = r % _SAVE_BLOCK
        return text[at[i]:at[i + 1]]

    for rows, part_path in parts:
        with atomic_open(part_path) as fh:
            fh.write(head_lines)
            for start in range(0, len(rows), _SAVE_BLOCK):
                fh.write("".join(map(row_text, rows[start:start + _SAVE_BLOCK])))


def _part_rows(rows, n) -> list[int]:
    """`rows` as a list of row indices into a dataset of `n` rows; a part
    must hold at least one row so that it can be read back."""
    rows = np.asarray(rows)
    if rows.ndim != 1 or not rows.size or rows.dtype.kind not in "iu" \
            or rows.min() < 0 or rows.max() >= n:
        raise ValidationError(f"a part's rows must be a non-empty list of "
                              f"row indices in [0, {n})")
    return rows.tolist()


def load_dataset(path) -> Dataset:
    lines = read_lines(path)
    class_names: dict[int, str] = {}
    first = 1
    if lines and lines[0].startswith("# class_names:"):
        body = lines[0].split(":", 1)[1].lstrip()  # a name may end in a space
        if body:
            for part in _NAME_SEP.split(body):
                tag, _, name = part.partition("=")
                try:
                    tag = number(tag, True)
                except ValueError as exc:
                    raise ParseError(f"bad class_names entry {part!r}", line=1) from exc
                if tag in class_names:
                    raise ParseError(f"repeated class_names tag {tag}", line=1)
                class_names[tag] = name
        first = 2

    def header_fault(cells):
        ok = len(cells) > 4 and cells[:4] == _BASE_COLUMNS and \
            cells[4:] == _feature_columns(len(cells) - 4)
        return None if ok else "bad dataset header"

    header, rows, linenos = read_table(lines[first - 1:], header_fault, first=first)
    rec = read_block(rows, linenos, [("head", np.int64, 4),
                                     ("X", np.float64, len(header) - 4)], delimiter=",")
    # views of the records: copying X out of them raised the peak RSS of
    # reading back split datasets by about 9%
    heads = rec["head"]
    return Dataset(rec["X"], heads[:, 0], heads[:, 1:], class_names)

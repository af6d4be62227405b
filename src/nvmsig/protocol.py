"""Measurement protocols on top of the chip simulator.

Covers the four data products the analysis pipeline consumes: long cycling
traces, the grouped-sampling dataset (100 consecutive latencies per group
at fixed wear checkpoints), windowed before/after statistics, and the
stratified train/test split.  Plus CSV persistence for datasets.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

import numpy as np

from ._atomic import atomic_open, has_line_break, parse_int64, read_lines, read_table
from ._rng import derive_seed
from .chipsim import ChipClassSpec, latency_at, latency_block, new_chip
from .errors import ParseError, ValidationError

__all__ = [
    "LatencyTrace",
    "Dataset",
    "Side",
    "WindowStats",
    "collect_trace",
    "build_dataset",
    "split",
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

# rows per write in save_dataset: enough to amortise the call, few enough
# that one block of text (about 70 kB at 100 features) adds no peak memory
_SAVE_BLOCK = 64


@dataclass
class LatencyTrace:
    """One location cycled continuously; cycle_index counts from 1."""

    class_tag: int
    chip_seed: int
    addr: int
    cycles: np.ndarray
    latencies: np.ndarray

    def __post_init__(self):
        if len(self.cycles) != len(self.latencies):
            raise ValidationError("cycles and latencies must align")
        if len(self.cycles) and np.any(np.diff(self.cycles) <= 0):
            raise ValidationError("cycle_index must be strictly increasing")
        if np.any(self.latencies <= 0):
            raise ValidationError("latencies must be positive")

    def __len__(self) -> int:
        return len(self.cycles)


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


def collect_trace(spec: ChipClassSpec, chip_seed: int, addr: int,
                  n_cycles: int) -> LatencyTrace:
    """Cycle one fresh location continuously, recording every latency."""
    if n_cycles < 1:
        raise ValidationError("n_cycles must be >= 1")
    chip = new_chip(spec, chip_seed)
    lat = latency_block(chip, addr, n_cycles)
    return LatencyTrace(class_tag=spec.class_tag, chip_seed=chip_seed,
                        addr=addr, cycles=np.arange(1, n_cycles + 1),
                        latencies=lat)


def _chip_locations(spec, chip_seed, count, stream):
    if count > spec.num_locations:
        raise ValidationError(
            f"class{spec.class_tag}: {count} locations requested, "
            f"chip has {spec.num_locations}")
    rng = np.random.default_rng(derive_seed(stream, chip_seed))
    return np.sort(rng.choice(spec.num_locations, size=count, replace=False))


def build_dataset(catalog, chips_per_class: int = 3,
                  checkpoints=DEFAULT_CHECKPOINTS, group: int = DEFAULT_GROUP,
                  locations_per_chip: int = DEFAULT_LOCATIONS_PER_CHIP,
                  seed: int = 1) -> Dataset:
    """Grouped-sampling dataset over every (class, chip, location, checkpoint).

    Each location is fast-forwarded to each checkpoint's wear in ascending
    order and then sampled `group` consecutive advancing cycles, so a
    checkpoint must be at least `group` cycles past the previous one (wear
    only moves forward).  Sample count is exactly
    len(catalog) * chips_per_class * locations_per_chip * len(checkpoints),
    and the arrays are allocated for it up front, so a count that cannot be
    held fails at once with a ValidationError.

    Latency depends only on (chip, addr, wear), so the row of checkpoint
    `ck` holds the latencies at wears ck .. ck + group - 1.  Each chip takes
    one `latency_at` call over all its locations and checkpoints, which
    gives the same values as sampling each probe in turn.  Rows run in
    catalog order, then chip, address and checkpoint.
    """
    catalog = list(catalog)
    if not catalog:
        raise ValidationError("catalog is empty")
    if chips_per_class < 1 or locations_per_chip < 1:
        raise ValidationError("chips_per_class and locations_per_chip must be >= 1")
    if group < 1:
        raise ValidationError("group must be >= 1")
    ckpts = [int(c) for c in checkpoints]
    if not ckpts:
        raise ValidationError("checkpoints is empty")
    if any(c < 0 for c in ckpts):
        raise ValidationError("checkpoints must be >= 0")
    if any(b <= a for a, b in zip(ckpts, ckpts[1:])):
        raise ValidationError("checkpoints must be strictly ascending")
    if any(b - a < group for a, b in zip(ckpts, ckpts[1:])):
        raise ValidationError(
            f"checkpoint spacing must be >= group ({group}) cycles")
    if ckpts[-1] + group > 1 << 63:
        raise ValidationError(
            f"checkpoint {ckpts[-1]} plus group {group} passes the int64 "
            "wear counter")

    n_rows = locations_per_chip * len(ckpts)  # per chip
    total = len(catalog) * chips_per_class * n_rows
    try:
        X = np.empty((total, group))
        y = np.empty(total, dtype=np.int64)
        meta = np.empty((total, 3), dtype=np.int64)
    except (ValueError, MemoryError):
        raise ValidationError(f"cannot allocate a dataset of {total} rows "
                              f"x {group} latencies") from None
    ckpts = np.array(ckpts, dtype=np.int64)
    wears = ckpts[:, None] + np.arange(group, dtype=np.int64)
    start = 0
    for spec in catalog:
        for ci in range(chips_per_class):
            chip_seed = derive_seed(seed, spec.class_tag, ci) & _SEED_MASK
            chip = new_chip(spec, chip_seed)
            addrs = _chip_locations(spec, chip_seed, locations_per_chip,
                                    _STREAM_DATASET_LOCS)
            rows = slice(start, start + n_rows)
            X[rows] = latency_at(chip, addrs[:, None, None], wears).reshape(
                n_rows, group)
            y[rows] = spec.class_tag
            meta[rows, 0] = chip_seed
            meta[rows, 1] = np.repeat(addrs, len(ckpts))
            meta[rows, 2] = np.tile(ckpts, locations_per_chip)
            start += n_rows
    names = {s.class_tag: s.label for s in catalog}
    return Dataset(X, y, meta, names)


def split(ds: Dataset, train_fraction: float = 0.8, seed: int = 1):
    """Stratified split; per-class train count = round(fraction * count)."""
    if not 0 < train_fraction < 1:
        raise ValidationError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(derive_seed(seed, _STREAM_SPLIT))
    tr_idx, te_idx = [], []
    for tag in np.unique(ds.y):
        idx = np.where(ds.y == tag)[0]
        if len(idx) < 2:
            raise ValidationError(
                f"class {tag} has {len(idx)} sample(s); need >= 2 to stratify")
        idx = rng.permutation(idx)
        # round half up, clamped so both sides stay non-empty
        n_tr = int(np.floor(train_fraction * len(idx) + 0.5))
        n_tr = min(max(n_tr, 1), len(idx) - 1)
        tr_idx.append(idx[:n_tr])
        te_idx.append(idx[n_tr:])
    return ds.subset(np.concatenate(tr_idx)), ds.subset(np.concatenate(te_idx))


def latency_stats(specs, chips: int = 2, locations: int = 5,
                  checkpoints=DEFAULT_STATS_CHECKPOINTS, span: int = 50,
                  seed: int = 0) -> list[WindowStats]:
    """Before/after window statistics around wear checkpoints.

    For every checkpoint c the BEFORE window covers cycles (c-span, c] and
    AFTER covers (c, c+span], pooled over `chips` chips with `locations`
    random locations each, so n = span * chips * locations per window.
    Each chip takes one `latency_at` call over its locations x checkpoints
    x 2*span wears.
    """
    if span < 1:
        raise ValidationError("span must be >= 1")
    if chips < 1 or locations < 1:
        raise ValidationError("chips and locations must be >= 1")
    ckpts = [int(c) for c in checkpoints]
    if any(b <= a for a, b in zip(ckpts, ckpts[1:])):
        raise ValidationError("checkpoints must be strictly ascending")
    if ckpts and ckpts[0] < span:
        raise ValidationError("first checkpoint must be >= span")
    if any(b - span < a + span for a, b in zip(ckpts, ckpts[1:])):
        raise ValidationError("windows overlap: need checkpoint gaps >= 2*span")

    if ckpts and ckpts[-1] + span > 1 << 63:
        raise ValidationError(
            f"checkpoint {ckpts[-1]} plus span {span} passes the int64 wear "
            "counter")

    if isinstance(specs, ChipClassSpec):
        specs = [specs]
    # the windows of checkpoint ck cover wears ck-span .. ck+span-1
    wears = np.array(ckpts, dtype=np.int64)[:, None] + np.arange(-span, span)
    out = []
    for spec in specs:
        lat = np.empty((chips, locations) + wears.shape)
        for ci in range(chips):
            chip_seed = derive_seed(seed, spec.class_tag, ci,
                                    _STREAM_STATS_LOCS) & _SEED_MASK
            addrs = _chip_locations(spec, chip_seed, locations,
                                    _STREAM_STATS_LOCS)
            lat[ci] = latency_at(new_chip(spec, chip_seed), addrs[:, None, None],
                                 wears)
        for k, ck in enumerate(ckpts):
            for side, half in ((Side.BEFORE, slice(None, span)),
                               (Side.AFTER, slice(span, None))):
                # pooled in (chip, location, wear) order
                vals = lat[:, :, k, half].reshape(-1)
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


def save_dataset(ds: Dataset, path) -> None:
    """CSV with one row per sample; latencies as fixed 6-decimal µs.

    Rows are formatted with one `%`-template per row and written in blocks
    of `_SAVE_BLOCK` rows; `%d` and `%.6f` give the same text as `str` of
    an int64 and `f"{v:.6f}"` of a float64.
    """
    for tag, name in ds.class_names.items():
        if has_line_break(name) or _NAME_SEP.search(name):
            raise ValidationError(f"class {tag} name {name!r} cannot be stored: "
                                  "it holds a line break or ',<int>='")
    cols = _BASE_COLUMNS + _feature_columns(ds.arity)
    template = "%d,%d,%d,%d" + ",%.6f" * ds.arity + "\n"
    head = np.column_stack((ds.y, ds.meta))
    with atomic_open(path) as fh:
        if ds.class_names:
            names = ",".join(f"{t}={ds.class_names[t]}"
                             for t in sorted(ds.class_names))
            fh.write(f"# class_names: {names}\n")
        fh.write(",".join(cols) + "\n")
        for start in range(0, len(ds), _SAVE_BLOCK):
            stop = start + _SAVE_BLOCK
            fh.write("".join(
                template % (*h, *x) for h, x in
                zip(head[start:stop].tolist(), ds.X[start:stop].tolist())))


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
                    class_names[int(tag)] = name
                except ValueError as exc:
                    raise ParseError(f"bad class_names entry {part!r}", line=1) from exc
        first = 2

    def header_fault(cells):
        ok = len(cells) > 4 and cells[:4] == _BASE_COLUMNS and \
            cells[4:] == _feature_columns(len(cells) - 4)
        return None if ok else "bad dataset header"

    heads = []  # (class, chip_seed, addr, checkpoint) of each row

    def parse_row(cells):
        heads.append(tuple(map(parse_int64, cells[:4])))
        return np.array(cells[4:], dtype=np.float64)

    X = np.array(read_table(lines[first - 1:], header_fault, parse_row,
                            first=first))
    heads = np.array(heads, dtype=np.int64)
    return Dataset(X, heads[:, 0], heads[:, 1:], class_names)

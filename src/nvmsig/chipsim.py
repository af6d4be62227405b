"""Seeded generative model of NVM program/erase latency under wear.

Each chip class is described by a small parameter set (base latency, a
power-law drift term, an optional one-time step, and three variability
sigmas).  Latency at a location with cumulative cycle count ``w`` is

    L = base * chip_factor * loc_factor(addr)
             * (1 + a * (w / c_ref)**b) * step(w) * exp(eps)

with ``eps ~ Normal(0, noise_sigma**2)`` keyed by (chip_seed, addr, w),
quantized to 0.01 us.  Keying the noise on the wear counter rather than a
stream position makes sampling order irrelevant: a trace can be replayed
from (class, seed, addr) metadata alone.

The builtin catalog is synthetic.  Class tags, manufacturers, capacities
and technologies mirror a real nine-chip survey; every numeric curve
parameter is a calibration constant chosen so the classes are distinct but
not trivially separable, and location counts are desk-scale rather than
full chip capacities.
"""

from __future__ import annotations

import csv
import enum
import io
import math
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from ._atomic import has_line_break, parse_int64, read_lines, read_table
from ._rng import hashed_normal
from .errors import ParseError, ValidationError

__all__ = [
    "Technology",
    "OpKind",
    "ChipClassSpec",
    "ChipInstance",
    "BUILTIN_CATALOG",
    "load_catalog",
    "dump_catalog",
    "new_chip",
    "latency_at",
    "latency_block",
    "cycle_location",
    "full_chip_scan",
    "expected_latency",
    "mean_latency_curve",
]

QUANTUM_US = 0.01  # measurement resolution of the emulated rig

# hash-stream tags so chip factors, location factors and read noise never
# collide even for equal seeds
_TAG_CHIP = 0x11
_TAG_LOC = 0x22
_TAG_NOISE = 0x33

_FACTOR_FLOOR = 0.05  # keeps multiplicative factors positive for any sigma
_WEAR_MAX = (1 << 63) - 1  # wear counters are int64


class Technology(enum.Enum):
    NOR_FLASH = "NOR_FLASH"
    CBRAM = "CBRAM"
    RRAM = "RRAM"


class OpKind(enum.Enum):
    SECTOR_ERASE = "SECTOR_ERASE"
    PAGE_WRITE = "PAGE_WRITE"


@dataclass(frozen=True)
class ChipClassSpec:
    """Latency/degradation parameterization of one chip class."""

    class_tag: int
    manufacturer: str
    capacity_label: str
    technology: Technology
    op_kind: OpKind
    num_locations: int
    base_latency_us: float
    drift_amplitude: float
    drift_exponent: float
    drift_ref_cycles: int
    noise_sigma: float
    chip_sigma: float
    loc_sigma: float
    step_cycles: int | None = None
    step_factor: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"{f.name} must be finite, got {value}")
        for name in ("manufacturer", "capacity_label"):
            # `load_catalog` reads one row per line
            if has_line_break(getattr(self, name)):
                raise ValidationError(f"{name} {getattr(self, name)!r} cannot be "
                                      "stored: it holds a line break")
        if not 0 <= self.class_tag <= 8:
            raise ValidationError(f"class_tag must be in 0..8, got {self.class_tag}")
        if self.base_latency_us <= 0:
            raise ValidationError("base_latency_us must be positive")
        if self.num_locations < 64:
            raise ValidationError("num_locations must be >= 64")
        if self.drift_amplitude < 0:
            raise ValidationError("drift_amplitude must be >= 0")
        if not 0 < self.drift_exponent <= 2:
            raise ValidationError("drift_exponent must be in (0, 2]")
        if self.drift_ref_cycles < 1:
            raise ValidationError("drift_ref_cycles must be positive")
        for name in ("noise_sigma", "chip_sigma", "loc_sigma"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        if (self.step_cycles is None) != (self.step_factor is None):
            raise ValidationError("step_cycles and step_factor must be set together")
        if self.step_cycles is not None and self.step_cycles < 1:
            raise ValidationError("step_cycles must be positive")
        if self.step_factor is not None and self.step_factor < 1:
            raise ValidationError("step_factor must be >= 1")
        if self.technology is Technology.NOR_FLASH:
            if self.op_kind is not OpKind.SECTOR_ERASE:
                raise ValidationError("NOR_FLASH classes use SECTOR_ERASE")
        elif self.op_kind is not OpKind.PAGE_WRITE:
            raise ValidationError("CBRAM/RRAM classes use PAGE_WRITE")

    @property
    def label(self) -> str:
        return f"{self.manufacturer} {self.capacity_label} {self.technology.value}"


def _spec(tag, manufacturer, capacity, tech, *rest):
    """A spec with op_kind set by technology; `rest` is the later fields."""
    op = OpKind.SECTOR_ERASE if tech is Technology.NOR_FLASH else OpKind.PAGE_WRITE
    return ChipClassSpec(tag, manufacturer, capacity, tech, op, *rest)


# Synthetic defaults.  Curve constraints observed here:
#  - drift is negligible below ~100 cycles (fresh probes stay fresh),
#  - every class clears a 1.6x mean elevation by 10k cycles,
#  - no class sits inside the ambiguous 1.42x-1.60x elevation band at the
#    canonical used-location cycle counts (1k/5k/10k/20k/30k/50k),
#  - Macronix 64/128Mb and the two Fujitsu RRAM parts are deliberately
#    close at low wear so classification stays below 100%.
BUILTIN_CATALOG: tuple[ChipClassSpec, ...] = (
    _spec(0, "Macronix", "4Mb", Technology.NOR_FLASH, 128, 399.7, 1.500, 1.118, 10000, 0.020, 0.006, 0.004),
    _spec(1, "Macronix", "64Mb", Technology.NOR_FLASH, 1024, 300.0, 0.650, 1.400, 10000, 0.021, 0.006, 0.004),
    _spec(2, "Macronix", "128Mb", Technology.NOR_FLASH, 2048, 303.0, 1.350, 0.967, 10000, 0.019, 0.006, 0.004),
    _spec(3, "Micron", "128Mb", Technology.NOR_FLASH, 2048, 459.7, 0.884, 1.376, 10000, 0.021, 0.006, 0.004, 20000, 1.15),
    _spec(4, "Winbond", "8Mb", Technology.NOR_FLASH, 256, 174.2, 1.475, 1.197, 10000, 0.020, 0.006, 0.004),
    _spec(5, "Microchip", "2Mb", Technology.NOR_FLASH, 64, 155.0, 1.494, 1.226, 10000, 0.019, 0.006, 0.004),
    _spec(6, "Adesto", "256kb", Technology.CBRAM, 128, 68.0, 0.678, 1.143, 10000, 0.022, 0.006, 0.004),
    _spec(7, "Fujitsu", "4Mb", Technology.RRAM, 1024, 92.0, 0.767, 1.386, 10000, 0.020, 0.006, 0.004),
    _spec(8, "Fujitsu", "8Mb", Technology.RRAM, 2048, 98.0, 1.426, 1.114, 10000, 0.020, 0.006, 0.004),
)

_CATALOG_FIELDS = [f.name for f in fields(ChipClassSpec)]


def _cell_text(value):
    """A catalog cell: reals as `repr`, enums by value, None as empty."""
    if value is None:
        return ""
    if isinstance(value, enum.Enum):
        return value.value
    return repr(value) if isinstance(value, float) else value


def _cell_parser(hint):
    """Text -> value for a catalog field annotated `hint`; an empty cell is
    None for an optional field."""
    kinds = [k for k in typing.get_args(hint) if k is not type(None)]
    if kinds:
        inner = _cell_parser(kinds[0])
        return lambda text: inner(text) if text else None
    return parse_int64 if hint is int else hint  # float, str or an enum


_CELL_PARSERS = [_cell_parser(hint)
                 for hint in typing.get_type_hints(ChipClassSpec).values()]


def dump_catalog(specs) -> str:
    """Render a catalog as CSV."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_CATALOG_FIELDS)
    for s in specs:
        w.writerow([_cell_text(getattr(s, name)) for name in _CATALOG_FIELDS])
    return buf.getvalue()


def load_catalog(path="builtin") -> list[ChipClassSpec]:
    """Load a chip-class catalog from a CSV file, or the builtin one."""
    if path == "builtin":
        return list(BUILTIN_CATALOG)
    def header_fault(cells):
        return None if cells == _CATALOG_FIELDS else \
            f"bad catalog header, expected {','.join(_CATALOG_FIELDS)}"

    header, rows, linenos = read_table(read_lines(path), header_fault,
                                       split=_csv_cells)
    specs = {}
    for row, lineno in zip(rows, linenos):
        try:
            cells = _csv_cells(row)
            if len(cells) != len(header):
                raise ValueError(f"expected {len(header)} columns, got {len(cells)}")
            spec = ChipClassSpec(*(parse(c) for parse, c in zip(_CELL_PARSERS, cells)))
            if spec.class_tag in specs:
                raise ValueError(f"duplicate class_tag {spec.class_tag}")
        except (ValueError, ValidationError) as exc:
            raise ParseError(str(exc), line=lineno) from None
        specs[spec.class_tag] = spec
    return list(specs.values())


def _csv_cells(line):
    return next(csv.reader([line]))


@dataclass
class ChipInstance:
    """One simulated chip: frozen draw of factors plus a mutable wear map.

    Not safe for concurrent mutation; `latency_at`, which changes no state,
    may run in parallel across addresses.
    """

    spec: ChipClassSpec
    chip_seed: int
    chip_factor: float
    loc_factor: np.ndarray
    wear: np.ndarray = field(repr=False)


def new_chip(spec: ChipClassSpec, chip_seed: int) -> ChipInstance:
    """Instantiate a fresh chip; deterministic in (spec, chip_seed)."""
    chip_z = float(hashed_normal(_TAG_CHIP, chip_seed))
    chip_factor = max(1.0 + spec.chip_sigma * chip_z, _FACTOR_FLOOR)
    try:
        loc_z = hashed_normal(_TAG_LOC, chip_seed, np.arange(spec.num_locations))
        loc_factor = np.maximum(1.0 + spec.loc_sigma * loc_z, _FACTOR_FLOOR)
        wear = np.zeros(spec.num_locations, dtype=np.int64)
    except (ValueError, MemoryError):
        raise ValidationError(f"class{spec.class_tag}: cannot allocate "
                              f"{spec.num_locations} locations") from None
    return ChipInstance(spec=spec, chip_seed=chip_seed,
                        chip_factor=chip_factor, loc_factor=loc_factor, wear=wear)


def _check_addr(chip: ChipInstance, addr: int) -> None:
    if not 0 <= addr < chip.spec.num_locations:
        raise ValidationError(
            f"address {addr} out of range 0..{chip.spec.num_locations - 1}")


def _drift(spec: ChipClassSpec, wear):
    wear = np.asarray(wear, dtype=np.float64)
    d = 1.0 + spec.drift_amplitude * (wear / spec.drift_ref_cycles) ** spec.drift_exponent
    if spec.step_cycles is not None:
        d = d * np.where(wear >= spec.step_cycles, spec.step_factor, 1.0)
    return d


def latency_at(chip: ChipInstance, addr, wear) -> np.ndarray:
    """Quantized latencies for (addr, wear) arrays; pure, no state change.

    `addr` and `wear` broadcast against each other, so one call can cover
    many locations at many wear counts.
    """
    spec = chip.spec
    with np.errstate(over="ignore"):  # an inf latency is refused below
        noiseless = expected_latency(chip, addr, wear)
        if spec.noise_sigma > 0:
            eps = spec.noise_sigma * hashed_normal(_TAG_NOISE, chip.chip_seed, addr, wear)
            noiseless = noiseless * np.exp(eps)
        # divide (not multiply by QUANTUM_US) so the result is bit-identical
        # to parsing the same value back from decimal text
        lat = np.round(noiseless / QUANTUM_US) / (1.0 / QUANTUM_US)
    if not ((lat > 0) & (lat < np.inf)).all():
        raise ValidationError(f"class{spec.class_tag}: a latency is not finite "
                              f"or rounds to <= 0 at the {QUANTUM_US} µs quantum")
    return lat


def latency_block(chip: ChipInstance, addr: int, n: int) -> np.ndarray:
    """`n` consecutive measurements at one address, vectorized.

    The same values as `n` calls of one measurement each: the wear at
    `addr` grows by `n`.
    """
    _check_addr(chip, addr)
    if n < 1:
        raise ValidationError("n must be >= 1")
    _check_wear_room(chip, addr, n)
    # np.empty, not np.arange: np.arange(2**63 - 1) comes back empty
    try:
        wears = np.empty(n, dtype=np.int64)
    except (ValueError, MemoryError):
        raise ValidationError(f"cannot allocate {n} latencies") from None
    wears[:] = np.arange(n, dtype=np.int64)
    wears += chip.wear[addr]
    lat = latency_at(chip, addr, wears)
    chip.wear[addr] += n
    return lat


def cycle_location(chip: ChipInstance, addr: int, n: int) -> None:
    """Fast-forward wear at `addr` by `n` cycles without sampling."""
    _check_addr(chip, addr)
    if n < 0:
        raise ValidationError("cycle count must be >= 0")
    _check_wear_room(chip, addr, n)
    chip.wear[addr] += n


def _check_wear_room(chip: ChipInstance, addr: int, n: int) -> None:
    if n > _WEAR_MAX - int(chip.wear[addr]):
        raise ValidationError(f"{n} more cycles at address {addr} would pass "
                              "the int64 wear counter")


def full_chip_scan(chip: ChipInstance) -> np.ndarray:
    """One advancing operation on every location, in address order: the
    chip's float64 latency map, one µs value per address."""
    addrs = np.arange(chip.spec.num_locations)
    lat = latency_at(chip, addrs, chip.wear)
    chip.wear += 1
    return lat


def expected_latency(chip: ChipInstance, addr, wear) -> np.ndarray:
    """Noise-free latency for (addr, wear): the deterministic model part.

    Ground truth for elevation checks; not quantized.
    """
    spec = chip.spec
    return (spec.base_latency_us * chip.chip_factor
            * chip.loc_factor[np.asarray(addr)] * _drift(spec, wear))


def mean_latency_curve(spec: ChipClassSpec, wears) -> np.ndarray:
    """Class-mean trajectory (unit chip/location factors, no noise)."""
    return spec.base_latency_us * _drift(spec, wears)

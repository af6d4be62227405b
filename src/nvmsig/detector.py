"""End-user verdicts: who made a chip, whether it was used, and where.

All three checks ride on latency elevation.  Manufacturer identification
feeds a ~100-cycle probe to a trained classifier; recycled detection
compares the probe median against the class's fresh mean; localization
flags spatial-map addresses elevated above the chip-wide median.
"""

import csv
import io
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from ._atomic import atomic_open, format_rows, read_block, read_lines, read_table
from .classifiers import TrainedModel, predict_detail
from .errors import ParseError, ValidationError

USED_THRESHOLD = 1.3
FRESH_THRESHOLD = 1.1
DEFAULT_FLAG_RATIO = 1.5


class RecycledVerdict(Enum):
    FRESH = "FRESH"
    USED = "USED"
    INDETERMINATE = "INDETERMINATE"


class UsedRegion(NamedTuple):
    start_addr: int
    end_addr: int
    peak_ratio: float


def baseline_from_catalog(specs) -> dict:
    """Noise-free fresh baseline `{class_tag: mean µs}` of an iterable of
    specs: the fresh mean is each class's base latency."""
    return {s.class_tag: s.base_latency_us for s in specs}


def _check_probe(probe) -> np.ndarray:
    probe = np.asarray(probe, dtype=np.float64)
    if probe.ndim != 1 or probe.size == 0:
        raise ValidationError("probe must be a non-empty 1-D latency vector")
    if not np.all(np.isfinite(probe)) or np.any(probe <= 0):
        raise ValidationError("probe latencies must be positive and finite")
    return probe


def _finite_median(values, what: str) -> float:
    """np.median of `values`, which averages the two middle values of an
    even count: near the float64 limit that mean overflows, which is a
    ValidationError rather than an infinite baseline."""
    with np.errstate(over="ignore"):
        median = float(np.median(values))
    if not np.isfinite(median):
        raise ValidationError(f"{what} latencies too large: their median overflows")
    return median


def identify_manufacturer(probe, model: TrainedModel):
    """(tag, {tag: score}): classify one probe and show the evidence.

    Scores are neighbor votes (knn), leaf training counts (tree), or
    pairwise votes (svm).  Pure function of (probe, model).
    """
    pred, scores, tags = predict_detail(model, _check_probe(probe)[None, :])
    detail = {int(t): float(s) for t, s in zip(tags, scores[0])}
    return int(pred[0]), detail


def detect_recycled(probe, predicted_class: int, baseline: dict,
                    used_threshold: float = USED_THRESHOLD,
                    fresh_threshold: float = FRESH_THRESHOLD):
    """(verdict, elevation_ratio) for a probe against its class baseline.

    `baseline` is a `{class_tag: fresh mean µs}` dict, as
    `baseline_from_catalog` gives.  elevation_ratio = median(probe) / fresh
    mean, and a ratio beyond float64 is a ValidationError.  The verdict is
    monotone in the ratio: USED at or above `used_threshold`, FRESH at or
    below `fresh_threshold`, INDETERMINATE in the band between.
    """
    probe = _check_probe(probe)
    if not (0 < fresh_threshold < used_threshold < np.inf):
        raise ValidationError("need finite thresholds with "
                              "0 < fresh_threshold < used_threshold")
    tag = int(predicted_class)
    if tag not in baseline:
        raise ValidationError(f"no fresh baseline for class tag {tag}")
    fresh_mean = baseline[tag]
    if fresh_mean <= 0:
        raise ValidationError(f"baseline mean for tag {tag} "
                              "must be positive")
    median = _finite_median(probe, "probe")
    ratio = median / fresh_mean
    if not np.isfinite(ratio):
        raise ValidationError(f"elevation ratio overflows: median {median!r} "
                              f"over fresh mean {fresh_mean!r}")
    if ratio >= used_threshold:
        return RecycledVerdict.USED, ratio
    if ratio <= fresh_threshold:
        return RecycledVerdict.FRESH, ratio
    return RecycledVerdict.INDETERMINATE, ratio


def locate_used_regions(latencies, flag_ratio: float = DEFAULT_FLAG_RATIO):
    """Merge addresses elevated >= flag_ratio x map median into regions.

    `latencies` is a latency map: one float64 µs value per address, as
    `full_chip_scan` and `load_map` give.  The chip-wide median is the
    baseline, so the rule is invariant under uniform scaling of the map.
    Flagged addresses separated by a gap of at most one unflagged address
    join the same region; each region reports its peak elevation ratio,
    and a ratio beyond float64 is a ValidationError.
    """
    lat = np.asarray(latencies, dtype=np.float64)
    if lat.ndim != 1 or lat.size == 0:
        raise ValidationError("latency map is empty")
    if not np.all(np.isfinite(lat)) or np.any(lat <= 0):
        raise ValidationError("map latencies must be positive and finite")
    if not 1.0 < flag_ratio < np.inf:
        raise ValidationError("flag_ratio must be a finite real > 1")
    base = _finite_median(lat, "map")
    flagged = np.nonzero(lat >= flag_ratio * base)[0]
    regions = []
    for addr in flagged:
        if regions and addr - regions[-1][1] <= 2:
            regions[-1][1] = int(addr)
        else:
            regions.append([int(addr), int(addr)])
    with np.errstate(over="ignore"):
        peaks = [lat[s:e + 1].max() / base for s, e in regions]
    if not np.all(np.isfinite(peaks)):
        raise ValidationError("peak ratio overflows: a peak over the map "
                              f"median {base!r} is beyond float64")
    return [UsedRegion(s, e, float(p)) for (s, e), p in zip(regions, peaks)]


@dataclass
class DetectionReport:
    predicted_class_tag: int
    predicted_class_label: str
    recycled_verdict: RecycledVerdict
    elevation_ratio: float

    def to_text(self) -> str:
        return (f"predicted class: {self.predicted_class_tag} "
                f"({self.predicted_class_label})\n"
                f"recycled verdict: {self.recycled_verdict.value}\n"
                f"elevation ratio: {self.elevation_ratio:.4f}\n")

    def to_csv(self) -> str:
        """`field,value` rows; a cell holding a comma or quote is quoted."""
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([
            ("field", "value"),
            ("predicted_class_tag", self.predicted_class_tag),
            ("predicted_class_label", self.predicted_class_label),
            ("recycled_verdict", self.recycled_verdict.value),
            ("elevation_ratio", f"{self.elevation_ratio:.6f}")])
        return out.getvalue()


def diagnose_probe(probe, model: TrainedModel, baseline: dict,
                   used_threshold: float = USED_THRESHOLD,
                   fresh_threshold: float = FRESH_THRESHOLD) -> DetectionReport:
    """Identification plus recycled check for one probe; no spatial scan."""
    tag, _ = identify_manufacturer(probe, model)
    verdict, ratio = detect_recycled(probe, tag, baseline,
                                     used_threshold, fresh_threshold)
    return DetectionReport(tag, model.label_of(tag), verdict, ratio)


# ------------------------------------------------------------------- map I/O

def save_map(latencies, path) -> None:
    """Write a latency map, one float64 µs value per address, as the
    two-column CSV that `load_map` reads."""
    lat = np.asarray(latencies, dtype=np.float64)
    with atomic_open(path) as fh:
        fh.write("addr,latency_us\n")
        fh.write(format_rows(np.arange(lat.size)[:, None], lat[:, None]))


def load_map(path) -> np.ndarray:
    """The float64 latency map, indexed by address, of a two-column CSV
    (addr, latency_us) that covers every address exactly once."""
    def header_fault(cells):
        return None if cells == ["addr", "latency_us"] else \
            "expected header 'addr,latency_us'"

    _, rows, linenos = read_table(read_lines(path), header_fault)
    rec = read_block(rows, linenos, [("addr", np.int64), ("lat", np.float64)],
                     delimiter=",")
    order = np.argsort(rec["addr"], kind="stable")
    ranked = rec["addr"][order]
    # a stable sort puts every repeat of an address after its first row
    again = order[1:][ranked[1:] == ranked[:-1]]
    if again.size:
        raise ParseError(f"duplicate address {rec['addr'][again.min()]}",
                         line=linenos[again.min()])
    # distinct addresses with min 0 and max len - 1 leave no holes
    n = int(ranked[-1]) + 1
    if ranked[0] != 0 or n != ranked.size:
        raise ValidationError(f"map must cover addresses 0..{n - 1} "
                              "with no holes")
    return rec["lat"][order]

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

from ._atomic import atomic_open, read_block, read_lines, read_table
from .chipsim import ChipClassSpec, SpatialLatencyMap
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


@dataclass(frozen=True)
class FreshBaseline:
    """Per-class fresh-latency means in µs."""
    mean: dict

    def for_tag(self, tag: int):
        tag = int(tag)
        if tag not in self.mean:
            raise ValidationError(f"no fresh baseline for class tag {tag}")
        return self.mean[tag]


def baseline_from_catalog(specs) -> FreshBaseline:
    """Noise-free baseline: the fresh mean is each class's base latency."""
    specs = [specs] if isinstance(specs, ChipClassSpec) else list(specs)
    return FreshBaseline({s.class_tag: s.base_latency_us for s in specs})


def _check_probe(probe) -> np.ndarray:
    probe = np.asarray(probe, dtype=np.float64)
    if probe.ndim != 1 or probe.size == 0:
        raise ValidationError("probe must be a non-empty 1-D latency vector")
    if not np.all(np.isfinite(probe)) or np.any(probe <= 0):
        raise ValidationError("probe latencies must be positive and finite")
    return probe


def identify_manufacturer(probe, model: TrainedModel):
    """(tag, {tag: score}): classify one probe and show the evidence.

    Scores are neighbor votes (knn), leaf training counts (tree), or
    pairwise votes (svm).  Pure function of (probe, model).
    """
    pred, scores, tags = predict_detail(model, _check_probe(probe)[None, :])
    detail = {int(t): float(s) for t, s in zip(tags, scores[0])}
    return int(pred[0]), detail


def detect_recycled(probe, predicted_class: int, baseline: FreshBaseline,
                    used_threshold: float = USED_THRESHOLD,
                    fresh_threshold: float = FRESH_THRESHOLD):
    """(verdict, elevation_ratio) for a probe against its class baseline.

    elevation_ratio = median(probe) / fresh mean.  The verdict is monotone
    in the ratio: USED at or above `used_threshold`, FRESH at or below
    `fresh_threshold`, INDETERMINATE in the band between.
    """
    probe = _check_probe(probe)
    if not (0 < fresh_threshold < used_threshold < np.inf):
        raise ValidationError("need finite thresholds with "
                              "0 < fresh_threshold < used_threshold")
    fresh_mean = baseline.for_tag(predicted_class)
    if fresh_mean <= 0:
        raise ValidationError(f"baseline mean for tag {predicted_class} "
                              "must be positive")
    ratio = float(np.median(probe)) / fresh_mean
    if ratio >= used_threshold:
        return RecycledVerdict.USED, ratio
    if ratio <= fresh_threshold:
        return RecycledVerdict.FRESH, ratio
    return RecycledVerdict.INDETERMINATE, ratio


def locate_used_regions(latency_map: SpatialLatencyMap,
                        flag_ratio: float = DEFAULT_FLAG_RATIO):
    """Merge addresses elevated >= flag_ratio x map median into regions.

    The chip-wide median is the baseline, so the rule is invariant under
    uniform scaling of the map.  Flagged addresses separated by a gap of
    at most one unflagged address join the same region; each region
    reports its peak elevation ratio.
    """
    lat = np.asarray(latency_map.latencies, dtype=np.float64)
    if lat.ndim != 1 or lat.size == 0:
        raise ValidationError("latency map is empty")
    if not np.all(np.isfinite(lat)) or np.any(lat <= 0):
        raise ValidationError("map latencies must be positive and finite")
    if not 1.0 < flag_ratio < np.inf:
        raise ValidationError("flag_ratio must be a finite real > 1")
    base = float(np.median(lat))
    flagged = np.nonzero(lat >= flag_ratio * base)[0]
    regions = []
    for addr in flagged:
        if regions and addr - regions[-1][1] <= 2:
            regions[-1][1] = int(addr)
        else:
            regions.append([int(addr), int(addr)])
    return [UsedRegion(s, e, float(lat[s:e + 1].max() / base))
            for s, e in regions]


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


def diagnose_probe(probe, model: TrainedModel, baseline: FreshBaseline,
                   used_threshold: float = USED_THRESHOLD,
                   fresh_threshold: float = FRESH_THRESHOLD) -> DetectionReport:
    """Identification plus recycled check for one probe; no spatial scan."""
    tag, _ = identify_manufacturer(probe, model)
    verdict, ratio = detect_recycled(probe, tag, baseline,
                                     used_threshold, fresh_threshold)
    return DetectionReport(tag, model.label_of(tag), verdict, ratio)


# ------------------------------------------------------------------- map I/O

def save_map(latency_map: SpatialLatencyMap, path) -> None:
    with atomic_open(path) as fh:
        fh.write("addr,latency_us\n")
        for addr, lat in enumerate(latency_map.latencies):
            fh.write(f"{addr},{lat:.6f}\n")


def load_map(path) -> SpatialLatencyMap:
    """Two-column CSV (addr, latency_us) covering every address exactly once."""
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
    return SpatialLatencyMap(rec["lat"][order])

"""Chip forensics from program/erase latency signatures.

Simulates wear-dependent NVM latency for a catalog of chip classes, then
identifies chip origin, detects recycled parts and maps used locations from
latency traces alone.
"""

__version__ = "0.1.0"

from .chipsim import (
    BUILTIN_CATALOG,
    ChipClassSpec,
    ChipInstance,
    cycle_location,
    dump_catalog,
    full_chip_scan,
    latency_block,
    load_catalog,
    mean_latency_curve,
    new_chip,
)
from .classifiers import (
    CrossValResult,
    EvalReport,
    TrainedModel,
    cross_validate,
    evaluate,
    load_model,
    predict,
    save_model,
    train_knn,
    train_svm,
    train_tree,
)
from .detector import (
    DetectionReport,
    RecycledVerdict,
    UsedRegion,
    baseline_from_catalog,
    detect_recycled,
    diagnose_probe,
    identify_manufacturer,
    load_map,
    locate_used_regions,
    save_map,
)
from .errors import NumericError, NvmsigError, ParseError, ValidationError
from .features import (
    FeatureRanking,
    StandardizationStats,
    mrmr_select,
    mutual_information,
    nca_select,
    select,
)
from .protocol import (
    Dataset,
    WindowStats,
    build_dataset,
    latency_stats,
    load_dataset,
    save_dataset,
    split,
)

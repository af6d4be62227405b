"""Training pipeline shared by the three classifier kinds.

A TrainedModel bundles the fitted core with everything a raw probe needs at
prediction time: which feature columns to keep, the standardization fitted
on those columns, and the class labels.  Models persist to a single text
file with reals at 9 significant digits and integers written exactly;
training the same configuration twice yields byte-identical files.
"""

import time
from dataclasses import dataclass

import numpy as np

from .._atomic import atomic_open, has_line_break, number
from ..errors import ParseError, ValidationError
from ..features import FeatureRanking, StandardizationStats, apply_standardizer, fit_standardizer
from . import knn as _knn
from . import svm as _svm
from . import tree as _tree
from ._text import Reader, fmt, fmt_vec

_FORMAT_HEADER = "nvmsig-model 1"
# the one place a classifier kind is chosen: each core module offers PARAMS
# (fit's keywords, typed as the model file stores them), fit(Z, y, **params),
# predict(core, Z), predict_detail(core, Z), dump(core) and load(r, head,
# width, params) -> core, `head` being the integers on its `core <kind>` line.
# Every core holds `tags`, the sorted training labels that index its score
# columns; they are the model's class axis.
_CORES = {"knn": _knn, "tree": _tree, "svm": _svm}
KINDS = tuple(_CORES)
PARAMS = {kind: core.PARAMS for kind, core in _CORES.items()}


@dataclass
class TrainedModel:
    kind: str
    expected_arity: int
    indices: np.ndarray
    selection_method: str
    stats: StandardizationStats
    class_names: dict
    core: object
    params: dict
    train_time_s: float = 0.0
    n_train: int = 0

    @property
    def tags(self) -> np.ndarray:
        return self.core.tags

    def label_of(self, tag: int) -> str:
        return self.class_names.get(int(tag), f"class{int(tag)}")


def _prepare(train, ranking):
    X = np.asarray(train.X, dtype=np.float64)
    y = np.asarray(train.y)
    if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] < 1:
        raise ValidationError("training matrix and labels do not line up")
    if not np.issubdtype(y.dtype, np.integer):
        raise ValidationError("labels must be integers")
    arity = X.shape[1]
    if ranking is None:
        indices = np.arange(arity, dtype=np.int64)
        method = "none"
    else:
        indices = np.asarray(ranking.indices, dtype=np.int64)
        method = ranking.method
        if indices.size < 1 or indices.min() < 0 or indices.max() >= arity:
            raise ValidationError("ranking indices out of range for this dataset")
    Xsel = X[:, indices]
    stats = fit_standardizer(Xsel)
    Z = apply_standardizer(stats, Xsel)
    names = dict(getattr(train, "class_names", {}) or {})
    return Z, y.astype(np.int64), arity, indices, method, stats, names


def _train(kind, train, ranking, params):
    t0 = time.perf_counter()
    Z, y, arity, idx, method, stats, names = _prepare(train, ranking)
    core = _CORES[kind].fit(Z, y, **params)
    dt = time.perf_counter() - t0
    return TrainedModel(kind, arity, idx, method, stats, names, core, params,
                        dt, len(y))


def train_knn(train, k: int = 5,
              ranking: FeatureRanking | None = None) -> TrainedModel:
    return _train("knn", train, ranking, {"k": int(k)})


def train_tree(train, max_depth: int = 20, min_leaf: int = 1,
               ranking: FeatureRanking | None = None) -> TrainedModel:
    return _train("tree", train, ranking,
                  {"max_depth": int(max_depth), "min_leaf": int(min_leaf)})


def train_svm(train, C: float = 1.0, gamma="auto", tol: float = 1e-3,
              ranking: FeatureRanking | None = None, seed=None) -> TrainedModel:
    """`seed` is accepted for old callers and ignored: the solver draws
    nothing at random, and no seed is stored in the model."""
    model = _train("svm", train, ranking,
                   {"C": float(C), "gamma": gamma, "tol": float(tol)})
    # "auto" resolves on the selected, standardized training features
    model.params["gamma"] = model.core.gamma
    return model


def train(kind: str, train_set, **kw) -> TrainedModel:
    """Train a `kind` classifier; `kw` go to train_knn/train_tree/train_svm."""
    if kind not in _CORES:
        raise ValidationError(f"unknown classifier kind '{kind}'")
    # looked up per call so that the module attribute stays the entry point
    return globals()[f"train_{kind}"](train_set, **kw)


def _probe_matrix(model: TrainedModel, X):
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.expected_arity:
        raise ValidationError(
            f"probe has {X.shape[1]} features, model expects "
            f"{model.expected_arity}")
    return apply_standardizer(model.stats, X[:, model.indices])


def predict(model: TrainedModel, X) -> np.ndarray:
    """Class tags for raw probes (rows of expected_arity features)."""
    return _CORES[model.kind].predict(model.core, _probe_matrix(model, X))


def predict_detail(model: TrainedModel, X):
    """(tags, scores, score_tags): per-class evidence behind each call.

    Scores are neighbor votes for knn, training-sample counts at the
    reached leaf for tree, and pairwise votes for svm.
    """
    pred, scores = _CORES[model.kind].predict_detail(
        model.core, _probe_matrix(model, X))
    return pred, scores, model.tags


# ---------------------------------------------------------------- persistence

def save_model(model: TrainedModel, path) -> None:
    for t in model.tags:
        name = model.label_of(t)
        if has_line_break(name):
            raise ValidationError(f"class {int(t)} name {name!r} cannot be "
                                  "stored: it holds a line break")
    lines = [_FORMAT_HEADER,
             f"kind {model.kind}",
             f"arity {model.expected_arity}",
             f"n_train {model.n_train}",
             f"classes {len(model.tags)}"]
    for t in model.tags:
        lines.append(f"class {int(t)} {model.label_of(t)}")
    lines.append(f"selection {model.selection_method} {len(model.indices)}")
    lines.append("indices " + " ".join(str(int(i)) for i in model.indices))
    lines.append("mean " + fmt_vec(model.stats.mean))
    lines.append("std " + fmt_vec(model.stats.std))
    # wall-clock fields stay in memory only: identical configurations must
    # reproduce this file byte for byte
    for key, typ in sorted(_CORES[model.kind].PARAMS.items()):
        val = model.params[key]
        lines.append(f"param {key} {int(val) if typ is int else fmt(val)}")
    lines.extend(_CORES[model.kind].dump(model.core))
    lines.append("end")
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> TrainedModel:
    r = Reader(path)
    try:
        return _read_model(r)
    except (ValueError, IndexError, OverflowError) as exc:
        # a missing field or a bad number on the line just read
        raise ParseError(f"malformed field: {exc}", line=r.pos) from None


def _read_model(r: Reader) -> TrainedModel:
    if r.next() != _FORMAT_HEADER:
        raise ParseError("not a model file", line=1)
    kind = r.next("kind").split()[1]
    if kind not in KINDS:
        r.fail(f"unknown model kind '{kind}'")
    arity = number(r.next("arity").split()[1], True)
    n_train = number(r.next("n_train").split()[1], True)
    n_classes = number(r.next("classes").split()[1], True)
    classes_line = r.pos
    names = {}
    for _ in range(n_classes):
        # single spaces, so a name keeps its leading and doubled spaces
        parts = r.next("class").split(" ", 2)
        names[number(parts[1], True)] = parts[2] if len(parts) > 2 else ""
    sel_parts = r.next("selection").split()
    method, n_idx = sel_parts[1], number(sel_parts[2], True)
    indices = r.vector("indices", n_idx, np.int64)
    if not n_idx or np.unique(indices).size < n_idx \
            or not 0 <= indices.min() <= indices.max() < arity:
        r.fail(f"indices must be at least one distinct column in [0, {arity})")
    mean, std = r.vector("mean", n_idx), r.vector("std", n_idx)
    if (std < 0).any():
        r.fail("std must be non-negative")
    params = {}
    for key, typ in sorted(_CORES[kind].PARAMS.items()):
        if not (line := r.next()).startswith(f"param {key} "):
            r.fail(f"expected the {key} param")
        params[key] = number(line.split(" ", 2)[2], typ is int)
    head = r.next("core").split()
    core_line = r.pos
    if head[1] != kind:
        r.fail(f"core block is '{head[1]}', header says '{kind}'")
    if bad := [key for key, val in params.items() if val <= 0]:
        r.fail(f"the {bad[0]} param must be > 0")
    try:
        core = _CORES[kind].load(r, [number(h, True) for h in head[2:]],
                                 n_idx, params)
    except ParseError:
        raise
    except ValidationError as exc:  # a param the core's data cannot take
        raise ParseError(str(exc), line=core_line) from None
    if r.next() != "end":
        r.fail("expected 'end'")
    if list(names) != core.tags.tolist():
        raise ParseError(f"the class header lists tags {list(names)}, the core "
                         f"block holds {core.tags.tolist()}", line=classes_line)
    return TrainedModel(kind, arity, indices, method,
                        StandardizationStats(mean, std), names, core, params,
                        0.0, n_train)

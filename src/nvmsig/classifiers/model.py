"""Training pipeline shared by the three classifier kinds.

A TrainedModel bundles the fitted core with everything a raw probe needs at
prediction time: which feature columns to keep, the standardization fitted
on those columns, and the class labels.  Models persist to a single text
file with reals at 9 significant digits; training the same configuration
twice yields byte-identical files.
"""

import time
from dataclasses import dataclass

import numpy as np

from .._atomic import atomic_open, read_lines
from ..errors import ParseError, ValidationError
from ..features import FeatureRanking, StandardizationStats, apply_standardizer, fit_standardizer
from ..protocol import has_line_break
from . import knn as _knn
from . import svm as _svm
from . import tree as _tree

_FORMAT_HEADER = "nvmsig-model 1"
_INT_PARAMS = ("k", "max_depth", "min_leaf")
# the one place a classifier kind is chosen: each core module offers
# fit(Z, y, **params), predict(core, Z) and predict_detail(core, Z, tags)
_CORES = {"knn": _knn, "tree": _tree, "svm": _svm}
KINDS = tuple(_CORES)


@dataclass
class TrainedModel:
    kind: str
    expected_arity: int
    indices: np.ndarray
    selection_method: str
    stats: StandardizationStats
    tags: np.ndarray
    class_names: dict
    core: object
    params: dict
    train_time_s: float = 0.0
    selection_time_s: float = 0.0
    n_train: int = 0

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
    tags = np.unique(y)
    return Z, y.astype(np.int64), arity, indices, method, stats, tags, names


def _train(kind, train, ranking, selection_time_s, params):
    t0 = time.perf_counter()
    Z, y, arity, idx, method, stats, tags, names = _prepare(train, ranking)
    core = _CORES[kind].fit(Z, y, **params)
    dt = time.perf_counter() - t0
    return TrainedModel(kind, arity, idx, method, stats, tags, names, core,
                        params, dt, selection_time_s, len(y))


def train_knn(train, k: int = 5, ranking: FeatureRanking | None = None,
              selection_time_s: float = 0.0) -> TrainedModel:
    return _train("knn", train, ranking, selection_time_s, {"k": int(k)})


def train_tree(train, max_depth: int = 20, min_leaf: int = 1,
               ranking: FeatureRanking | None = None,
               selection_time_s: float = 0.0) -> TrainedModel:
    return _train("tree", train, ranking, selection_time_s,
                  {"max_depth": int(max_depth), "min_leaf": int(min_leaf)})


def train_svm(train, C: float = 1.0, gamma="auto", tol: float = 1e-3,
              ranking: FeatureRanking | None = None,
              selection_time_s: float = 0.0, seed=None) -> TrainedModel:
    """`seed` is accepted for old callers and ignored: the solver draws
    nothing at random, and no seed is stored in the model."""
    model = _train("svm", train, ranking, selection_time_s,
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
        model.core, _probe_matrix(model, X), model.tags)
    return pred, scores, model.tags


# ---------------------------------------------------------------- persistence

def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


def _fmt_vec(v) -> str:
    return " ".join(_fmt(x) for x in v)


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
    lines.append("mean " + _fmt_vec(model.stats.mean))
    lines.append("std " + _fmt_vec(model.stats.std))
    # wall-clock fields stay in memory only: identical configurations must
    # reproduce this file byte for byte
    for key in sorted(model.params):
        lines.append(f"param {key} {_fmt(model.params[key])}")
    lines.extend(_dump_core(model))
    lines.append("end")
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _dump_core(model: TrainedModel):
    core = model.core
    if model.kind == "knn":
        out = [f"core knn {core.X.shape[0]} {core.X.shape[1]}"]
        for row, lab in zip(core.X, core.y):
            out.append(f"row {int(lab)} {_fmt_vec(row)}")
        return out
    if model.kind == "tree":
        out = [f"core tree {core.feature.size} {len(core.tags)}",
               "tags " + " ".join(str(int(t)) for t in core.tags)]
        cols = (core.feature, core.threshold, core.left, core.right, core.leaf)
        for nid, (f, thr, left, right, leaf, counts) in enumerate(zip(
                *(c.tolist() for c in cols), core.counts.tolist())):
            out.append(f"node {nid} {f} {_fmt(thr)} {left} {right} {leaf} "
                       + " ".join(map(str, counts)))
        return out
    out = [f"core svm {len(core.machines)} {len(core.tags)}",
           "tags " + " ".join(str(int(t)) for t in core.tags)]
    for m in core.machines:
        out.append(f"machine {m.tag_pos} {m.tag_neg} {m.sv.shape[0]} "
                   f"{_fmt(m.bias)}")
        for coeff, row in zip(m.alpha_y, m.sv):
            out.append(f"sv {_fmt(coeff)} {_fmt_vec(row)}")
    return out


class _Reader:
    def __init__(self, path):
        self.lines = read_lines(path)
        self.pos = 0

    def next(self, expect: str | None = None):
        if self.pos >= len(self.lines):
            raise ParseError("unexpected end of model file",
                             line=len(self.lines))
        line = self.lines[self.pos]
        self.pos += 1
        if expect is not None and not line.startswith(expect + " ") \
                and line != expect:
            raise ParseError(f"expected '{expect} ...'", line=self.pos)
        return line

    def fail(self, msg):
        raise ParseError(msg, line=self.pos)

    def count(self, text) -> int:
        """A count of lines still to come, checked before it sizes an array."""
        n = int(text)
        if not 0 <= n <= len(self.lines) - self.pos:
            self.fail(f"count {n} does not fit the {len(self.lines) - self.pos} "
                      "lines left")
        return n


def _floats(reader, parts, n, what):
    if len(parts) != n:
        reader.fail(f"{what}: expected {n} values, got {len(parts)}")
    return np.array([float(p) for p in parts])


def _tags(r: _Reader, n_tags):
    tags = np.array([int(t) for t in r.next("tags").split()[1:]],
                    dtype=np.int64)
    if len(tags) != n_tags:
        r.fail(f"expected {n_tags} tags")
    return tags


def load_model(path) -> TrainedModel:
    r = _Reader(path)
    try:
        return _read_model(r)
    except (ValueError, IndexError, OverflowError) as exc:
        # a missing field or a bad number on the line just read
        raise ParseError(f"malformed field: {exc}", line=r.pos) from None


def _read_model(r: _Reader) -> TrainedModel:
    if r.next() != _FORMAT_HEADER:
        raise ParseError("not a model file", line=1)
    kind = r.next("kind").split()[1]
    if kind not in KINDS:
        r.fail(f"unknown model kind '{kind}'")
    arity = int(r.next("arity").split()[1])
    n_train = int(r.next("n_train").split()[1])
    n_classes = int(r.next("classes").split()[1])
    names = {}
    for _ in range(n_classes):
        # single spaces, so a name keeps its leading and doubled spaces
        parts = r.next("class").split(" ", 2)
        names[int(parts[1])] = parts[2] if len(parts) > 2 else ""
    sel_parts = r.next("selection").split()
    method, n_idx = sel_parts[1], int(sel_parts[2])
    idx_parts = r.next("indices").split()[1:]
    if len(idx_parts) != n_idx:
        r.fail(f"expected {n_idx} indices")
    indices = np.array([int(p) for p in idx_parts], dtype=np.int64)
    mean = _floats(r, r.next("mean").split()[1:], n_idx, "mean")
    std = _floats(r, r.next("std").split()[1:], n_idx, "std")
    params = {}
    line = r.next()
    while line.startswith("param "):
        _, key, val = line.split()
        params[key] = int(float(val)) if key in _INT_PARAMS else float(val)
        line = r.next()
    r.pos -= 1  # hand the non-param line to the core reader
    core, tags = _load_core(r, kind, n_idx, params)
    if r.next() != "end":
        r.fail("expected 'end'")
    return TrainedModel(kind, arity, indices, method,
                        StandardizationStats(mean, std), tags, names, core,
                        params, 0.0, 0.0, n_train)


def _load_core(r: _Reader, kind, n_idx, params):
    head = r.next("core").split()
    if head[1] != kind:
        r.fail(f"core block is '{head[1]}', header says '{kind}'")
    if kind == "knn":
        n, d = r.count(head[2]), int(head[3])
        if d != n_idx:
            r.fail("core width disagrees with selection width")
        X = np.empty((n, d))
        y = np.empty(n, dtype=np.int64)
        for i in range(n):
            parts = r.next("row").split()
            y[i] = int(parts[1])
            X[i] = _floats(r, parts[2:], d, "row")
        core = _knn.fit(X, y, params.get("k", 5))
        return core, np.unique(y)
    if kind == "tree":
        n_nodes, n_tags = int(head[2]), int(head[3])
        if n_nodes < 1:
            r.fail("a tree needs at least one node")
        tags = _tags(r, n_tags)
        rows = []
        for nid in range(n_nodes):
            p = r.next("node").split()
            if len(p) != 7 + n_tags:
                r.fail("node: wrong field count")
            f, kids, leaf = int(p[2]), (int(p[4]), int(p[5])), int(p[6])
            counts = np.array([int(c) for c in p[7:]], dtype=np.int64)
            # preorder ids: a split's children come later in the file
            if f == -1:
                ok = kids == (-1, -1) and 0 <= leaf < n_tags
            else:
                ok = (0 <= f < n_idx and leaf == -1
                      and all(nid < c < n_nodes for c in kids))
            if not ok or (counts < 0).any():
                r.fail(f"node {nid}: feature {f}, children {kids}, leaf "
                       f"{leaf} or counts out of range")
            rows.append((f, float(p[3]), *kids, leaf, counts))
        return _tree.table(tags, rows), tags
    n_machines, n_tags = int(head[2]), int(head[3])
    tags = _tags(r, n_tags)
    machines = []
    for _ in range(n_machines):
        parts = r.next("machine").split()
        a, b, n_sv, bias = int(parts[1]), int(parts[2]), r.count(parts[3]), float(parts[4])
        if a == b or a not in tags or b not in tags:
            r.fail(f"machine tags {a} and {b} are not two distinct model tags")
        coeffs = np.empty(n_sv)
        sv = np.empty((n_sv, n_idx))
        for i in range(n_sv):
            sparts = r.next("sv").split()
            coeffs[i] = float(sparts[1])
            sv[i] = _floats(r, sparts[2:], n_idx, "sv")
        machines.append(_svm.PairMachine(a, b, coeffs, sv, bias))
    if "gamma" not in params:
        r.fail("svm model file lacks a gamma param")
    core = _svm.SvmCore(tags, machines, params["gamma"])
    return core, tags

"""Held-out evaluation and stratified cross-validation."""

import io
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ..errors import ValidationError
from . import model as _model


@dataclass
class EvalReport:
    kind: str
    tags: np.ndarray          # confusion axis, sorted
    class_names: dict
    confusion: np.ndarray     # rows = true class, columns = predicted
    accuracy: float
    tpr: np.ndarray
    fnr: np.ndarray
    n_test: int
    infer_time_s: float       # held for stdout; no file carries a clock

    @property
    def infer_time_per_sample_s(self) -> float:
        return self.infer_time_s / self.n_test

    def to_text(self) -> str:
        out = io.StringIO()
        out.write(f"model: {self.kind}\n")
        out.write(f"test samples: {self.n_test}\n")
        out.write(f"accuracy: {self.accuracy:.4f}\n")
        out.write("confusion (rows = true):\n")
        width = max(5, *(len(str(int(t))) + 1 for t in self.tags))
        out.write(" " * 7 + "".join(f"{int(t):>{width}}" for t in self.tags) + "\n")
        for i, t in enumerate(self.tags):
            row = "".join(f"{int(c):>{width}}" for c in self.confusion[i])
            out.write(f"{int(t):>6} {row}\n")
        out.write("per-class rates:\n")
        for i, t in enumerate(self.tags):
            name = self.class_names.get(int(t), f"class{int(t)}")
            out.write(f"  {int(t)} {name}: tpr {self.tpr[i]:.4f} "
                      f"fnr {self.fnr[i]:.4f}\n")
        return out.getvalue()

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("# confusion\n")
        out.write("true\\pred," + ",".join(str(int(t)) for t in self.tags) + "\n")
        for i, t in enumerate(self.tags):
            out.write(f"{int(t)}," + ",".join(str(int(c)) for c in self.confusion[i]) + "\n")
        out.write("# metrics\n")
        out.write("metric,value\n")
        out.write(f"kind,{self.kind}\n")
        out.write(f"n_test,{self.n_test}\n")
        out.write(f"accuracy,{self.accuracy:.6f}\n")
        for i, t in enumerate(self.tags):
            out.write(f"tpr_{int(t)},{self.tpr[i]:.6f}\n")
            out.write(f"fnr_{int(t)},{self.fnr[i]:.6f}\n")
        return out.getvalue()


def evaluate(model, test) -> EvalReport:
    """Score a trained model on a labeled dataset.

    The confusion axis covers model and test classes both, so a test class
    the model has never seen still shows up as a row of errors.
    """
    y_true = np.asarray(test.y, dtype=np.int64)
    if y_true.size == 0:
        raise ValidationError("test set is empty")
    t0 = time.perf_counter()
    y_pred = _model.predict(model, test.X)
    infer = time.perf_counter() - t0
    tags = np.unique(np.concatenate([model.tags, y_true]))
    confusion = np.zeros((tags.size, tags.size), dtype=np.int64)
    np.add.at(confusion, (np.searchsorted(tags, y_true),
                          np.searchsorted(tags, y_pred)), 1)
    row = confusion.sum(axis=1)
    diag = np.diag(confusion).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        tpr = np.where(row > 0, diag / row, 0.0)
    fnr = np.where(row > 0, 1.0 - tpr, 0.0)
    names = dict(getattr(test, "class_names", {}) or {})
    names.update(model.class_names)
    return EvalReport(
        kind=model.kind, tags=tags, class_names=names, confusion=confusion,
        accuracy=float((y_pred == y_true).mean()), tpr=tpr, fnr=fnr,
        n_test=int(y_true.size), infer_time_s=infer)


@dataclass
class CrossValResult:
    kind: str
    folds: int
    accuracies: np.ndarray
    mean_accuracy: float
    stdev_accuracy: float


def fold_assignments(y, folds: int, seed: int) -> np.ndarray:
    """Stratified fold ids: per-class seeded shuffle, then a round-robin
    that keeps counting across classes so folds stay balanced and
    folds == n degenerates to leave-one-out."""
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    fold_of = np.empty(y.size, dtype=np.int64)
    cursor = 0
    for tag in np.unique(y):
        rows = np.nonzero(y == tag)[0]
        rows = rows[rng.permutation(rows.size)]
        fold_of[rows] = (cursor + np.arange(rows.size)) % folds
        cursor += rows.size
    return fold_of


def cross_validate(kind: str, train, folds: int = 8, seed: int = 0,
                   ranking_fn=None, **hyperparams) -> CrossValResult:
    """Refits the full pipeline on each fold's complement.

    `ranking_fn`, when given, maps a training subset to a FeatureRanking;
    it runs inside each fold so selection never sees held-out samples.
    """
    y = np.asarray(train.y)
    n = y.size
    if not 2 <= folds <= n:
        raise ValidationError(f"folds must be in [2, {n}]")
    fold_of = fold_assignments(y, folds, seed)
    X = np.asarray(train.X, dtype=np.float64)
    names = dict(getattr(train, "class_names", {}) or {})
    accs = np.empty(folds)
    for f in range(folds):
        held = fold_of == f
        sub = SimpleNamespace(X=X[~held], y=y[~held], class_names=names)
        ranking = ranking_fn(sub) if ranking_fn is not None else None
        m = _model.train(kind, sub, ranking=ranking, **hyperparams)
        pred = _model.predict(m, X[held])
        accs[f] = float((pred == y[held]).mean())
    return CrossValResult(kind, folds, accs, float(accs.mean()),
                          float(accs.std()))

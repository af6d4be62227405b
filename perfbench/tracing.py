"""Spans around nvmsig's public functions, recorded from outside the program.

A Tracer replaces each target function at every module attribute that
names it (so `nvmsig.cli.nca_select` is wrapped as well as
`nvmsig.features.nca_select`), records one span per call and restores the
originals on uninstall.  Spans stay in memory until the run writes them
out; per-layer metrics are derived from them afterwards.
"""

import json
import os
import sys
from collections import defaultdict

import timing


def _path_arg(args, kwargs, position):
    return kwargs.get("path", args[position] if len(args) > position else None)


def _size(path):
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


# (defining module, function, size of the file the call wrote or read)
TARGETS = [
    ("nvmsig.chipsim", "latency_block", None),
    ("nvmsig.protocol", "build_dataset", None),
    ("nvmsig.protocol", "split", None),
    ("nvmsig.protocol", "save_dataset", lambda a, k: _size(_path_arg(a, k, 1))),
    ("nvmsig.protocol", "load_dataset", lambda a, k: _size(_path_arg(a, k, 0))),
    ("nvmsig.features", "mrmr_select", None),
    ("nvmsig.features", "nca_select", None),
    ("nvmsig.features", "nca_gradient", None),
    ("nvmsig.classifiers.model", "train_knn", None),
    ("nvmsig.classifiers.model", "train_tree", None),
    ("nvmsig.classifiers.model", "train_svm", None),
    ("nvmsig.classifiers.model", "predict_detail", None),
    ("nvmsig.classifiers.model", "save_model", lambda a, k: _size(_path_arg(a, k, 1))),
    ("nvmsig.classifiers.model", "load_model", None),
    ("nvmsig.classifiers.evaluate", "evaluate", None),
    ("nvmsig.classifiers.knn", "predict", None),
    ("nvmsig.classifiers.knn", "predict_scores", None),
    ("nvmsig.classifiers.tree", "predict", None),
    ("nvmsig.classifiers.tree", "predict_scores", None),
    ("nvmsig.classifiers.svm", "predict", None),
    ("nvmsig.classifiers.svm", "predict_scores", None),
    ("nvmsig.detector", "diagnose_probe", None),
    ("nvmsig.detector", "detect_recycled", None),
    ("nvmsig.detector", "load_map", None),
    ("nvmsig.detector", "locate_used_regions", None),
    ("nvmsig.cli", "cmd_sweep", None),
    ("nvmsig.cli", "cmd_predict", None),
    ("nvmsig.cli", "cmd_scan", None),
]


def _layer(module, func):
    """Span name: the package module, with the classifier pipeline modules
    (model, evaluate) folded into `classifiers` and the cores kept apart."""
    name = module.split(".", 1)[1]
    if name in ("classifiers.model", "classifiers.evaluate"):
        name = "classifiers"
    return f"{name}.{func}"


class Tracer:
    """Wraps every TARGETS function while installed; `phase` tags the spans."""

    def __init__(self):
        self.spans = []      # (id, parent, name, phase, start, end, bytes)
        self.phase = "setup"
        self._stack = []
        self._patched = []   # (module, attribute, original)

    def _wrap(self, name, func, size_of):
        def wrapper(*args, **kwargs):
            span_name = name
            if name == "classifiers.predict_detail":
                span_name = f"{name}.{getattr(args[0], 'kind', '?')}"
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            start = timing.now()
            try:
                return func(*args, **kwargs)
            finally:
                end = timing.now()
                self._stack.pop()
                size = size_of(args, kwargs) if size_of else 0
                self.spans[sid] = (sid, parent, span_name, self.phase, start, end, size)
        wrapper.__wrapped__ = func
        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "nvmsig" or n.startswith("nvmsig."))]
        for mod_name, func_name, size_of in TARGETS:
            func = getattr(sys.modules[mod_name], func_name)
            wrapper = self._wrap(_layer(mod_name, func_name), func, size_of)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        self._patched.append((mod, attr, func))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, func in reversed(self._patched):
            setattr(mod, attr, func)
        self._patched = []

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "name", "phase", "start", "end", "bytes"), s))) + "\n")


def self_times(spans):
    """Per span: its duration minus the time its direct children cover."""
    child = defaultdict(float)
    for sid, parent, _, _, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return {s[0]: (s[5] - s[4]) - child[s[0]] for s in spans}


def layer_totals(spans, per_phase):
    """{name: {calls, s, bytes, ms}}: calls, self seconds and bytes with each
    phase's totals divided by per_phase[phase] (so per one set-up plus one
    timed round), and ms as the mean self time of one call."""
    own = self_times(spans)
    out = defaultdict(lambda: {"calls": 0.0, "s": 0.0, "bytes": 0.0,
                               "n": 0, "total": 0.0})
    for sid, _, name, phase, _, _, size in spans:
        scale = 1.0 / per_phase[phase]
        acc = out[name]
        acc["calls"] += scale
        acc["s"] += own[sid] * scale
        acc["bytes"] += size * scale
        acc["n"] += 1
        acc["total"] += own[sid]
    for acc in out.values():
        acc["ms"] = 1000.0 * acc.pop("total") / acc.pop("n")
    return dict(out)

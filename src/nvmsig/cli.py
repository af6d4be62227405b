"""Command-line surface: reproducible experiments and one-shot verdicts.

Every generation command records a manifest (flat key = value text) next
to its artifact; running the same command with `--config <manifest>`
rebuilds the artifact byte for byte.  Wall-clock timings are printed to
stdout and kept out of every file, so every file reproduces byte for byte.

The surface is `_COMMANDS` (each command's help line, `_SCHEMA` keys and
required keys) and `_SWITCHES` (which keys act on a run, `_acting`).  `main`
merges defaults, config file and flags, refuses idle flags, checks the
acting required keys and passes all to `cmd_<name>`.
"""

import argparse
import functools
import os
import sys
import time
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .chipsim import (
    cycle_location,
    dump_catalog,
    full_chip_scan,
    latency_block,
    load_catalog,
    new_chip,
)
from ._atomic import atomic_open, format_rows, parse_int64, read_block, read_lines, read_table
from .classifiers import KINDS, PARAMS, cross_validate, evaluate, load_model, save_model, train
from .detector import (
    baseline_from_catalog,
    diagnose_probe,
    load_map,
    locate_used_regions,
    save_map,
)
from .errors import NumericError, NvmsigError, ParseError, ValidationError
from .features import apply_standardizer, fit_standardizer, mrmr_select, nca_select
from .protocol import (DEFAULT_CHECKPOINTS, build_dataset, load_dataset,
                       save_dataset, split, split_rows)

OUT_DIR_ENV = "NVMSIG_OUT"
SELECTORS = ("none", "mrmr", "nca")
_TRACE_BLOCK = 4096  # rows per latency_block call in `nvmsig simulate`


# ------------------------------------------------------------ config values

def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_ints(text: str):
    return [parse_int64(p) for p in text.split(",") if p.strip() != ""]


def _parse_path(text: str) -> str:
    if "\x00" in text:
        raise ValueError(f"path {text!r} holds a NUL byte")
    return text


def _parse_gamma(text: str):
    return "auto" if text.strip() == "auto" else float(text)


def _parse_spots(text: str):
    """'addr:cycles,addr:cycles' pairs for pre-cycling scan targets."""
    spots = []
    for part in text.split(","):
        if part.strip() == "":
            continue
        addr, sep, cycles = part.partition(":")
        if not sep:
            raise ValueError(f"expected addr:cycles, got {part!r}")
        spots.append((parse_int64(addr), parse_int64(cycles)))
    return spots


def _choice(*options):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {', '.join(options)}, got {text!r}")
        return text
    return parse


def _flag_type(parse):
    """`parse` as an argparse type: a ValueError becomes an
    ArgumentTypeError, so a bad flag shows the parser's reason, as a bad
    config line does, rather than "invalid <function name> value"."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


class _Field(NamedTuple):
    """One config key: its text parser, default and help line."""
    parse: Callable
    default: object
    help: str


_SCHEMA = {
    "seed": _Field(parse_int64, None, "root seed; all randomness derives from it"),
    "catalog": _Field(_parse_path, "builtin", "catalog CSV path, or 'builtin'"),
    "classes": _Field(_parse_ints, None, "class tags to include (default all)"),
    "chips_per_class": _Field(parse_int64, 3, "simulated chips per class"),
    "checkpoints": _Field(_parse_ints, list(DEFAULT_CHECKPOINTS),
                          "wear counts where probes are captured"),
    "group": _Field(parse_int64, 100, "consecutive cycles captured per probe"),
    "locations_per_chip": _Field(parse_int64, 12, "probed addresses per chip"),
    "split": _Field(_parse_bool, False, "also write .train/.test files"),
    "train_fraction": _Field(float, 0.8, "train share of the split"),
    "split_seed": _Field(parse_int64, None, "split stream seed (default: seed)"),
    "kind": _Field(_choice(*KINDS), "knn", "classifier: knn, tree, or svm"),
    "k": _Field(parse_int64, 5, "knn neighbor count"),
    "max_depth": _Field(parse_int64, 20, "tree depth limit"),
    "min_leaf": _Field(parse_int64, 1, "minimum samples per tree leaf"),
    "c": _Field(float, 1.0, "svm box constraint C"),
    "gamma": _Field(_parse_gamma, "auto", "svm RBF gamma, or 'auto'"),
    "tol": _Field(float, 1e-3, "svm KKT gap tolerance"),
    "selector": _Field(_choice(*SELECTORS), "none", "feature selector: none, mrmr, or nca"),
    "select_k": _Field(parse_int64, 25, "features kept by the selector"),
    "mrmr_bins": _Field(parse_int64, 16, "histogram bins for mutual information"),
    "nca_iters": _Field(parse_int64, 200, "nca gradient steps"),
    "nca_lr": _Field(float, 0.01, "nca learning rate"),
    "folds": _Field(parse_int64, 8, "cross-validation folds"),
    "class_tag": _Field(parse_int64, 0, "chip class tag"),
    "addr": _Field(parse_int64, 0, "location address"),
    "cycles": _Field(parse_int64, 1000, "operations to simulate"),
    "spots": _Field(_parse_spots, [], "addr:cycles pairs to pre-cycle"),
    "flag_ratio": _Field(float, 1.5, "elevation ratio that flags an address"),
    "used_threshold": _Field(float, 1.3, "elevation ratio called USED"),
    "fresh_threshold": _Field(float, 1.1, "elevation ratio called FRESH"),
    "out_dir": _Field(_parse_path, None, f"output directory (default ${OUT_DIR_ENV} or '.')"),
    "out": _Field(_parse_path, None, "output file (or prefix) inside out_dir"),
    "dataset": _Field(_parse_path, None, "dataset CSV path"),
    "train": _Field(_parse_path, None, "training dataset CSV path"),
    "test": _Field(_parse_path, None, "test dataset CSV path"),
    "model": _Field(_parse_path, None, "model file path"),
    "probe": _Field(_parse_path, None, "probe CSV path (last column latency_us)"),
    "map": _Field(_parse_path, None, "spatial map CSV path"),
    "map_out": _Field(_parse_path, None, "write the scanned map CSV here"),
}

# config-file spelling -> schema key
_KEY_ALIASES = {"class": "class_tag"}


def _only_false(text: str) -> None:
    if _parse_bool(text):
        raise ValueError("no longer supported; only 'false' reruns")


# keys that older manifests carry and that no longer change anything, each
# with a check of its value: a value whose run cannot be rebuilt is an error
_RETIRED_KEYS = {"max_passes": str, "jobs": str, "nca_subsample": _only_false}


def read_config(path) -> dict:
    values = {}
    for ln, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ParseError("expected 'key = value'", line=ln)
        key = key.strip()
        key = _KEY_ALIASES.get(key, key)
        if key in _RETIRED_KEYS:
            parse = _RETIRED_KEYS[key]
        elif key in _SCHEMA:
            parse = _SCHEMA[key].parse
        else:
            raise ParseError(f"unknown key '{key}'", line=ln)
        try:
            value = parse(val.strip())
        except ValueError as exc:
            raise ParseError(f"{key}: {exc}", line=ln) from None
        if key in _SCHEMA:
            values[key] = value
    return values


def merge_config(args) -> SimpleNamespace:
    """Defaults, then config-file keys, then explicit CLI flags."""
    values = {k: f.default for k, f in _SCHEMA.items()}
    if args.config:
        values.update(read_config(args.config))
    for key in _SCHEMA:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if values["split_seed"] is None:
        values["split_seed"] = values["seed"]
    if values["out_dir"] is None:
        values["out_dir"] = os.environ.get(OUT_DIR_ENV, ".")
    return SimpleNamespace(**values)


# ----------------------------------------------------------------- file I/O

def _out_path(cfg, name: str) -> str:
    path = name if os.path.isabs(name) else os.path.join(cfg.out_dir, name)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _write_text(path: str, text: str) -> None:
    """Write `text` to a path from `_out_path`, which made its directory."""
    with atomic_open(path) as fh:
        fh.write(text)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        if value and isinstance(value[0], tuple):
            return ",".join(f"{a}:{c}" for a, c in value)
        return ",".join(str(v) for v in value)
    return str(value)


def _write_manifest(path: str, command: str, cfg) -> None:
    lines = [f"# nvmsig {__version__} {command} manifest; rerun with --config"]
    lines += [f"{key} = {_format_value(value)}" for key in _acting(command, cfg)
              if (value := getattr(cfg, key)) is not None]
    _write_text(path, "\n".join(lines) + "\n")


def _load_probe(path) -> np.ndarray:
    """Latency vector from a CSV whose last column is latency_us."""
    def header_fault(cells):
        return None if cells[-1] == "latency_us" else \
            "expected a trailing latency_us column"

    header, rows, linenos = read_table(read_lines(path), header_fault)
    # the leading cells are counted, not read
    rec = read_block(rows, linenos, [("rest", "S1", len(header) - 1),
                                     ("lat", np.float64)], delimiter=",")
    return np.ascontiguousarray(rec["lat"])


def _catalog(cfg, tags=None):
    """The specs of `tags`, in that order, from the configured catalog; the
    whole catalog when `tags` is None."""
    catalog = load_catalog(cfg.catalog)
    if tags is None:
        return catalog
    by_tag = {s.class_tag: s for s in catalog}
    for t in tags:
        if t not in by_tag:
            raise ValidationError(f"class tag {t} not in catalog "
                                  f"(have {sorted(by_tag)})")
    return [by_tag[t] for t in tags]


# ------------------------------------------------------------ training glue

def _select(cfg, ds, selector: str):
    """(ranking, seconds): `selector` fitted on `ds`; (None, 0.0) for none."""
    if selector == "none":
        return None, 0.0
    t0 = time.perf_counter()
    if selector == "mrmr":
        ranking = mrmr_select(ds, k=cfg.select_k, bins=cfg.mrmr_bins)
    else:
        # nca is distance-based, so rank on standardized features
        stats = fit_standardizer(np.asarray(ds.X, dtype=np.float64))
        z = apply_standardizer(stats, ds.X)
        ranking = nca_select(SimpleNamespace(X=z, y=ds.y), k=cfg.select_k,
                             iters=cfg.nca_iters, learning_rate=cfg.nca_lr)
    return ranking, time.perf_counter() - t0


def _hyper(cfg, kind: str) -> dict:
    """Trainer keyword arguments for `kind` from the config fields."""
    return {key: getattr(cfg, key.lower()) for key in PARAMS[kind]}


def _table_row(model, report, sel_time: float) -> str:
    return (f"{model.kind:<5} {model.selection_method:<5} "
            f"features={model.indices.size:<3} acc={report.accuracy:.4f} "
            f"select={sel_time:.4f}s train={model.train_time_s:.4f}s "
            f"infer={report.infer_time_s:.4f}s "
            f"per_sample={report.infer_time_per_sample_s:.6f}s")


def _trace_blocks(chip, addr: int, cycles: int):
    """`cycle,latency_us` rows of a trace, `_TRACE_BLOCK` rows at a time,
    so a trace of any length is written in flat memory."""
    for start in range(0, cycles, _TRACE_BLOCK):
        lat = latency_block(chip, addr, min(_TRACE_BLOCK, cycles - start))
        yield format_rows(np.arange(start, start + lat.size)[:, None], lat[:, None])


# ---------------------------------------------------------------- commands

def cmd_catalog(cfg) -> int:
    text = dump_catalog(_catalog(cfg))
    if cfg.out:
        path = _out_path(cfg, cfg.out)
        _write_text(path, text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_simulate(cfg) -> int:
    if cfg.cycles < 1:
        raise ValidationError("cycles must be >= 1")
    spec, = _catalog(cfg, [cfg.class_tag])
    blocks = _trace_blocks(new_chip(spec, cfg.seed), cfg.addr, cfg.cycles)
    # the first block checks the address before anything is written
    head = "cycle,latency_us\n" + next(blocks)
    if cfg.out:
        path = _out_path(cfg, cfg.out)
        with atomic_open(path) as fh:
            fh.write(head)
            fh.writelines(blocks)
        _write_manifest(path + ".manifest", "simulate", cfg)
        print(f"wrote {path} ({cfg.cycles} rows)")
    else:
        sys.stdout.write(head)
        sys.stdout.writelines(blocks)
    return 0


def cmd_dataset(cfg) -> int:
    ds = build_dataset(_catalog(cfg, cfg.classes),
                       chips_per_class=cfg.chips_per_class,
                       checkpoints=cfg.checkpoints, group=cfg.group,
                       locations_per_chip=cfg.locations_per_chip,
                       seed=cfg.seed)
    rows = ()
    if cfg.split:
        # split first, so a bad split leaves no file or directory behind
        rows = split_rows(ds.y, train_fraction=cfg.train_fraction,
                          seed=cfg.split_seed)
    path = _out_path(cfg, cfg.out if cfg.out else "dataset.csv")
    stem = path[:-4] if path.endswith(".csv") else path
    parts = [(r, f"{stem}.{side}.csv") for r, side in zip(rows, ("train", "test"))]
    save_dataset(ds, path, parts)
    print(f"wrote {path} ({ds.y.size} samples, {len(ds.class_counts())} classes)")
    for r, part_path in parts:
        print(f"wrote {part_path} ({r.size} samples)")
    _write_manifest(path + ".manifest", "dataset", cfg)
    return 0


def cmd_train(cfg) -> int:
    ds = load_dataset(cfg.dataset)
    ranking, sel_time = _select(cfg, ds, cfg.selector)
    model = train(cfg.kind, ds, ranking=ranking, **_hyper(cfg, cfg.kind))
    path = _out_path(cfg, cfg.out if cfg.out else "model.txt")
    save_model(model, path)
    _write_manifest(path + ".manifest", "train", cfg)
    print(f"wrote {path}")
    print(f"kind={model.kind} selector={model.selection_method} "
          f"features={model.indices.size} samples={model.n_train} "
          f"select={sel_time:.4f}s train={model.train_time_s:.4f}s")
    return 0


def cmd_crossval(cfg) -> int:
    ds = load_dataset(cfg.dataset)
    seed = cfg.seed if cfg.seed is not None else 0
    result = cross_validate(cfg.kind, ds, folds=cfg.folds, seed=seed,
                            ranking_fn=lambda sub: _select(cfg, sub, cfg.selector)[0],
                            **_hyper(cfg, cfg.kind))
    rows = [f"{i},{acc:.6f}\n" for i, acc in enumerate(result.accuracies)]
    tail = f"mean,{result.mean_accuracy:.6f}\nstdev,{result.stdev_accuracy:.6f}\n"
    print(f"kind={cfg.kind} selector={cfg.selector} folds={cfg.folds} seed={seed}")
    print("".join("fold " + row.replace(",", ": ") for row in rows), end="")
    print(f"mean={result.mean_accuracy:.6f} stdev={result.stdev_accuracy:.6f}")
    if cfg.out:
        path = _out_path(cfg, cfg.out)
        _write_text(path, "fold,accuracy\n" + "".join(rows) + tail)
        print(f"wrote {path}")
    return 0


def cmd_eval(cfg) -> int:
    model = load_model(cfg.model)
    test = load_dataset(cfg.dataset)
    report = evaluate(model, test)
    prefix = _out_path(cfg, cfg.out if cfg.out else "eval")
    _write_text(prefix + ".report.txt", report.to_text())
    _write_text(prefix + ".confusion.csv", report.to_csv())
    # loaded models carry no stored wall-clock, so select and train times
    # print as 0; the sweep command reports in-process times
    print(_table_row(model, report, 0.0))
    print(f"wrote {prefix}.report.txt and {prefix}.confusion.csv")
    return 0


def cmd_sweep(cfg) -> int:
    if cfg.dataset is None:
        train_ds, test_ds = load_dataset(cfg.train), load_dataset(cfg.test)
    else:
        train_ds, test_ds = split(load_dataset(cfg.dataset),
                                  train_fraction=cfg.train_fraction,
                                  seed=cfg.split_seed)
    # one selector fit serves all kinds; the `select=` time is that shared fit
    selected = {sel: _select(cfg, train_ds, sel) for sel in SELECTORS}
    # every cell is fitted before any file is written, so a cell that fails
    # leaves no partial sweep behind
    cells = []
    for kind in KINDS:
        for sel in SELECTORS:
            model = train(kind, train_ds, ranking=selected[sel][0],
                          **_hyper(cfg, kind))
            cells.append((model, evaluate(model, test_ds)))
    rows = ["method,selector,n_features,accuracy"]
    for model, report in cells:
        kind, sel = model.kind, model.selection_method
        print(_table_row(model, report, selected[sel][1]))
        rows.append(f"{kind},{sel},{model.indices.size},{report.accuracy:.6f}")
        stem = _out_path(cfg, f"sweep_{kind}_{sel}")
        save_model(model, stem + ".model.txt")
        _write_text(stem + ".confusion.csv", report.to_csv())
    path = _out_path(cfg, "sweep.csv")
    _write_text(path, "\n".join(rows) + "\n")
    _write_manifest(path + ".manifest", "sweep", cfg)
    print(f"wrote {path}")
    return 0


def cmd_predict(cfg) -> int:
    model = load_model(cfg.model)
    probe = _load_probe(cfg.probe)
    baseline = baseline_from_catalog(_catalog(cfg))
    report = diagnose_probe(probe, model, baseline,
                            used_threshold=cfg.used_threshold,
                            fresh_threshold=cfg.fresh_threshold)
    sys.stdout.write(report.to_text())
    if cfg.out:
        prefix = _out_path(cfg, cfg.out)
        _write_text(prefix + ".txt", report.to_text())
        _write_text(prefix + ".csv", report.to_csv())
        print(f"wrote {prefix}.txt and {prefix}.csv")
    return 0


def cmd_scan(cfg) -> int:
    if cfg.map is not None:
        latency_map = load_map(cfg.map)
    else:
        spec, = _catalog(cfg, [cfg.class_tag])
        chip = new_chip(spec, cfg.seed)
        for addr, cycles in cfg.spots:
            cycle_location(chip, addr, cycles)
        latency_map = full_chip_scan(chip)
        if cfg.map_out:
            path = _out_path(cfg, cfg.map_out)
            save_map(latency_map, path)
            _write_manifest(path + ".manifest", "scan", cfg)
            print(f"wrote {path}")
    regions = locate_used_regions(latency_map, flag_ratio=cfg.flag_ratio)
    print(f"scanned {len(latency_map)} addresses at flag ratio {cfg.flag_ratio:g}")
    if not regions:
        print("no used regions")
    else:
        print("used regions (start, end, peak ratio):")
        for r in regions:
            print(f"  {r.start_addr} {r.end_addr} {r.peak_ratio:.4f}")
    if cfg.out:
        path = _out_path(cfg, cfg.out)
        csv = "start_addr,end_addr,peak_ratio\n" + "".join(
            f"{r.start_addr},{r.end_addr},{r.peak_ratio:.6f}\n" for r in regions)
        _write_text(path, csv)
        print(f"wrote {path}")
    return 0


# ------------------------------------------------------------------ parsing

class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage as a validation error (exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _flag(key: str) -> str:
    """The flag of a schema key; an aliased key keeps its config spelling."""
    return "--" + {v: k for k, v in _KEY_ALIASES.items()}.get(key, key).replace("_", "-")


def _add(parser, key: str):
    f = _SCHEMA[key]
    if f.parse is _parse_bool:
        kind = {"action": argparse.BooleanOptionalAction}
    else:
        kind = {"type": _flag_type(f.parse)}
    # a None default is worked out by merge_config, and the help says how
    shown = "" if f.default is None else f" (default: {_format_value(f.default)})"
    parser.add_argument(_flag(key), dest=key, default=None, help=f.help + shown,
                        **kind)


_EPILOG = f"""\
config files are flat `key = value` lines; '#' starts a comment; CLI flags
override config values.  all randomness flows from --seed: chips and the
train/test split draw fixed independent substreams.
relative output paths land in --out-dir, else ${OUT_DIR_ENV}, else '.'.
exit codes: 0 success, 1 validation error, 2 I/O error, 3 numeric failure.
"""


_MODEL_SWITCHES = {"kind": {kind: tuple(key.lower() for key in params)
                            for kind, params in PARAMS.items()},
                   "selector": {"none": (), "mrmr": ("select_k", "mrmr_bins"),
                                "nca": ("select_k", "nca_iters", "nca_lr")}}
# each switch, then the keys it switches, each once
_MODEL_KEYS = tuple(dict.fromkeys(
    key for switch, by_value in _MODEL_SWITCHES.items()
    for key in (switch,) + sum(by_value.values(), ())))

# command -> (help line, the _SCHEMA keys it takes besides --config and --out-dir
# in manifest order, the keys it cannot run without while they act); only
# sweep's split of --dataset draws at random, so sweep requires split_seed
_COMMANDS = {
    "catalog": ("dump the chip-class catalog as CSV", ("catalog", "out"), ()),
    "simulate": ("per-cycle latency trace for one location",
                 ("seed", "catalog", "class_tag", "addr", "cycles", "out"),
                 ("seed",)),
    "dataset": ("build a labeled latency-signature dataset",
                ("seed", "catalog", "classes", "chips_per_class",
                 "checkpoints", "group", "locations_per_chip", "out",
                 "split", "train_fraction", "split_seed"), ("seed",)),
    "train": ("train a classifier and save the model file",
              ("seed", "dataset") + _MODEL_KEYS + ("out",), ("dataset",)),
    "crossval": ("k-fold cross-validation accuracy table",
                 ("seed", "dataset", "folds") + _MODEL_KEYS + ("out",),
                 ("dataset",)),
    "eval": ("score a saved model on a labeled dataset",
             ("model", "dataset", "out"), ("model", "dataset")),
    "sweep": ("all classifier x selector cells in one run",
              ("seed", "dataset", "train", "test", "train_fraction",
               "split_seed")
              + tuple(k for k in _MODEL_KEYS if k not in ("kind", "selector")),
              ("split_seed", "dataset", "train", "test")),
    "predict": ("identify a probe and judge fresh vs used",
                ("catalog", "model", "probe", "used_threshold",
                 "fresh_threshold", "out"), ("model", "probe")),
    "scan": ("locate used regions on a map or simulated chip",
             ("seed", "catalog", "map", "class_tag", "spots", "flag_ratio",
              "map_out", "out"), ("seed",)),
}

# command -> {switch key: {value: the keys that act only at that value}}, None
# standing for the switch left unset; every other key of the command acts
_SWITCHES = {
    "dataset": {"split": {True: ("split", "train_fraction", "split_seed")}},
    "train": _MODEL_SWITCHES, "crossval": _MODEL_SWITCHES,
    "sweep": {"dataset": {None: ("train", "test")},
              "train": {None: ("dataset", "train_fraction", "split_seed")}},
    "scan": {"map": {None: ("seed", "catalog", "class_tag", "spots", "map_out")}},
}


def _idle(command: str, cfg) -> dict:
    """Each key of `command` that a switch leaves idle in `cfg` -> that switch."""
    return {key: switch for switch, by_value in _SWITCHES.get(command, {}).items()
            for keys in by_value.values() for key in keys
            if key not in by_value.get(getattr(cfg, switch), ())}


def _acting(command: str, cfg) -> list:
    """The keys of `command` that act on a run with `cfg`, in `_COMMANDS` order."""
    idle = _idle(command, cfg)
    return [key for key in _COMMANDS[command][1] if key not in idle]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every command in `_COMMANDS`, built once per process.
    It holds no handler: `main` looks `cmd_<command>` up at call time."""
    root = _Parser(prog="nvmsig", epilog=_EPILOG,
                   formatter_class=argparse.RawDescriptionHelpFormatter,
                   description="chip-origin and usage forensics from "
                               "program/erase latency signatures")
    root.add_argument("--version", action="version",
                      version=f"nvmsig {__version__}")
    sub = root.add_subparsers(dest="command", metavar="command")
    common = _Parser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    _add(common, "out_dir")
    for command, (summary, keys, _) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=summary)
        for key in keys:
            _add(p, key)
    return root


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        cfg = merge_config(args)
        idle = _idle(args.command, cfg)
        for key, switch in idle.items():
            # refused: an idle flag, or a switch that another switch idles; an
            # idle config key is dropped.  `--no-split` idles only itself
            source = cfg if key in _SWITCHES[args.command] else args
            if switch != key and getattr(source, key) is not None:
                raise ValidationError(f"{_flag(key)} has no effect with {_flag(switch)} "
                                      f"{_format_value(getattr(cfg, switch))}")
        for key in _COMMANDS[args.command][2]:
            if key not in idle and getattr(cfg, key) is None:
                # split_seed falls back to seed: unset, neither was given
                flag = _flag("seed" if key == "split_seed" else key)
                raise ValidationError(f"{flag} is required for '{args.command}'")
        return globals()[f"cmd_{args.command}"](cfg)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NvmsigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads: lab model building, field forensics, data generation.

Each workload is a closed loop with one client.  `setup` builds its inputs
(nvmsig only ever sees the generated files and arrays), `run_round` is the
timed part and repeats the same operations on every call, `after_round`
keeps what the checks need without being timed, and `check` judges every
operation of every round afterwards.
"""

import csv
import hashlib
import io
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import checks
import timing
# called through their modules, so that a traced run's wrappers see the calls
from nvmsig import chipsim, classifiers, cli, detector, features, protocol
from nvmsig.errors import NvmsigError

KINDS = ("knn", "tree", "svm")
SELECTORS = ("none", "mrmr", "nca")
SELECT_K = 25          # the CLI's pinned --select-k
TRAIN_FRACTION = 0.8   # the CLI's pinned --train-fraction
GROUP = 100            # the CLI's pinned probe length
CHECKPOINTS = 7        # the CLI's pinned wear checkpoints
# the reduced lab dataset: all 9 classes, default probes and checkpoints,
# 2 chips x 2 locations (252 probes, 198 for training), so that a run holds
# several sweeps
SMALL_CHIPS, SMALL_LOCATIONS = 2, 2
USED_CYCLES = (10_000, 15_000, 20_000, 30_000, 50_000)


def run_cli(argv):
    """(exit code, stdout) of one in-process `nvmsig` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue() + err.getvalue()


def sub_seed(seed, stream):
    return int(np.random.default_rng([seed, stream]).integers(1, 2 ** 31))


class Tally:
    """Operations attempted.  An operation fails when it raises, exits
    non-zero or shows a known fault of the program (`error`), or when its
    output fails a check (`problems`); only the last marks the run's
    outputs as not correct."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.notes = {}

    def op(self, what, error=None, problems=()):
        self.attempted += 1
        if error is None and not problems:
            return
        self.failed += 1
        notes = [f"failed: {what}: {error}"] if error is not None else []
        if problems:
            self.wrong += 1
            notes.append(f"wrong: {what}: {'; '.join(problems)}")
        for note in notes:
            self.notes[note] = self.notes.get(note, 0) + 1


def percentiles(samples_s):
    """Median, and p99 where at least 10 samples lie beyond it, in ms."""
    ms = 1000.0 * np.asarray(samples_s)
    out = {"n": int(ms.size), "p50_ms": float(np.median(ms))}
    if ms.size >= 1000:
        out["p99_ms"] = float(np.percentile(ms, 99))
    return out


# ------------------------------------------------------------------- sweep

class Sweep:
    """One `nvmsig sweep` over 3 classifiers x 3 selectors per round.

    Its inputs do not depend on the workload seed.  The SMO solver stops
    unconverged on some datasets and not on others, and a failed share that
    moved with the seed could not be compared between runs; LAB_SEED is a
    dataset on which that fault shows, so a solver that converges lowers
    `failed` and one that stops earlier raises it.
    """

    LAB_SEED = 1

    def __init__(self, seed, workdir):
        self.wd = workdir
        self.train = os.path.join(workdir, "data", "lab.train.csv")
        self.test = os.path.join(workdir, "data", "lab.test.csv")
        self.rounds = []   # (out dir, exit code, output)

    def setup(self):
        rc, out = run_cli(["dataset", "--seed", self.LAB_SEED,
                           "--chips-per-class", SMALL_CHIPS,
                           "--locations-per-chip", SMALL_LOCATIONS, "--split",
                           "--out-dir", os.path.join(self.wd, "data"), "--out", "lab.csv"])
        if rc != 0:
            raise RuntimeError(f"sweep set-up: nvmsig dataset failed: {out}")

    def run_round(self, r):
        out_dir = os.path.join(self.wd, f"round{r}")
        rc, out = run_cli(["sweep", "--seed", self.LAB_SEED, "--train", self.train,
                           "--test", self.test, "--out-dir", out_dir])
        self.rounds.append((out_dir, rc, out))

    def after_round(self, r):
        pass

    def check(self, tally):
        test, train = checks.read_dataset_csv(self.test), checks.read_dataset_csv(self.train)
        self.kkt = {}
        for out_dir, rc, out in self.rounds:
            rows = None
            if rc == 0:
                rows = checks.read_sweep_csv(os.path.join(out_dir, "sweep.csv"))
            for kind in KINDS:
                for sel in SELECTORS:
                    what = f"sweep cell {kind}/{sel}"
                    if rc != 0:
                        tally.op(what, error=f"exit {rc}: {out.strip()[-200:]}")
                        continue
                    stem = os.path.join(out_dir, f"sweep_{kind}_{sel}")
                    try:
                        problems, faults, _ = checks.check_sweep_cell(
                            stem, rows[(kind, sel)], test, SELECT_K)
                        if kind == "svm":
                            box, gaps, self.kkt[sel] = checks.check_svm_kkt(
                                checks.read_model(f"{stem}.model.txt"), train[2], train[0])
                            problems += box
                            faults += gaps
                    except (OSError, ValueError, LookupError) as exc:
                        problems, faults = [f"unreadable output: {exc!r}"], []
                    tally.op(what, error="; ".join(faults) or None, problems=problems)

    def reference(self):
        out_dir, rc, _ = self.rounds[0]
        acc = {}
        if rc == 0:
            for (kind, sel), row in checks.read_sweep_csv(
                    os.path.join(out_dir, "sweep.csv")).items():
                acc[f"{kind}/{sel}"] = float(row[3])
        return {"accuracy": acc, "svm_kkt_largest_violation": self.kkt}


# ------------------------------------------------------------------ screen

class Screen:
    """Verdicts, CLI predicts and CLI scans on probes and maps of chips
    that are not in any training set."""

    PROBES = 60          # half fresh, half pre-cycled; each through 3 models
    PREDICTS = 18        # per round, cycling through the three model files
    MAPS = 45
    SCANS_PER_MAP = 2
    SPOTS = 3

    def __init__(self, seed, workdir):
        self.wd = workdir
        self.workload_seed = seed
        self.seed = sub_seed(seed, 2)
        self.verdicts, self.predicts, self.scans = [], [], []
        self.lat = {f"verdict.{k}": [] for k in KINDS}
        self.lat.update(predict=[], scan=[])

    def _fresh_seed(self, rng):
        while True:
            s = int(rng.integers(1, 2 ** 62))
            if s not in self.train_seeds:
                return s

    def setup(self):
        catalog = chipsim.load_catalog()
        self.baseline = detector.baseline_from_catalog(catalog)
        full = protocol.build_dataset(catalog, seed=self.seed)
        train, _ = protocol.split(full, train_fraction=TRAIN_FRACTION, seed=self.seed)
        rank = features.mrmr_select(train, k=SELECT_K)
        small = protocol.build_dataset(catalog, chips_per_class=SMALL_CHIPS,
                              locations_per_chip=SMALL_LOCATIONS, seed=self.seed)
        small_train, _ = protocol.split(small, train_fraction=TRAIN_FRACTION, seed=self.seed)
        self.models = {
            "knn": classifiers.train_knn(train, ranking=rank),
            "tree": classifiers.train_tree(train, ranking=rank),
            "svm": classifiers.train_svm(
                small_train, ranking=features.mrmr_select(small_train, k=SELECT_K),
                seed=self.seed)}
        os.makedirs(os.path.join(self.wd, "inputs"), exist_ok=True)
        self.model_files = {}
        for kind, model in self.models.items():
            self.model_files[kind] = os.path.join(self.wd, "inputs", f"{kind}.model.txt")
            classifiers.save_model(model, self.model_files[kind])
        self.train_seeds = set(full.meta[:, 0].tolist()) | set(small.meta[:, 0].tolist())

        rng = np.random.default_rng([self.workload_seed, 20])
        self.probes, self.truth, self.probe_files = [], [], []
        for i in range(self.PROBES):
            spec = catalog[i % len(catalog)]
            chip = chipsim.new_chip(spec, self._fresh_seed(rng))
            addr = int(rng.integers(spec.num_locations))
            used = i >= self.PROBES // 2
            if used:
                chipsim.cycle_location(chip, addr, int(rng.choice(USED_CYCLES)))
            probe = chipsim.latency_block(chip, addr, GROUP)
            path = os.path.join(self.wd, "inputs", f"probe{i}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("cycle,latency_us\n" + "".join(
                    f"{c},{v:.6f}\n" for c, v in enumerate(probe)))
            self.probes.append(probe)
            self.truth.append((spec.class_tag, used))
            self.probe_files.append(path)
        self.maps = []
        for i in range(self.MAPS):
            spec = catalog[i % len(catalog)]
            chip = chipsim.new_chip(spec, self._fresh_seed(rng))
            while True:
                spots = np.sort(rng.choice(spec.num_locations, self.SPOTS, replace=False))
                if np.all(np.diff(spots) >= 3):
                    break
            for addr in spots:
                chipsim.cycle_location(chip, int(addr), int(rng.choice(USED_CYCLES)))
            path = os.path.join(self.wd, "inputs", f"map{i}.csv")
            detector.save_map(chipsim.full_chip_scan(chip), path)
            self.maps.append((path, [int(a) for a in spots]))
        # warm-up: one call of each operation
        for model in self.models.values():
            detector.diagnose_probe(self.probes[0], model, self.baseline)
        run_cli(["predict", "--model", self.model_files["knn"], "--probe", self.probe_files[0]])
        run_cli(["scan", "--map", self.maps[0][0]])

    def run_round(self, r):
        for kind, model in self.models.items():
            lat = self.lat[f"verdict.{kind}"]
            for i, probe in enumerate(self.probes):
                t0 = timing.now()
                rep = detector.diagnose_probe(probe, model, self.baseline)
                lat.append(timing.now() - t0)
                self.verdicts.append((kind, i, rep.predicted_class_tag,
                                      rep.recycled_verdict.value))
        for j in range(self.PREDICTS):
            kind, i = KINDS[j % 3], j * self.PROBES // self.PREDICTS
            t0 = timing.now()
            rc, out = run_cli(["predict", "--model", self.model_files[kind],
                               "--probe", self.probe_files[i]])
            self.lat["predict"].append(timing.now() - t0)
            self.predicts.append((kind, i, rc, out))
        for _ in range(self.SCANS_PER_MAP):
            for m, (path, _) in enumerate(self.maps):
                t0 = timing.now()
                rc, out = run_cli(["scan", "--map", path])
                self.lat["scan"].append(timing.now() - t0)
                self.scans.append((m, rc, out))

    def after_round(self, r):
        pass

    def check(self, tally):
        P = np.array(self.probes)
        true_tags = np.array([t for t, _ in self.truth])
        batch = {k: classifiers.predict(m, P) for k, m in self.models.items()}
        knn = self.models["knn"]
        oracle, tie = checks.knn_oracle(
            knn.core.X, knn.core.y, knn.core.k,
            checks.standardize({"indices": knn.indices, "mean": knn.stats.mean,
                                "std": knn.stats.std}, P))
        truth_ok = []
        for probe, (tag, used) in zip(self.probes, self.truth):
            verdict, _ = detector.detect_recycled(probe, tag, self.baseline)
            truth_ok.append(verdict.value == ("USED" if used else "FRESH"))
        for kind, i, tag, verdict in self.verdicts:
            problems = []
            if tag != batch[kind][i]:
                problems.append(f"class {tag} != batch predict {batch[kind][i]}")
            if kind == "knn" and tag != oracle[i] and not tie[i]:
                problems.append(f"class {tag} != brute-force knn {oracle[i]}")
            if not truth_ok[i]:
                problems.append("detect_recycled with the true class misjudged the probe")
            tally.op(f"verdict {kind} probe {i}", problems=problems)

        loaded = {k: classifiers.load_model(p) for k, p in self.model_files.items()}
        want = {}
        for kind, i, rc, out in self.predicts:
            if rc != 0:
                tally.op(f"predict {kind} probe {i}", error=f"exit {rc}: {out.strip()}")
                continue
            if (kind, i) not in want:
                rep = detector.diagnose_probe(self.probes[i], loaded[kind], self.baseline)
                want[kind, i] = (str(rep.predicted_class_tag), rep.recycled_verdict.value)
            got = checks.predict_fields(out)
            tally.op(f"predict {kind} probe {i}", problems=[] if got == want[kind, i]
                     else [f"printed {got}, library gives {want[kind, i]}"])
        for m, rc, out in self.scans:
            if rc != 0:
                tally.op(f"scan map {m}", error=f"exit {rc}: {out.strip()}")
                continue
            tally.op(f"scan map {m}", problems=checks.check_scan(out, self.maps[m][1]))

        self.ref = {"probe_class_accuracy": {}, "fresh_called_fresh": {},
                    "used_called_used": {}}
        used = np.array([u for _, u in self.truth])
        for kind in KINDS:
            v = {i: (tag, verdict) for k, i, tag, verdict in self.verdicts if k == kind}
            self.ref["probe_class_accuracy"][kind] = float(np.mean(batch[kind] == true_tags))
            self.ref["fresh_called_fresh"][kind] = float(np.mean(
                [v[i][1] == "FRESH" for i in np.nonzero(~used)[0]]))
            self.ref["used_called_used"][kind] = float(np.mean(
                [v[i][1] == "USED" for i in np.nonzero(used)[0]]))

    def reference(self):
        ref = {"latency": {k: percentiles(v) for k, v in self.lat.items()}}
        ref["latency"]["verdict"] = percentiles(
            sum((self.lat[f"verdict.{k}"] for k in KINDS), []))
        ref.update(self.ref)
        return ref


# ----------------------------------------------------------------- dataset

class DatasetGen:
    """`nvmsig dataset --split` at 6 chips per class for a few seeds, every
    file read back, one manifest rerun and one custom-catalog dataset."""

    SEEDS = 3
    CHIPS = 6
    LOCATIONS = 12   # the CLI default
    CUSTOM_MAKER = "Microchip Technology, Inc."

    def __init__(self, seed, workdir):
        self.wd = workdir
        self.data = os.path.join(workdir, "data")
        self.seeds = [sub_seed(seed, 30 + k) for k in range(self.SEEDS)]
        self.rounds = []
        self.gen_s = self.gen_rows = 0.0

    def _files(self, k):
        stem = os.path.join(self.data, f"ds{k}")
        return [f"{stem}.csv", f"{stem}.train.csv", f"{stem}.test.csv"]

    def setup(self):
        rc, text = run_cli(["catalog"])
        if rc != 0:
            raise RuntimeError(f"dataset set-up: nvmsig catalog failed: {text}")
        self.catalog = checks.read_catalog_csv(text)
        rows = list(csv.reader(io.StringIO(text)))
        for row in rows[1:]:
            if row[0] == "5":
                row[1] = self.CUSTOM_MAKER
        self.custom_catalog = os.path.join(self.wd, "custom_catalog.csv")
        with open(self.custom_catalog, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        self.custom_labels = {int(r[0]): f"{r[1]} {r[2]} {r[3]}" for r in rows[1:]}
        # warm-up: a one-probe-per-checkpoint dataset, written and read back
        warm = os.path.join(self.wd, "warm")
        run_cli(["dataset", "--seed", 1, "--classes", 0, "--chips-per-class", 1,
                 "--locations-per-chip", 1, "--out-dir", warm, "--out", "w.csv"])
        protocol.load_dataset(os.path.join(warm, "w.csv"))

    def run_round(self, r):
        rnd = {"rc": [], "loads": []}
        for k, seed in enumerate(self.seeds):
            t0 = timing.now()
            rc, _ = run_cli(["dataset", "--seed", seed, "--chips-per-class", self.CHIPS,
                             "--split", "--out-dir", self.data, "--out", f"ds{k}.csv"])
            self.gen_s += timing.now() - t0
            self.gen_rows += self.CHIPS * self.LOCATIONS * CHECKPOINTS * len(self.catalog)
            rnd["rc"].append(rc)
            for path in self._files(k):
                try:
                    rnd["loads"].append(protocol.load_dataset(path))
                except (NvmsigError, OSError) as exc:
                    rnd["loads"].append(exc)
        rnd["rerun"], _ = run_cli(["dataset", "--config", self._files(0)[0] + ".manifest",
                                   "--out-dir", os.path.join(self.wd, "rerun")])
        custom = os.path.join(self.wd, "custom")
        rc, out = run_cli(["dataset", "--seed", 1, "--catalog", self.custom_catalog,
                           "--chips-per-class", 1, "--locations-per-chip", 2, "--split",
                           "--out-dir", custom, "--out", "custom.csv"])
        try:
            rnd["custom"] = protocol.load_dataset(os.path.join(custom, "custom.csv")) if rc == 0 \
                else RuntimeError(f"exit {rc}: {out.strip()}")
        except (NvmsigError, OSError) as exc:
            rnd["custom"] = exc
        self.rounds.append(rnd)

    def after_round(self, r):
        """Digest every file of the round (later rounds overwrite them) and
        keep only fingerprints of what was loaded."""
        rnd = self.rounds[r]
        files = [p for k in range(self.SEEDS) for p in self._files(k)]
        rnd["digest"] = [checks.digest(p) if os.path.exists(p) else None for p in files]
        first = self._files(0)
        rerun = [os.path.join(self.wd, "rerun", os.path.basename(p)) for p in first]
        rnd["rerun_same"] = all(
            os.path.exists(q) and checks.digest(q) == checks.digest(p)
            for p, q in zip(first + [first[0] + ".manifest"],
                            rerun + [rerun[0] + ".manifest"]))
        rnd["loads"] = [d if isinstance(d, Exception) else
                        _fingerprint(len(d), d.X, d.y, d.meta, d.class_names)
                        for d in rnd["loads"]]

    def check(self, tally):
        last = self.rounds[-1]
        labels = {t: f"{r['manufacturer']} {r['capacity_label']} {r['technology']}"
                  for t, r in self.catalog.items()}
        content, expected = [], []
        for k in range(self.SEEDS):
            try:
                full, train, test = (checks.read_dataset_csv(p) for p in self._files(k))
            except (OSError, ValueError) as exc:
                content.append([f"unreadable output: {exc}"])
                expected += [None] * 3
                continue
            content.append(
                checks.check_dataset_rows(full, len(self.catalog), self.CHIPS,
                                          self.LOCATIONS, CHECKPOINTS)
                + checks.check_split(full, train, test, TRAIN_FRACTION)
                + checks.check_class_means(full, self.catalog, GROUP))
            expected += [_fingerprint(len(y), X, y, meta, labels)
                         for y, meta, X, _ in (full, train, test)]
        for rnd in self.rounds:
            same = rnd["digest"] == last["digest"]
            for k in range(self.SEEDS):
                what = f"dataset seed {k}"
                if rnd["rc"][k] != 0:
                    tally.op(what, error=f"exit {rnd['rc'][k]}")
                    continue
                tally.op(what, problems=content[k] + ([] if same else
                         ["output differs from the last round's"]))
            for j, got in enumerate(rnd["loads"]):
                what = f"load {os.path.basename(self._files(j // 3)[j % 3])}"
                if isinstance(got, Exception):
                    tally.op(what, error=f"{type(got).__name__}: {got}")
                    continue
                tally.op(what, problems=[] if same and got == expected[j] else
                         ["loaded rows or class names differ from the file's"])
            if rnd["rerun"] != 0:
                tally.op("manifest rerun", error=f"exit {rnd['rerun']}")
            else:
                tally.op("manifest rerun", problems=[] if rnd["rerun_same"] else
                         ["rerun is not byte-identical"])
            custom = rnd["custom"]
            if isinstance(custom, Exception):
                tally.op("custom-catalog dataset", error=f"{type(custom).__name__}: {custom}")
            else:
                tally.op("custom-catalog dataset", problems=[] if
                         custom.class_names == self.custom_labels else
                         ["class names do not round-trip"])

    def reference(self):
        return {"samples_per_s": self.gen_rows / self.gen_s,
                "rows_per_dataset": int(self.gen_rows / len(self.rounds) / self.SEEDS)}


def _fingerprint(rows, X, y, meta, class_names):
    """Exact identity of a dataset's contents, without keeping them."""
    arrays = (np.ascontiguousarray(X, dtype=np.float64),
              np.ascontiguousarray(y, dtype=np.int64),
              np.ascontiguousarray(meta, dtype=np.int64))
    return (rows, *(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays),
            tuple(sorted(class_names.items())))


WORKLOADS = {"sweep": Sweep, "screen": Screen, "dataset": DatasetGen}

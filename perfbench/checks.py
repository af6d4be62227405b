"""Output checks computed apart from the program.

Nothing here imports nvmsig: the file formats are parsed again, and every
expected value comes from a brute-force oracle, a structural property or
the catalog's own formula.  Each check returns a list of problems; an
empty list means the output passed.  The sweep checks also return faults:
known faults of the program that fail the operation without making its
output wrong.
"""

import csv
import hashlib
import io
import re

import numpy as np

# SVM pair machines are stored with 9 significant digits, so recomputed
# decision values differ from the solver's by rounding; this is far below
# any KKT tolerance the solver accepts.
KKT_ROUNDING_SLACK = 1e-6
# Relative rounding a 9-significant-digit model file can carry into a tree
# split, an svm decision value or a knn distance; a test probe that close to
# a boundary may land on either side (see check_sweep_cell).
FILE_REL = 1e-8
SVM_REL = 1e-7
KNN_REL = 1e-7
# mean-latency tolerance, in standard errors of the class x checkpoint mean
MEAN_SIGMAS = 6.0
# the emulated rig quantizes latencies to 0.01 us
QUANTUM_US = 0.01


# ------------------------------------------------------------------ parsers

def read_dataset_csv(path):
    """(y, meta, X, class-names line) of a dataset CSV, parsed by numpy."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    names = ""
    if lines and lines[0].startswith("# class_names:"):
        names, lines = lines[0], lines[1:]
    header = lines[0].split(",")
    body = lines[1:]
    if not body:
        raise ValueError(f"{path}: no data rows")
    # chip seeds use 63 bits, so the integer columns are not read as floats
    ints = np.array([ln.split(",", 4)[:4] for ln in body], dtype=np.int64)
    X = np.loadtxt(io.StringIO("\n".join(body)), delimiter=",", ndmin=2,
                   usecols=range(4, len(header)))
    if ints.shape != (len(body), 4) or X.shape != (len(body), len(header) - 4):
        raise ValueError(f"{path}: rows do not match the {len(header)}-column header")
    return ints[:, 0], ints[:, 1:4], X, names


def read_model(path):
    """Model text file as plain dicts and arrays (format 'nvmsig-model 1')."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "nvmsig-model 1" or lines[-1] != "end":
        raise ValueError(f"{path}: not a complete model file")
    m = {"params": {}, "labels": {}}
    pos = 1
    while not lines[pos].startswith("core "):
        key, _, rest = lines[pos].partition(" ")
        if key == "class":
            tag, _, label = rest.partition(" ")
            m["labels"][int(tag)] = label
        elif key == "param":
            name, val = rest.split()
            m["params"][name] = float(val)
        elif key in ("indices",):
            m[key] = np.array([int(v) for v in rest.split()], dtype=np.int64)
        elif key in ("mean", "std"):
            m[key] = np.array([float(v) for v in rest.split()])
        else:
            m[key] = rest
        pos += 1
    core = lines[pos].split()
    m["kind"] = core[1]
    body = lines[pos + 1:-1]
    if m["kind"] == "knn":
        rows = [ln.split() for ln in body]
        m["y"] = np.array([int(r[1]) for r in rows], dtype=np.int64)
        m["X"] = np.array([[float(v) for v in r[2:]] for r in rows])
    elif m["kind"] == "tree":
        m["tags"] = np.array([int(t) for t in body[0].split()[1:]], dtype=np.int64)
        m["nodes"] = []
        for ln in body[1:]:
            p = ln.split()
            m["nodes"].append({
                "feature": int(p[2]), "threshold": float(p[3]),
                "left": int(p[4]), "right": int(p[5]), "leaf": int(p[6]),
                "counts": np.array([int(c) for c in p[7:]], dtype=np.int64)})
    else:
        m["tags"] = np.array([int(t) for t in body[0].split()[1:]], dtype=np.int64)
        m["machines"] = []
        for ln in body[1:]:
            p = ln.split()
            if p[0] == "machine":
                cur = {"pos": int(p[1]), "neg": int(p[2]), "bias": float(p[4]),
                       "coef": [], "sv": []}
                m["machines"].append(cur)
            else:
                cur["coef"].append(float(p[1]))
                cur["sv"].append([float(v) for v in p[2:]])
        for mc in m["machines"]:
            mc["coef"] = np.array(mc["coef"])
            mc["sv"] = np.array(mc["sv"]).reshape(len(mc["coef"]), -1)
    return m


def standardize(model, X):
    """Selected columns z-scored with the model's saved mean/std."""
    std = model["std"]
    Z = (np.asarray(X)[:, model["indices"]] - model["mean"]) / np.where(std == 0, 1.0, std)
    Z[:, std == 0] = 0.0
    return Z


# ------------------------------------------------------------------ oracles

def _near(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def knn_oracle(Xtr, ytr, k, Z):
    """Brute force: neighbours in (distance, training index) order; a vote
    tie goes to the tied class with the nearest member, then the lowest tag.

    Returns (tags, ambiguous): a probe is ambiguous when a distance tie
    within KNN_REL decides which rows are neighbours or which tied class
    wins, so rounding alone could change its answer.
    """
    out = np.empty(len(Z), dtype=np.int64)
    ambiguous = np.zeros(len(Z), dtype=bool)
    idx = np.arange(len(Xtr))
    for r, z in enumerate(Z):
        d = ((Xtr - z) ** 2).sum(axis=1)
        order = np.lexsort((idx, d))
        nn = order[:k]
        tags, votes = np.unique(ytr[nn], return_counts=True)
        tied = set(tags[votes == votes.max()].tolist())
        out[r] = min((d[i], int(ytr[i])) for i in nn if int(ytr[i]) in tied)[1]
        ds = d[order[:k + 1]]
        ambiguous[r] = (len(ds) > k and _near(ds[k - 1], ds[k], KNN_REL)) or (
            len(tied) > 1 and any(_near(a, b, KNN_REL) for a, b in zip(ds[:k - 1], ds[1:k])))
    return out, ambiguous


def tree_oracle(model, Z):
    """Walk the saved nodes: x[feature] <= threshold goes left.

    Returns (tags, ambiguous): a probe is ambiguous when, on its path, its
    value lies within the file's rounding of a threshold (the saved mean,
    std and threshold each carry 9 significant digits).
    """
    nodes = model["nodes"]
    out = np.empty(len(Z), dtype=np.int64)
    ambiguous = np.zeros(len(Z), dtype=bool)
    scale = np.abs(model["mean"]) / np.where(model["std"] == 0, 1.0, model["std"])
    for r, z in enumerate(Z):
        n = nodes[0]
        while n["feature"] >= 0:
            f, thr = n["feature"], n["threshold"]
            if abs(z[f] - thr) <= FILE_REL * (scale[f] + abs(z[f]) + abs(thr)):
                ambiguous[r] = True
            n = nodes[n["left"] if z[f] <= thr else n["right"]]
        out[r] = model["tags"][n["leaf"]]
    return out, ambiguous


def svm_decisions(machine, gamma, Z):
    d2 = ((Z[:, None, :] - machine["sv"][None, :, :]) ** 2).sum(axis=2)
    return np.exp(-gamma * d2) @ machine["coef"] + machine["bias"]


def svm_oracle(model, Z):
    """One-vs-one RBF votes; a zero decision sides with the first tag, and
    a vote tie goes to the lowest tag.

    Returns (tags, ambiguous): a probe is ambiguous when a pair machine's
    decision value is within the file's rounding of zero.
    """
    tags = model["tags"]
    pos = {int(t): i for i, t in enumerate(tags)}
    votes = np.zeros((len(Z), len(tags)), dtype=np.int64)
    ambiguous = np.zeros(len(Z), dtype=bool)
    for mc in model["machines"]:
        f = svm_decisions(mc, model["params"]["gamma"], Z)
        ambiguous |= np.abs(f) <= SVM_REL * (np.abs(mc["coef"]).sum() + abs(mc["bias"]) + 1.0)
        win = f >= 0
        votes[win, pos[mc["pos"]]] += 1
        votes[~win, pos[mc["neg"]]] += 1
    return tags[np.argmax(votes, axis=1)], ambiguous


def model_predictions(model, X):
    """(tags, ambiguous) for raw rows X, from the model file alone."""
    Z = standardize(model, X)
    if model["kind"] == "knn":
        return knn_oracle(model["X"], model["y"], int(model["params"]["k"]), Z)
    if model["kind"] == "tree":
        return tree_oracle(model, Z)
    return svm_oracle(model, Z)


# ------------------------------------------------------------------- checks

def check_selection(model, arity, select_k, selector):
    idx = model["indices"]
    want = arity if selector == "none" else select_k
    problems = []
    if idx.size != want or np.unique(idx).size != idx.size:
        problems.append(f"selection holds {idx.size} indices "
                        f"({np.unique(idx).size} distinct), want {want} distinct")
    if idx.size and (idx.min() < 0 or idx.max() >= arity):
        problems.append("selected index out of range")
    return problems


def check_tree_counts(model):
    problems = []
    for i, n in enumerate(model["nodes"]):
        if n["feature"] >= 0:
            kids = model["nodes"][n["left"]]["counts"] + model["nodes"][n["right"]]["counts"]
            if not np.array_equal(n["counts"], kids):
                problems.append(f"tree node {i}: counts differ from its children's sum")
    return problems


def check_svm_kkt(model, Xtr, ytr, slack=KKT_ROUNDING_SLACK):
    """KKT conditions of every pair machine on its own training pair.

    Support rows are matched back to training rows; every other row has
    alpha = 0.  Returns (constraint problems, KKT-gap faults, largest gap):
    the box 0 <= alpha <= C and sum(alpha * y) = 0 hold for any SMO step,
    so breaking them is a wrong output, while a gap above `tol` is the
    program's fault of stopping the solver unconverged.
    """
    C, tol, gamma = (model["params"][k] for k in ("C", "tol", "gamma"))
    Ztr = standardize(model, Xtr)
    problems, gaps, worst = [], [], 0.0
    for mc in model["machines"]:
        name = f"pair {mc['pos']}/{mc['neg']}"
        mask = (ytr == mc["pos"]) | (ytr == mc["neg"])
        Zp = Ztr[mask]
        yp = np.where(ytr[mask] == mc["pos"], 1.0, -1.0)
        alpha = np.zeros(len(yp))
        for coef, sv in zip(mc["coef"], mc["sv"]):
            d = ((Zp - sv) ** 2).sum(axis=1)
            i = int(np.argmin(d))
            if d[i] > 1e-9 * max(1.0, float(sv @ sv)):
                problems.append(f"{name}: a support vector matches no training row")
                break
            alpha[i] = coef * yp[i]
        if alpha.min() < -slack or alpha.max() > C + slack:
            problems.append(f"{name}: alpha outside [0, C]")
        if abs(float(mc["coef"].sum())) > slack:
            problems.append(f"{name}: sum(alpha*y) = {mc['coef'].sum():.3g}")
        margin = yp * svm_decisions(mc, gamma, Zp)
        at_zero = alpha <= slack
        at_c = alpha >= C - slack
        free = ~at_zero & ~at_c
        gap = float(np.concatenate([
            (1.0 - margin[at_zero]), (margin[at_c] - 1.0),
            np.abs(margin[free] - 1.0), [0.0]]).max())
        worst = max(worst, gap)
        if gap > tol + slack:
            gaps.append(f"the solver stopped without converging: {name} "
                        f"KKT violation {gap:.6f} > tol {tol:g}")
    return problems, gaps, worst


def check_sweep_cell(stem, sweep_row, test, select_k):
    """Checks of one sweep cell (files `<stem>.model.txt` and
    `<stem>.confusion.csv`); `test` is a read_dataset_csv tuple.

    The model file is evaluated on the test rows.  Its confusion matrix must
    match the confusion CSV, and its accuracy must match sweep.csv.  A
    difference confined to test probes whose answer the file's rounding
    leaves open is a fault of the program (save_model keeps 9 significant
    digits, so the saved model is not the one sweep evaluated); a larger
    one is a wrong output.  Returns (problems, faults, accuracy from the
    file).
    """
    kind, selector, n_feat, acc_text = sweep_row
    model = read_model(f"{stem}.model.txt")
    problems, faults = check_selection(model, test[2].shape[1], select_k, selector), []
    if int(n_feat) != model["indices"].size:
        problems.append(f"sweep.csv says {n_feat} features, model has "
                        f"{model['indices'].size}")
    pred, ambiguous = model_predictions(model, test[2])
    open_ = int(ambiguous.sum())
    n = len(test[0])
    correct = int((pred == test[0]).sum())
    acc_gap = abs(correct - round(float(acc_text) * n))
    if acc_gap > open_:
        problems.append(f"accuracy from the model file {correct / n:.6f} != sweep.csv "
                        f"{acc_text} beyond its {open_} open probe(s)")
    axis, confusion = read_confusion(f"{stem}.confusion.csv")
    confusion_gap = 0
    if not set(pred) | set(test[0]) <= set(axis):
        problems.append("confusion CSV lacks a class the model predicts")
    else:
        pos = {t: i for i, t in enumerate(axis)}
        mine = np.zeros_like(confusion)
        np.add.at(mine, ([pos[t] for t in test[0]], [pos[p] for p in pred]), 1)
        confusion_gap = int(np.abs(mine - confusion).sum())
        if confusion_gap > 2 * open_:
            problems.append(f"confusion from the model file differs from the CSV "
                            f"by more than its {open_} open probe(s)")
    if (acc_gap or confusion_gap) and not problems:
        faults.append(f"save_model's 9-digit rounding changed the model: the file scores "
                      f"{correct / n:.6f}, sweep.csv {acc_text}, with {open_} test probe(s) "
                      "within rounding of a decision boundary")
    if f"{np.trace(confusion) / max(confusion.sum(), 1):.6f}" != acc_text:
        problems.append(f"confusion CSV diagonal share != sweep.csv {acc_text}")
    if kind == "tree":
        problems += check_tree_counts(model)
    return problems, faults, correct / n


def read_confusion(path):
    """(class axis, counts) from a confusion CSV (rows = true class)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    end = lines.index("# metrics")
    axis = [int(t) for t in lines[1].split(",")[1:]]
    rows = [ln.split(",") for ln in lines[2:end]]
    if [int(r[0]) for r in rows] != axis:
        raise ValueError(f"{path}: row and column classes differ")
    return axis, np.array([[int(v) for v in r[1:]] for r in rows], dtype=np.int64)


def read_sweep_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["method", "selector", "n_features", "accuracy"]:
        raise ValueError(f"{path}: bad header")
    return {(r[0], r[1]): r for r in rows[1:]}


_REGION = re.compile(r"^\s+(\d+) (\d+) [0-9.]+$")


def scan_regions(stdout):
    """(start, end) pairs printed by `nvmsig scan`."""
    return [(int(m.group(1)), int(m.group(2)))
            for m in map(_REGION.match, stdout.splitlines()) if m]


def check_scan(stdout, spots):
    got = scan_regions(stdout)
    want = [(a, a) for a in sorted(spots)]
    return [] if got == want else [f"scan regions {got} != seeded spots {want}"]


def predict_fields(stdout):
    """(class tag, verdict) printed by `nvmsig predict`."""
    tag = re.search(r"^predicted class: (\S+) ", stdout, re.M)
    verdict = re.search(r"^recycled verdict: (\S+)$", stdout, re.M)
    return (tag.group(1) if tag else None, verdict.group(1) if verdict else None)


def read_catalog_csv(text):
    """{tag: row dict} from `nvmsig catalog` output."""
    return {int(r["class_tag"]): r for r in csv.DictReader(io.StringIO(text))}


def drift_formula(spec, wear):
    """base * (1 + a * (w / c_ref)**b) * step, evaluated from catalog text."""
    w = np.asarray(wear, dtype=np.float64)
    d = 1.0 + float(spec["drift_amplitude"]) * (
        w / float(spec["drift_ref_cycles"])) ** float(spec["drift_exponent"])
    if spec["step_cycles"]:
        d = d * np.where(w >= int(spec["step_cycles"]), float(spec["step_factor"]), 1.0)
    return float(spec["base_latency_us"]) * d


def check_class_means(data, catalog, group):
    """Each class x checkpoint mean latency against the catalog formula.

    The tolerance is MEAN_SIGMAS standard errors of the mean (chip, location
    and read-noise sigmas shrink with the chips, locations and reads pooled),
    plus the drift across one probe's `group` cycles, the lognormal mean
    bias and the quantization step.
    """
    y, meta, X, _ = data
    problems = []
    for tag in np.unique(y):
        spec = catalog[int(tag)]
        for ck in np.unique(meta[y == tag, 2]):
            rows = (y == tag) & (meta[:, 2] == ck)
            chips = np.unique(meta[rows, 0]).size
            locs = int(rows.sum())
            noise = float(spec["noise_sigma"])
            sem = np.sqrt(float(spec["chip_sigma"]) ** 2 / chips
                          + float(spec["loc_sigma"]) ** 2 / locs
                          + noise ** 2 / (locs * X.shape[1]))
            lo, hi = drift_formula(spec, [ck, ck + group - 1])
            expect = drift_formula(spec, ck)
            rel_tol = (MEAN_SIGMAS * sem + (hi / lo - 1.0) + noise ** 2
                       + QUANTUM_US / expect)
            got = float(X[rows].mean())
            if abs(got / expect - 1.0) > rel_tol:
                problems.append(f"class {tag} checkpoint {ck}: mean {got:.4f} vs "
                                f"formula {expect:.4f} (tolerance {rel_tol:.4f})")
    return problems


def check_dataset_rows(data, n_classes, chips, locations, checkpoints):
    want = n_classes * chips * locations * checkpoints
    got = len(data[0])
    return [] if got == want else [f"{got} rows, want {want}"]


def check_split(full, train, test, fraction):
    """Train and test partition the rows; per-class train = round(f * n)."""
    def keys(d):
        return [(int(c), *map(int, m)) for c, m in zip(d[0], d[1])]
    k_full, k_tr, k_te = keys(full), keys(train), keys(test)
    problems = []
    if len(set(k_full)) != len(k_full):
        problems.append("duplicate rows in the full dataset")
    if set(k_tr) & set(k_te) or sorted(k_tr + k_te) != sorted(k_full):
        problems.append("train and test do not partition the dataset")
    row_of = {k: i for i, k in enumerate(k_full)}
    for part, ks in ((train, k_tr), (test, k_te)):
        idx = [row_of.get(k, -1) for k in ks]
        if -1 in idx or not np.array_equal(part[2], full[2][idx]):
            problems.append("split rows differ from the full dataset's rows")
            break
    for tag in np.unique(full[0]):
        n = int((full[0] == tag).sum())
        want = int(np.floor(fraction * n + 0.5))
        want = min(max(want, 1), n - 1)
        got = int((train[0] == tag).sum())
        if got != want:
            problems.append(f"class {tag}: {got} train rows, want {want}")
    return problems


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()

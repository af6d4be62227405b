"""nvmsig benchmark: one workload per process, timed from outside the program.

    python3 perfbench/run.py --workload sweep|screen|dataset --seed N \
        --seconds S --trace 0|1

The workload's set-up runs several times (setup_s is the median).  Then
whole rounds of its operations repeat until the next round would end after
S seconds.  The first round warms the process up; round_s is the median of
the later ones, so every run has at least two.  Times are scaled to a
reference machine speed measured with a calibration kernel (timing.py).
Every output is checked afterwards.  With --trace 1 the run wraps nvmsig's
public functions, alternates plain and traced rounds, and reports
per-layer metrics instead.  The last line of stdout is one JSON object:
correct, attempted, failed, metrics.
"""

import os

# One BLAS thread, set before numpy loads: on a 2-core machine a threaded
# BLAS would make the figures measure the scheduler rather than nvmsig.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import timing  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUPS = 3           # set-ups per run at least ...
SETUP_SECONDS = 1.0  # ... and until they have taken this long


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def measure(wl, seconds, tracer):
    """Set-up, plain-round and traced-round times, each as (raw, scaled)."""
    setups = []
    if tracer:
        tracer.install()
    clock = timing.Clock()
    while len(setups) < SETUPS or sum(raw for raw, _ in setups) < SETUP_SECONDS:
        setups.append(clock.time(wl.setup))
    if tracer:
        tracer.uninstall()
        tracer.phase = "round"
    plain, traced = [], []
    start = timing.now()
    while True:
        r = len(plain) + len(traced)
        trace_this = tracer is not None and r % 2 == 1
        if trace_this:
            tracer.install()
        (traced if trace_this else plain).append(clock.time(lambda: wl.run_round(r)))
        if trace_this:
            tracer.uninstall()
        wl.after_round(r)
        enough = len(plain) >= 2 and (tracer is None or traced)
        mean_round = statistics.fmean(raw for raw, _ in plain + traced)
        if enough and timing.now() - start + mean_round > seconds:
            return setups, plain, traced


def per_layer_metrics(spans, n_setups, plain, traced):
    """Per-layer figures per one set-up plus one round, and the overhead."""
    totals = tracing.layer_totals(spans, {"setup": n_setups, "round": len(traced)})
    overhead = (statistics.median(s for _, s in traced)
                - statistics.median(s for _, s in plain[1:]))
    metrics = {}
    for m in SPEC["per_layer"]:
        span, field = m["name"].rsplit(".", 1)
        value = overhead if m["name"] == "trace.overhead_s" else \
            float(totals.get(span, {}).get(field, 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "nvmsig" / "__init__.py").is_file():
        print(f"perfbench: no nvmsig package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import nvmsig
    if Path(nvmsig.__file__).resolve().parent != (src / "nvmsig").resolve():
        print(f"perfbench: imported nvmsig from {nvmsig.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    tracer = tracing.Tracer() if args.trace else None
    setups, plain, traced = measure(wl, args.seconds, tracer)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tally = workloads.Tally()
    wl.check(tally)
    for note, count in sorted(tally.notes.items()):
        print(f"{note} (x{count})")
    print("rounds:", json.dumps({"setup": setups, "plain": plain, "traced": traced}))
    print("reference:", json.dumps(wl.reference(), sort_keys=True))
    if tracer:
        tracer.write(workdir / "spans.jsonl")
        metrics = per_layer_metrics(tracer.spans, len(setups), plain, traced)
    else:
        values = {"setup_s": statistics.median(s for _, s in setups),
                  "round_s": statistics.median(s for _, s in plain[1:]),
                  "peak_rss_mb": peak_mb}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

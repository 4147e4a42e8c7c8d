"""persistx benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {crude,splitting,operator,cli} \\
        --seed N --seconds S --trace {0,1}

With --trace 0 the run measures the end-to-end metrics of one workload with
tracing off: setup_s, the median over fresh interpreters of importing persistx
and building the workload's models; wall_s, the median time of one pass over
the workload's case list after warm-up (for cli, the sum over commands
of the median process time); peak_rss_mb. Timed passes, with the set-up
processes spread between them, repeat until --seconds have passed and at
least three passes have run. With --trace 1 the run measures every per-layer
metric instead, from traced passes of all four workloads and direct probes of
each layer (see layers.py); it takes about two minutes whatever --workload and
--seconds say. Every output is checked in both modes. Failed checks go to
stderr; the last line of stdout is the result.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# neither imports numpy nor persistx, so BLAS limits set below still apply
import cases
from workloads import WORKLOADS, Ledger, child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_RUNS = 7


def metric_table(section):
    """{name: unit} of one metric section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "persistx" / "__init__.py").is_file():
        print(f"error: no persistx sources under {SRC}", file=sys.stderr)
        return 2

    # BLAS threads are capped at nproc before numpy loads, here and in children.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cases.NPROC)
    sys.path.insert(0, str(SRC))

    table = metric_table("per_layer" if args.trace else "end_to_end")
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    RUN_DIR.mkdir()
    ledger = Ledger()
    try:
        if args.trace:
            import layers

            metrics = layers.profile(args.seed, RUN_DIR, ledger)
        else:
            metrics = measure(args.workload, args.seed, args.seconds, ledger)
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)

    for line in sorted(set(ledger.errors)):
        print(f"FAILED (error) {line}", file=sys.stderr)
    for line in sorted(set(ledger.wrong)):
        print(f"FAILED (wrong) {line}", file=sys.stderr)
    share = ledger.failed / ledger.attempted
    print(f"{args.workload}: failed_share {share:.4f} ({ledger.failed}/{ledger.attempted})",
          file=sys.stderr)
    missing = sorted(set(table) - set(metrics))
    if missing:
        print(f"error: no value measured for {', '.join(missing)}", file=sys.stderr)
        return 1
    unlisted = sorted(set(metrics) - set(table))
    if unlisted:
        print(f"error: BENCHMARK.json does not list {', '.join(unlisted)}", file=sys.stderr)
        return 1
    result = {}
    for name, unit in table.items():
        print(f"{args.workload}: {name} = {metrics[name]:.6g} {unit}", file=sys.stderr)
        result[name] = {"value": float(metrics[name]), "unit": unit}
    print(json.dumps({"correct": ledger.correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": result}))
    return 0


def time_setup(workload):
    # Output is captured because the end of a pipe marks the child's exit at
    # once; a plain wait with a timeout polls, in steps of up to 50 ms.
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "child_setup.py"), workload],
                   env=child_env(), cwd=ROOT, check=True, timeout=60, capture_output=True)
    return time.perf_counter() - t0


def measure(workload, seed, seconds, ledger):
    """End-to-end metrics of one workload with tracing off."""
    w = WORKLOADS[workload](seed, RUN_DIR)
    w.prepare()
    w.warmup(ledger)
    # Fresh set-up processes run between timed passes, never beside one, so
    # they sample the same stretch of machine time as the passes do. Both
    # count towards the measured seconds.
    setup, passes = [], []
    t0 = time.perf_counter()
    while len(passes) < w.min_passes or time.perf_counter() - t0 < seconds:
        p = w.run_pass()
        w.check(p, ledger)
        passes.append(p)
        due = math.ceil(SETUP_RUNS * (time.perf_counter() - t0) / seconds)
        while len(setup) < min(due, SETUP_RUNS):
            setup.append(time_setup(workload))
    while len(setup) < SETUP_RUNS:
        setup.append(time_setup(workload))
    print(f"{workload}: {len(passes)} passes, pass walls "
          + " ".join(f"{p['wall']:.3f}" for p in passes), file=sys.stderr)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": w.wall(passes),
        "peak_rss_mb": w.peak_rss_mb(),
    }


if __name__ == "__main__":
    sys.exit(main())

"""Print every end-to-end metric of every workload, and each failed check.

Usage, from the root of a checkout:

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs run.py once per workload and prints its metrics by name with their
units, the share of failed operations, and every failed check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("crude", "splitting", "operator", "cli")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args()
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True)
        for line in proc.stderr.splitlines():
            if line.startswith(("FAILED", "error")):
                print(f"{workload:<9} {line}")
        if proc.returncode != 0:
            print(f"{workload:<9} exit {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        share = result["failed"] / result["attempted"]
        print(f"{workload:<9} correct={result['correct']} failed_share={share:.4f} "
              f"({result['failed']}/{result['attempted']})")
        for name, m in result["metrics"].items():
            print(f"{workload:<9} {name:<44} {m['value']:>14.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())

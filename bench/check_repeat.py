"""Check that two traced runs of one seed report identical counts.

Usage, from the repository root:

    python3 bench/check_repeat.py [--workload NAME ...] [--seed N]

Each traced run executes a fixed number of CLI invocations, so every
count a span boundary records (calls, evaluations, accepted steps, files)
must repeat exactly. Exits 1 when any count differs or a run fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from spans import LAYER_UNITS

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("attack-hs-64", "universal-pyr-rgb64", "ifgsm-pyr-kitti")
COUNTS = [name for name, unit in LAYER_UNITS.items() if unit == "count"] + [
    "optim.evals_per_accept"]


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--trace", "1"], capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} traced run failed:\n{proc.stderr}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNTS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    same = True
    for workload in args.workload:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        for name in COUNTS:
            flag = "ok  " if first[name] == second[name] else "DIFF"
            same &= first[name] == second[name]
            print(f"{flag} {workload:20s} {name:28s} {first[name]!r:>10} {second[name]!r:>10}")
    print("counts repeat exactly" if same else "counts differ between runs")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread: two sets of benchmark runs of the same code.

    python3 perfbench/spread.py --runs 10 [--workloads grid-cold,serve-mixed] [--first-seed 1]

Runs ``perfbench/run.py`` ``--runs`` times per workload in each of two
sets, each run with its own seed (set ``k`` uses seeds
``first_seed + k * runs + i``), then prints, per workload and end-to-end
metric, each set's median and interquartile range as a share of the
median, next to the metric's bound from ``BENCHMARK.json``, and the drift
of the second set's median from the first in the metric's worse
direction.  A spread above a third of the bound, a drift above the bound,
or a share of failed ops that differs between the sets is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    completed = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def iqr_share(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for an interquartile range")

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    bounds = {m["name"]: m for m in config["end_to_end"]}
    results: dict = {}
    for set_index in range(SETS):
        for workload in workloads:
            for run in range(args.runs):
                seed = args.first_seed + set_index * args.runs + run
                result = run_once(workload, seed, config["run_seconds"])
                results.setdefault(workload, []).append({"set": set_index, "seed": seed, **result})
                print(f"set {set_index} {workload} seed {seed}: failed {result['failed']}/"
                      f"{result['attempted']}, correct {result['correct']}", file=sys.stderr)

    flagged = 0
    print(f"{'workload':16} {'metric':20} {'median1':>12} {'iqr1':>7} {'median2':>12} "
          f"{'iqr2':>7} {'drift':>7} {'bound':>6}")
    for workload, runs in results.items():
        sets = [[r for r in runs if r["set"] == k] for k in range(SETS)]
        shares = {
            sum(r["failed"] for r in group) / sum(r["attempted"] for r in group) for group in sets
        }
        for name, spec in bounds.items():
            columns, medians = [], []
            for group in sets:
                values = [r["metrics"][name]["value"] for r in group]
                medians.append(statistics.median(values))
                spread = iqr_share(values)
                columns += [f"{medians[-1]:12.4f}", f"{spread:7.3f}"]
                if spread > spec["bound"] / 3:
                    flagged += 1
                    columns[-1] += "!"
            sign = 1.0 if spec["better"] == "lower" else -1.0
            drift = sign * (medians[-1] - medians[0]) / medians[0]
            if drift > spec["bound"]:
                flagged += 1
            print(f"{workload:16} {name:20} {' '.join(columns)} {drift:7.3f} {spec['bound']:6.2f}")
        print(f"{workload:16} {'failed share':20} {sorted(shares)}")
        if len(shares) > 1:
            flagged += 1
    print(f"{flagged} figure(s) outside the benchmark's bounds")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

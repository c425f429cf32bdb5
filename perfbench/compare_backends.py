"""Engine against numpy on the inputs of a grid workload.

    python3 perfbench/compare_backends.py --workload grid-wide-numpy --seed 1 --ops 4

Runs the first ``--ops`` op inputs of the workload (the same inputs
``run.py`` generates for that seed) through ``run_grid`` once per backend
and metric group, each on a warm session of that backend, and prints the
median seconds per op.  Records are compared between backends, so the
figures are for identical outputs.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402

from repro.experiments import ExperimentSession, run_grid  # noqa: E402

OPS = {"grid-wide-numpy": inputs.grid_wide_op, "sampled-numpy": inputs.sampled_op}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(OPS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=4)
    args = parser.parse_args()

    ops = [OPS[args.workload](args.seed, index) for index in range(args.ops)]
    groups = [["resilience"], [m for m in ops[0]["metrics"] if m != "resilience"]]
    print(f"{args.workload} seed={args.seed}, {args.ops} ops, median seconds per op")
    for metrics in groups:
        seconds: dict[str, list[float]] = {}
        records: dict[str, list] = {}
        for backend in ("engine", "numpy"):
            session = ExperimentSession(backend=backend)
            for op in ops:
                start = time.perf_counter()
                result = run_grid(
                    [(op["name"], op["graph"])], op["schemes"], [op["spec"]],
                    metrics=metrics, session=session,
                )
                seconds.setdefault(backend, []).append(time.perf_counter() - start)
                records.setdefault(backend, []).extend(
                    (r.key(), r.metrics, r.note) for r in result.records
                )
        same = records["engine"] == records["numpy"]
        engine, numpy = (statistics.median(seconds[b]) for b in ("engine", "numpy"))
        print(
            f"  {'+'.join(metrics):28} engine {engine:8.3f}  numpy {numpy:8.3f}  "
            f"numpy/engine {numpy / engine:6.2f}  identical records: {same}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

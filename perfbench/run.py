"""The benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout of the repository (the program is taken
from ``src/``).  With ``--trace 0`` the last line of stdout holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics and
the tracing overhead.  See ``perfbench/README.md``.

``setup_s`` is the median over fresh processes: set-up-only probes,
run until they have taken ``SETUP_PROBE_S`` seconds and at least
``SETUP_MIN_PROBES`` of them, and the measuring process itself.  The
measuring work runs in a child process so that its peak memory and its
set-up time are its own.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: the workload and metric names, and the metrics' units, live only here
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONFIG["workloads"]]
END_TO_END = {metric["name"]: metric["unit"] for metric in CONFIG["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in CONFIG["per_layer"]}
#: about eight probes of a 0.6 s grid set-up, three of a 4 s server start
SETUP_PROBE_S = 4.5
SETUP_MIN_PROBES = 3
#: hard cap on one worker process; the whole run must end within 180 s
WORKER_TIMEOUT_S = 150


def _worker(args, mode: str, workdir: Path, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--workdir", str(workdir),
        "--t0", repr(time.monotonic()),
    ]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise SystemExit(f"perfbench: {args.workload} {mode} worker timed out")
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {args.workload} {mode} worker failed ({process.returncode})")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + WORKER_TIMEOUT_S
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        if args.trace:
            report = _worker(args, "trace", workdir, deadline)
            metrics = {
                name: {"value": report["per_layer"].get(name, 0.0), "unit": unit}
                for name, unit in PER_LAYER.items()
            }
        else:
            setups = []
            probing = time.monotonic()
            while len(setups) < SETUP_MIN_PROBES or time.monotonic() - probing < SETUP_PROBE_S:
                setups.append(_worker(args, "setup", workdir, deadline)["setup_s"])
            report = _worker(args, "measure", workdir, deadline)
            report["setup_s"] = statistics.median(setups + [report["setup_s"]])
            metrics = {
                name: {"value": report[name], "unit": unit} for name, unit in END_TO_END.items()
            }
        extra = {"ops": report["ops"], "busy_s": report["busy_s"]}
        for key in ("op_p90_ms", "op_p50_ms_by_kind"):
            if key in report:
                extra[key] = report[key]
        print(f"perfbench {args.workload} seed={args.seed}: {json.dumps(extra)}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["ops"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set up, measure one workload, check, report.

Started by ``run.py``; not meant to be run by hand.  ``--t0`` is the
parent's ``time.monotonic()`` just before this process was spawned, so
``setup_s`` covers interpreter start, imports, session or server start
and warm-up.  The last line of stdout is one JSON object.

Modes:

* ``setup``: set up, report ``setup_s``, tear down;
* ``measure``: set up, run whole rounds of ops until ``--seconds`` have
  been spent inside ops, check every op, report the end-to-end figures;
* ``trace``: as ``measure``, then replay the same ops twice, untraced and
  with the per-layer tracing on, interleaved op by op, and report the
  per-layer figures and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    from layers import per_layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.workload, args.seed, Path(args.workdir))
    try:
        workload.setup()
        setup_s = time.monotonic() - args.t0
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0

        rng = random.Random(f"{args.seed}/{args.workload}/checks")
        ops, failures, wrong, rss_mb = measure(workload, args.seconds, rng)
        latencies = [elapsed for _, elapsed in ops]
        busy = sum(latencies)
        report = {
            "setup_s": setup_s,
            "ops": len(ops),
            "busy_s": busy,
            "ops_per_s": len(ops) / busy,
            "op_p50_ms": 1000.0 * statistics.median(latencies),
            "failure_sets_per_s": sum(workload.failure_sets(op) for op, _ in ops) / busy,
        }
        if len(ops) >= 100:
            # ten samples or more above the 90th percentile
            report["op_p90_ms"] = 1000.0 * statistics.quantiles(latencies, n=10)[-1]
        by_kind: dict = {}
        for op, elapsed in ops:
            by_kind.setdefault(workload.kind(op), []).append(elapsed)
        if len(by_kind) > 1:
            # a change to one request kind shows whatever the mix's weights
            report["op_p50_ms_by_kind"] = {
                kind: 1000.0 * statistics.median(times) for kind, times in by_kind.items()
            }
        report["peak_rss_mb"] = rss_mb
        if args.mode == "trace":
            untraced, traced = replay(workload, ops)
            totals = workload.end_trace(len(ops), traced)
            totals["trace.ops"] = len(ops)
            totals["trace.overhead_s"] = traced - untraced
            totals["trace.overhead_share"] = (traced - untraced) / untraced
            report["per_layer"] = per_layer_metrics(totals, len(ops))

        errors = list(getattr(workload, "warmup_errors", []))
        report["failed"] = len(failures)
        report["correct"] = not wrong and not errors
        for index, op_errors in failures[:10]:
            print(f"op {index} failed: {op_errors[:5]}", file=sys.stderr)
        for error in errors[:10]:
            print(error, file=sys.stderr)
        print(json.dumps(report))
        return 0
    finally:
        workload.close()


def measure(workload, seconds: float, rng: random.Random) -> tuple[list, list, float]:
    """Whole rounds of ops until ``seconds`` have been spent inside ops.

    Each op's inputs are generated before its clock starts and its
    outputs are checked, then dropped, after it stops, so the time of the
    checks does not count.  Peak memory is read after the workload's
    ``rss_after_ops`` ops, or at the end when that is ``None``; the first
    ``rss_after_ops`` ops are checked only after that reading, so the
    memory the checks use is not counted as the program's.
    An op fails when the program reports an error, a skipped cell or a
    partial answer, or when a check of its output fails; only the latter
    makes the outputs wrong.  Returns ``[(inputs, seconds)]``,
    ``[(op index, errors)]`` of the failed ops, the number of ops with
    wrong outputs and the peak RSS in MB.
    """
    ops, failures, unchecked = [], [], []
    wrong = 0
    rss_mb = None
    busy = 0.0
    while busy < seconds or len(ops) < (workload.rss_after_ops or 0):
        for _ in range(workload.round_ops):
            op = workload.op_inputs(len(ops))
            begin = time.perf_counter()
            output = workload.run(op)
            elapsed = time.perf_counter() - begin
            busy += elapsed
            unchecked.append((len(ops), op, output))
            ops.append((op, elapsed))
            if len(ops) == workload.rss_after_ops:
                rss_mb = workload.peak_rss_mb()
            if len(ops) < (workload.rss_after_ops or 0):
                continue
            for index, checked_op, checked_output in unchecked:
                errors = workload.failed(checked_output)
                if not errors:
                    errors = workload.check(checked_op, checked_output, rng)
                    wrong += bool(errors)
                if errors:
                    failures.append((index, errors))
            unchecked.clear()
    return ops, failures, wrong, rss_mb if rss_mb is not None else workload.peak_rss_mb()


def replay(workload, ops: list) -> tuple[float, float]:
    """Run every op again untraced and traced, alternating which goes first.

    Each side has its own fresh state (a warm session, or a warmed-up
    server), and interleaving op by op keeps a slow spell of the host
    from landing on one side only.  Returns the seconds spent inside the
    untraced and the traced ops.
    """
    workload.begin_trace()
    seconds = {False: 0.0, True: 0.0}
    for index, (op, _) in enumerate(ops):
        for traced in (False, True) if index % 2 == 0 else (True, False):
            if traced:
                workload.trace_on()
            begin = time.perf_counter()
            workload.run(op, traced=traced)
            seconds[traced] += time.perf_counter() - begin
            if traced:
                workload.trace_off()
    return seconds[False], seconds[True]


if __name__ == "__main__":
    sys.exit(main())

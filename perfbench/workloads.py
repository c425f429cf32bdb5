"""The four workloads: set-up, one op, and the independent checks of an op.

A workload object is driven by ``worker.py``: ``setup()`` once (timed as
part of ``setup_s``), then per op ``op_inputs(index)`` (not timed),
``run(inputs)`` (timed: this is the op), then ``failed(output)`` and,
when the program reported no failure, ``check(inputs, output, rng)``
(neither timed).  ``kind(inputs)`` names an op's request kind, for the
per-kind latencies on stderr.  ``begin_trace()``, ``trace_on()`` /
``trace_off()`` around each traced op, and ``end_trace()`` serve the
traced replay.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import inputs
from checks import (
    Patterns,
    Walker,
    check_congestion_estimate,
    check_counterexample,
    check_delivers,
    check_distance2,
    check_estimate,
    check_loads,
    check_verdict,
    failure_set,
    from_json,
    is_outerplanar,
)
from layers import LayerTrace, merge_totals

from repro import obs
from repro.experiments import ExperimentSession, ResultStore, run_grid, scheme
from repro.failures import parse_failure_model

HERE = Path(__file__).resolve().parent


def _scenarios(model, graph) -> list:
    """The failure sets a model evaluates on ``graph``: its grid, or the
    first ``samples`` draws of its seeded stream."""
    if model.sampled:
        stream = model.sample(graph)
        return [next(stream) for _ in range(model.samples)]
    grid = model.grid(graph)
    return [failures for size in sorted(grid) for failures in grid[size]]


class GridWorkload:
    """One ``run_grid`` call per op (grid-cold, grid-wide-numpy, sampled-numpy)."""

    round_ops = 1
    #: a warm session keeps state for the last 16 graphs it saw, so memory
    #: read later would grow with the number of ops that fit in the window
    rss_after_ops = 6

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.session = None
        self.traced_session = None
        self.trace: LayerTrace | None = None
        self.telemetry = None

    # the per-workload knobs -------------------------------------------------

    backend = "engine"
    fresh_session = True
    #: merge each op's records into an on-disk ResultStore
    writes_store = False

    def op_inputs(self, index: int) -> dict:
        raise NotImplementedError

    def _session(self) -> ExperimentSession | None:
        """The warm session, or ``None`` where every op gets a fresh one."""
        return None if self.fresh_session else ExperimentSession(backend=self.backend)

    def setup(self) -> None:
        self.session = self._session()

    def failure_sets(self, op: dict) -> int:
        return inputs.planned_failure_sets(op["spec"]) * len(op["schemes"])

    def kind(self, op: dict) -> str:
        return self.name

    def run(self, op: dict, traced: bool = False):
        session = self.traced_session if traced else self.session
        store = None
        if self.writes_store:
            store = ResultStore(self.workdir / f"store-{op['name']}-{traced}.json")
        return run_grid(
            [(op["name"], op["graph"])],
            op["schemes"],
            [op["spec"]],
            metrics=op["metrics"],
            session=session or ExperimentSession(backend=self.backend),
            store=store,
        )

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        for path in self.workdir.glob("store-*.json"):
            path.unlink()

    # tracing -----------------------------------------------------------------

    def begin_trace(self) -> None:
        """Fresh untraced and traced sessions for the interleaved replay."""
        self.session = self._session()
        self.traced_session = self._session()
        self.trace = LayerTrace()
        self.telemetry = obs.Telemetry()

    def trace_on(self) -> None:
        self.trace.install()
        self._installed = obs.installed(self.telemetry)
        self._installed.__enter__()

    def trace_off(self) -> None:
        self._installed.__exit__(None, None, None)
        self.trace.uninstall()

    def end_trace(self, ops: int, seconds: float) -> dict:
        return self.trace.snapshot(self.telemetry.registry)

    # checks ------------------------------------------------------------------

    def failed(self, result) -> list[str]:
        """What the program itself reports as not done: error or skipped cells."""
        errors = [
            f"{record.scheme} {record.experiment}: status {record.status} ({record.note})"
            for record in result.records
            if record.status != "ok"
        ]
        if result.skipped or not result.exhaustive:
            errors.append(f"skipped cells {result.skipped}, exhaustive={result.exhaustive}")
        return errors

    def check(self, op: dict, result, rng: random.Random) -> list[str]:
        graph = op["graph"]
        errors = []
        model = parse_failure_model(op["spec"])
        scenarios = _scenarios(model, graph)
        walker = Walker(graph)
        for name in op["schemes"]:
            by_kind = {r.experiment: r for r in result.records if r.scheme == name}
            missing = set(op["metrics"]) - set(by_kind)
            if missing:
                errors.append(f"{name}: no {sorted(missing)} record")
                continue
            patterns = Patterns(graph, scheme(name).instantiate())
            metrics = by_kind["resilience"].metrics
            note = by_kind["resilience"].note
            if model.sampled:
                errors += check_estimate(metrics, model.samples)
                if "congestion" in by_kind:
                    errors += check_congestion_estimate(
                        by_kind["congestion"].metrics, model.samples
                    )
            resilient = bool(metrics["resilient"])
            if name in ("right-hand", "tour"):
                if not is_outerplanar(graph):
                    errors.append(f"{op['name']} is not outerplanar")
                if not resilient or metrics.get("estimate", 1.0) != 1.0:
                    errors.append(f"{name} on an outerplanar graph is not resilient (Cor. 5/6)")
            errors += check_verdict(walker, patterns, resilient, note, scenarios, rng)
            if name == "distance2":
                errors += check_distance2(walker, patterns, scenarios, rng)
        return errors


class GridCold(GridWorkload):
    writes_store = True

    def op_inputs(self, index: int) -> dict:
        return inputs.grid_cold_op(self.seed, index)


class GridWideNumpy(GridWorkload):
    backend = "numpy"
    fresh_session = False

    def op_inputs(self, index: int) -> dict:
        return inputs.grid_wide_op(self.seed, index)


class SampledNumpy(GridWorkload):
    backend = "numpy"
    fresh_session = False

    def op_inputs(self, index: int) -> dict:
        return inputs.sampled_op(self.seed, index)


class ServeMixed:
    """One request per op from one closed-loop client to a ``repro serve``."""

    round_ops = len(inputs.SERVE_ROUND)
    #: the server's memory, read at the end: hundreds of ops fit in any run
    rss_after_ops = None

    def __init__(self, name: str, seed: int, workdir: Path):
        from repro.experiments.registry import resolve_topology

        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.graphs = {topology: resolve_topology(topology) for topology, _ in inputs.SERVE_POOL}
        #: (server process, client) of the measured and of the traced server
        self.plain: tuple | None = None
        self.traced: tuple | None = None
        self.trace: LayerTrace | None = None
        self._rounds: dict[int, list] = {}
        self._stats_path = workdir / "server-layers.json"
        self._servers = 0
        self.warmup_errors: list[str] = []

    # server lifetime -----------------------------------------------------------

    def _start(self, traced: bool) -> tuple:
        """Start a server, connect a client, make the warm-up pass."""
        from repro.serve import QueryClient

        self._servers += 1
        serve_args = [
            "serve",
            "--port", "0",
            "--backend", "engine",
            "--store", str(self.workdir / f"answers-{self._servers}.json"),
        ]
        if traced:
            command = [sys.executable, str(HERE / "serve_launcher.py"), str(self._stats_path)]
        else:
            command = [sys.executable, "-m", "repro"]
        server = subprocess.Popen(
            command + serve_args, stdout=subprocess.PIPE, text=True, env=os.environ.copy()
        )
        port = None
        for line in server.stdout:
            if "listening on" in line:
                port = int(line.rsplit(":", 1)[1])
                break
        if port is None:
            self._stop((server, None))
            raise RuntimeError("repro serve exited before listening")
        client = QueryClient(port=port, timeout=120.0, retries=0)
        for op, params in inputs.serve_warmup_requests(self.graphs):
            reply = client.request(op, params, raise_on_error=False)
            if not reply.get("ok"):
                self.warmup_errors.append(f"warm-up {op} {params}: {reply.get('error')}")
        return server, client

    @staticmethod
    def _stop(pair: tuple | None) -> None:
        if pair is None:
            return
        server, client = pair
        if client is not None:
            try:
                client.shutdown()
            except OSError:
                pass
            client.close()
        try:
            server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()

    def setup(self) -> None:
        self.plain = self._start(traced=False)

    def close(self) -> None:
        self._stop(self.plain)
        self._stop(self.traced)
        self.plain = self.traced = None
        for path in self.workdir.glob("answers-*.json"):
            path.unlink()

    def peak_rss_mb(self) -> float:
        """Peak RSS of the measured server process so far."""
        status = Path(f"/proc/{self.plain[0].pid}/status").read_text()
        return int(status.split("VmHWM:")[1].split()[0]) / 1024.0

    # ops -------------------------------------------------------------------------

    def op_inputs(self, index: int) -> tuple:
        round_index, position = divmod(index, self.round_ops)
        if round_index not in self._rounds:
            self._rounds = {round_index: inputs.serve_round(self.seed, round_index, self.graphs)}
        return self._rounds[round_index][position]

    def failure_sets(self, request: tuple) -> int:
        return inputs.failure_sets_named(request[2])

    def kind(self, request: tuple) -> str:
        return request[0]

    def run(self, request: tuple, traced: bool = False) -> dict:
        _, op, params = request
        client = (self.traced if traced else self.plain)[1]
        return client.request(op, params, raise_on_error=False)

    # tracing -------------------------------------------------------------------

    def begin_trace(self) -> None:
        """A fresh untraced server and a traced one, both warmed up."""
        self._stop(self.plain)
        self.plain = self._start(traced=False)
        self.traced = self._start(traced=True)
        # the launcher snapshots its totals at each stats request: this one
        # and the one in end_trace bracket the traced ops, not the warm-up
        self._warm_stats = self.traced[1].server_stats()
        self.trace = LayerTrace()

    def trace_on(self) -> None:
        self.trace.install()

    def trace_off(self) -> None:
        self.trace.uninstall()

    def end_trace(self, ops: int, seconds: float) -> dict:
        stats = self.traced[1].server_stats()
        self._stop(self.traced)
        self.traced = None
        warm, final = json.loads(self._stats_path.read_text())
        server = {key: value - warm.get(key, 0.0) for key, value in final.items()}
        server["memo.table_entries"] = final.get("memo.table_entries", 0.0)
        totals = merge_totals(self.trace.snapshot(), server)
        # the server's start and warm-up pass: what setup_s pays for
        totals["setup.registry_resolve_s"] = warm.get("registry.resolve_s", 0.0)
        totals["setup.algorithms_build_s"] = warm.get("algorithms.build_s", 0.0)
        totals["setup.algorithms_builds"] = warm.get("algorithms.builds", 0.0)
        for key in ("store_hits", "mask_memo_hits", "mask_memo_misses", "batched_requests"):
            totals[f"service.{key}"] = float(stats[key] - self._warm_stats[key])
        totals["server.wait_ms"] = 1000.0 * (seconds - totals.get("service.execute_s", 0.0)) / ops
        return totals

    # checks ------------------------------------------------------------------------

    def failed(self, reply: dict) -> list[str]:
        """What the server reports as not done: error or partial replies."""
        if not reply.get("ok"):
            return [f"error reply: {reply.get('error')}"]
        if reply.get("partial"):
            return ["partial reply"]
        return []

    def check(self, request: tuple, reply: dict, rng: random.Random) -> list[str]:
        kind, op, params = request
        graph = self.graphs[params["topology"]]
        walker = Walker(graph)
        patterns = Patterns(graph, scheme(params["scheme"]).instantiate())
        result = reply["result"]
        if op == "load":
            destination = from_json(params["destination"])
            errors = []
            reports = result["reports"]
            if len(reports) != len(params["failure_sets"]):
                return [f"load answered {len(reports)} of {len(params['failure_sets'])} sets"]
            for raw, report in zip(params["failure_sets"], reports):
                failures = failure_set((from_json(u), from_json(v)) for u, v in raw)
                errors += check_loads(walker, patterns, destination, failures, report)
            return errors
        verdict = result["verdict"]
        errors = []
        if verdict.get("sampled"):
            model = parse_failure_model(params["model"])
            metrics = result["record"]["metrics"]
            errors += check_estimate(metrics, model.samples)
            if params["scheme"] in ("right-hand", "tour") and verdict["estimate"] != 1.0:
                errors.append(
                    f"{params['scheme']} estimate {verdict['estimate']} != 1.0 (Cor. 5/6)"
                )
            scenarios = _scenarios(model, graph)
        elif "failure_sets" in params:
            scenarios = [
                failure_set((from_json(u), from_json(v)) for u, v in raw)
                for raw in params["failure_sets"]
            ]
            destination = from_json(params["destination"])
            if verdict["resilient"]:
                for failures in scenarios:
                    errors += check_delivers(
                        walker, patterns, failures, [destination], [destination]
                    )
                return errors
            return errors + check_counterexample(walker, patterns, verdict["counterexample"] or "")
        else:
            scenarios = _scenarios(parse_failure_model(params["model"]), graph)
        if params["scheme"] in ("right-hand", "tour") and not verdict["resilient"]:
            errors.append(f"{params['scheme']} is not resilient on an outerplanar graph")
        errors += check_verdict(
            walker, patterns, verdict["resilient"], verdict["counterexample"] or "", scenarios, rng
        )
        return errors


WORKLOADS = {
    "grid-cold": GridCold,
    "grid-wide-numpy": GridWideNumpy,
    "sampled-numpy": SampledNumpy,
    "serve-mixed": ServeMixed,
}

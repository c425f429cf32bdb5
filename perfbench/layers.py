"""Per-layer tracing for the traced run.

Two sources feed the per-layer metrics:

* the program's own telemetry (:mod:`repro.obs`): a metrics-only
  ``Telemetry`` (no span file) is installed for the traced pass, which
  turns on the memo, session, numpy, sweep, grid-cell and serve counters;
* wrappers from this file around the public entry points that have no
  counter of their own: each scheme's ``build``, ``EngineState(...)``,
  ``sweep_resilience``, ``TrafficEngine.load_sweep``,
  ``estimate_resilience`` / ``estimate_congestion``,
  ``ResultStore.merge``, ``resolve_topology``, ``encode_frame`` /
  ``decode_body`` and ``QueryService.run_batch``.

A wrapper adds one ``perf_counter`` pair per call and keeps totals in
memory; nothing is written until :meth:`LayerTrace.snapshot`.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import weakref
from collections import defaultdict

#: per-layer metrics that are ratios, means or maxima, never divided by ops
NOT_PER_OP = {
    "algorithms.builds_per_distinct",
    "memo.table_entries",
    "load.masks_per_call",
    "setup.registry_resolve_s",
    "setup.algorithms_build_s",
    "setup.algorithms_builds",
    "server.wait_ms",
    "trace.ops",
    "trace.overhead_s",
    "trace.overhead_share",
}

#: telemetry family -> per-layer metric (sum over all label sets)
TELEMETRY = {
    "repro_session_state_cache_misses_total": "session.state_misses",
    "repro_session_traffic_cache_misses_total": "session.traffic_misses",
    "repro_engine_memo_hits_total": "memo.hits",
    "repro_engine_memo_misses_total": "memo.misses",
    "repro_numpy_chunks_total": "vectorized.batches",
    "repro_numpy_masks_total": "vectorized.masks_packed",
    "repro_numpy_fallbacks_total": "vectorized.fallbacks",
    "repro_failure_samples_total": "estimate.samples",
}


class LayerTrace:
    """Wrappers around layer entry points, with in-memory totals."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct_builds: set = set()
        self.store_paths: set[str] = set()
        self._graph_ids: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._graphs_seen = 0
        self._depth: dict[str, int] = defaultdict(int)
        self._restore: list = []

    # -- patching ------------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        if isinstance(owner, type):
            original = owner.__dict__.get(name, _MISSING)
        else:
            original = getattr(owner, name)
        self._restore.append((owner, name, original))
        setattr(owner, name, value)

    def wrap_method(self, cls: type, name: str, wrapper) -> None:
        self._set(cls, name, wrapper(getattr(cls, name)))

    def wrap_function(self, module, name: str, wrapper) -> None:
        """Wrap a module function and every ``repro`` module that imported it by name."""
        original = getattr(module, name)
        wrapped = wrapper(original)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") and getattr(
                other, name, None
            ) is original:
                self._set(other, name, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    # -- wrappers ------------------------------------------------------------

    def timed(self, metric: str, calls: str | None = None, outermost: bool = True):
        """A wrapper factory adding wall time to ``metric`` (outermost calls only)."""

        def wrapper(function):
            @functools.wraps(function)
            def timed_call(*args, **kwargs):
                self._depth[metric] += 1
                start = time.perf_counter()
                try:
                    return function(*args, **kwargs)
                finally:
                    self._depth[metric] -= 1
                    if not outermost or self._depth[metric] == 0:
                        self.seconds[metric] += time.perf_counter() - start
                        if calls is not None:
                            self.counts[calls] += 1

            return timed_call

        return wrapper

    def _graph_id(self, graph) -> int:
        token = self._graph_ids.get(graph)
        if token is None:
            self._graphs_seen += 1
            token = self._graph_ids[graph] = self._graphs_seen
        return token

    def _build_wrapper(self, function):
        timed = self.timed("algorithms.build_s", calls="algorithms.builds")(function)

        @functools.wraps(function)
        def build(algorithm, graph, *header, **named):
            if self._depth["algorithms.build_s"] == 0:
                graph_id = self._graph_id(graph)
                key = (type(algorithm).__name__, graph_id, header, tuple(named.items()))
                self.distinct_builds.add(key)
            return timed(algorithm, graph, *header, **named)

        return build

    def _sweep_wrapper(self, function):
        timed = self.timed("sweep.s", calls="sweep.calls")(function)

        @functools.wraps(function)
        def sweep(graph, algorithm, grid=None, *args, **kwargs):
            # grid is the ScenarioGrid; explicit mask lists are counted
            sets = getattr(grid, "failure_sets", None)
            if self._depth["sweep.s"] == 0 and hasattr(sets, "__len__"):
                self.counts["sweep.masks"] += len(sets)
            return timed(graph, algorithm, grid, *args, **kwargs)

        return sweep

    def _load_sweep_wrapper(self, function):
        timed = self.timed("load.sweep_s", calls="load.sweep_calls")(function)

        @functools.wraps(function)
        def load_sweep(engine, demands, failure_sets, *args, **kwargs):
            failure_sets = list(failure_sets)
            self.counts["load.masks"] += len(failure_sets)
            return timed(engine, demands, failure_sets, *args, **kwargs)

        return load_sweep

    def _merge_wrapper(self, function):
        timed = self.timed("results.merge_s")(function)

        @functools.wraps(function)
        def merge(store, records):
            self.store_paths.add(str(store.path))
            return timed(store, records)

        return merge

    def _frame_wrapper(self, metric: str, result_is_frame: bool):
        def wrapper(function):
            timed = self.timed(metric)(function)

            @functools.wraps(function)
            def frame(payload):
                result = timed(payload)
                self.counts["protocol.frame_bytes"] += len(result if result_is_frame else payload)
                return result

            return frame

        return wrapper

    def install(self) -> "LayerTrace":
        from repro.core.engine import sweep as sweep_module
        from repro.experiments import registry, results
        from repro.failures import estimate
        from repro.serve import protocol, service
        from repro.traffic.load import TrafficEngine

        owners = {}
        for spec in registry.list_schemes():
            owner = next(cls for cls in spec.factory.__mro__ if "build" in cls.__dict__)
            owners[owner] = None
        for owner in owners:
            self.wrap_method(owner, "build", self._build_wrapper)
        self.wrap_method(
            sweep_module.EngineState, "__init__", self.timed("engine.index_s", outermost=False)
        )
        self.wrap_function(sweep_module, "sweep_resilience", self._sweep_wrapper)
        self.wrap_method(TrafficEngine, "load_sweep", self._load_sweep_wrapper)
        self.wrap_function(estimate, "estimate_resilience", self.timed("estimate.resilience_s"))
        self.wrap_function(estimate, "estimate_congestion", self.timed("estimate.congestion_s"))
        self.wrap_method(results.ResultStore, "merge", self._merge_wrapper)
        self.wrap_function(registry, "resolve_topology", self.timed("registry.resolve_s"))
        self.wrap_function(protocol, "encode_frame", self._frame_wrapper("protocol.encode_s", True))
        self.wrap_function(protocol, "decode_body", self._frame_wrapper("protocol.decode_s", False))
        self.wrap_method(service.QueryService, "run_batch", self.timed("service.execute_s"))
        return self

    # -- read-out ------------------------------------------------------------

    def snapshot(self, registry=None) -> dict:
        """Raw per-layer totals (wrappers plus the telemetry registry)."""
        totals = dict(self.seconds)
        totals.update(self.counts)
        totals["algorithms.distinct"] = len(self.distinct_builds)
        totals["results.store_bytes"] = sum(
            os.path.getsize(path) for path in self.store_paths if os.path.exists(path)
        )
        if registry is not None:
            snapshot = registry.snapshot()["families"]
            for family, metric in TELEMETRY.items():
                samples = snapshot.get(family, {}).get("samples", [])
                totals[metric] = totals.get(metric, 0.0) + sum(s["value"] for s in samples)
            table = snapshot.get("repro_engine_memo_table_entries_max", {}).get("samples", [])
            totals["memo.table_entries"] = max((s["value"] for s in table), default=0.0)
            for sample in snapshot.get("repro_grid_cell_seconds", {}).get("samples", []):
                totals["runner.cells"] = totals.get("runner.cells", 0.0) + sample["count"]
                totals["runner.cell_s"] = totals.get("runner.cell_s", 0.0) + sample["sum"]
        return totals


_MISSING = object()


def merge_totals(*parts: dict) -> dict:
    merged: dict = defaultdict(float)
    for part in parts:
        for key, value in part.items():
            if key == "memo.table_entries":
                merged[key] = max(merged[key], value)
            else:
                merged[key] += value
    return merged


def per_layer_metrics(totals: dict, ops: int) -> dict:
    """The per-layer figures of ``totals``, per op except where a figure is
    already a ratio or mean.  ``BENCHMARK.json`` names the ones reported;
    a layer the workload never reached has no figure here and reads 0."""
    values = {
        name: float(value) if name in NOT_PER_OP else float(value) / ops
        for name, value in totals.items()
    }
    builds = totals.get("algorithms.builds", 0.0)
    distinct = totals.get("algorithms.distinct", 0.0)
    values["algorithms.builds_per_distinct"] = builds / distinct if distinct else 0.0
    calls = totals.get("load.sweep_calls", 0.0)
    values["load.masks_per_call"] = totals.get("load.masks", 0.0) / calls if calls else 0.0
    return values

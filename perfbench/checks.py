"""Independent output checks.

The checks never call the program's walkers, sweeps, estimators or
serve paths.  They rebuild forwarding patterns with the scheme under
test (``build`` is the thing being checked, like any user of it) and
walk packets hop by hop through ``ForwardingPattern.forward`` with this
module's own walker, deciding connectivity with networkx on the graph
minus the failed links.  The routing model they encode is the paper's
(§II): a node sees its incident failed links, the in-port and its alive
neighbours in sorted order; a repeated (node, in-port) state is a
permanent loop.

Every function returns a list of error strings; an empty list passes.
"""

from __future__ import annotations

import ast
import math
import re

import networkx as nx

from repro.core.model import (
    DestinationAlgorithm,
    LocalView,
    SourceDestinationAlgorithm,
    TouringAlgorithm,
)

Z95 = 1.959963984540054


def _type_key(node) -> tuple[str, str]:
    return (type(node).__name__, repr(node))


def ordered(nodes) -> list:
    pool = list(nodes)
    try:
        return sorted(pool)
    except TypeError:
        return sorted(pool, key=_type_key)


def link(u, v) -> tuple:
    """The canonical (smaller, larger) form of the undirected link {u, v}."""
    try:
        return (u, v) if u <= v else (v, u)
    except TypeError:
        return (u, v) if _type_key(u) <= _type_key(v) else (v, u)


def failure_set(pairs) -> frozenset:
    return frozenset(link(u, v) for u, v in pairs)


def from_json(value):
    """Protocol JSON node labels back to Python (arrays are tuples)."""
    if isinstance(value, list):
        return tuple(from_json(part) for part in value)
    return value


class Walker:
    """Hop-by-hop packet walks of one graph under failure sets."""

    def __init__(self, graph: nx.Graph):
        self.graph = graph
        self.adjacency = {node: tuple(ordered(graph.neighbors(node))) for node in graph.nodes}

    def _view(self, node, inport, failures: frozenset) -> LocalView:
        local = frozenset(item for item in failures if node in item)
        alive = tuple(
            neighbor for neighbor in self.adjacency[node] if link(node, neighbor) not in local
        )
        return LocalView(node=node, inport=inport, alive=alive, failed_links=local)

    def route(self, pattern, source, destination, failures: frozenset) -> tuple[str, list]:
        """(outcome, path): ``delivered``, ``loop``, ``dropped`` or ``illegal``."""
        path = [source]
        if source == destination:
            return "delivered", path
        current, inport = source, None
        seen = {(source, None)}
        while True:
            view = self._view(current, inport, failures)
            hop = pattern.forward(view)
            if hop is None:
                return "dropped", path
            if hop not in view.alive:
                return "illegal", path
            path.append(hop)
            if hop == destination:
                return "delivered", path
            current, inport = hop, current
            if (current, inport) in seen:
                return "loop", path
            seen.add((current, inport))

    def tour_covers(self, pattern, start, failures: frozenset) -> bool:
        """Does the touring walk from ``start`` visit its whole component forever?"""
        component = self.component(start, failures)
        if len(component) == 1:
            return True
        current, inport = start, None
        order = [(start, None)]
        index = {(start, None): 0}
        while True:
            view = self._view(current, inport, failures)
            hop = pattern.forward(view)
            if hop is None or hop not in view.alive:
                return False
            current, inport = hop, current
            state = (current, inport)
            if state in index:
                recurrent = {node for node, _ in order[index[state]:]}
                return recurrent >= component
            index[state] = len(order)
            order.append(state)

    def surviving(self, failures: frozenset) -> nx.Graph:
        graph = self.graph.copy()
        graph.remove_edges_from(failures)
        return graph

    def component(self, node, failures: frozenset) -> set:
        return nx.node_connected_component(self.surviving(failures), node)

    def connected(self, u, v, failures: frozenset) -> bool:
        return nx.has_path(self.surviving(failures), u, v)


class Patterns:
    """Forwarding patterns of one algorithm on one graph, built on demand."""

    def __init__(self, graph: nx.Graph, algorithm):
        self.graph = graph
        self.algorithm = algorithm
        self._cache: dict = {}

    @property
    def touring(self) -> bool:
        return isinstance(self.algorithm, TouringAlgorithm)

    def for_pair(self, source, destination):
        algorithm, graph = self.algorithm, self.graph
        if isinstance(algorithm, TouringAlgorithm):
            key, build = None, lambda: algorithm.build(graph)
        elif isinstance(algorithm, SourceDestinationAlgorithm):
            key, build = (source, destination), lambda: algorithm.build(graph, source, destination)
        elif isinstance(algorithm, DestinationAlgorithm):
            key, build = destination, lambda: algorithm.build(graph, destination)
        else:
            raise TypeError(f"not a routing algorithm: {algorithm!r}")
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]


_COUNTEREXAMPLE = re.compile(
    r"^(?P<outcome>[a-z ]+) for s=(?P<s>.+?), t=(?P<t>.+?), \|F\|=(?P<n>\d+): (?P<F>\[.*\])$"
)


def parse_counterexample(note: str):
    """``"loop for s=3, t=5, |F|=1: [(0, 3)]"`` -> (outcome, s, t, failures)."""
    match = _COUNTEREXAMPLE.match(note.strip())
    if match is None:
        return None
    failures = failure_set(ast.literal_eval(match.group("F")))
    if len(failures) != int(match.group("n")):
        return None
    return (
        match.group("outcome"),
        ast.literal_eval(match.group("s")),
        ast.literal_eval(match.group("t")),
        failures,
    )


def check_counterexample(walker: Walker, patterns: Patterns, note: str) -> list[str]:
    """A named counterexample must fail again while s and t stay connected."""
    parsed = parse_counterexample(note)
    if parsed is None:
        return [f"unparseable counterexample {note!r}"]
    _, source, destination, failures = parsed
    graph = walker.graph
    if not all(graph.has_edge(*item) for item in failures):
        return [f"counterexample names links outside the graph: {note!r}"]
    if patterns.touring:
        tour = patterns.for_pair(None, None)
        if source not in graph or walker.tour_covers(tour, source, failures):
            return [f"touring counterexample tours its component: {note!r}"]
        return []
    if source not in graph or destination not in graph:
        return [f"counterexample names nodes outside the graph: {note!r}"]
    if not walker.connected(source, destination, failures):
        return [f"counterexample disconnects s and t: {note!r}"]
    outcome, _ = walker.route(
        patterns.for_pair(source, destination), source, destination, failures
    )
    if outcome == "delivered":
        return [f"counterexample delivers when re-walked: {note!r}"]
    return []


def check_delivers(
    walker: Walker, patterns: Patterns, failures: frozenset, destinations, starts=()
) -> list[str]:
    """Every source in each destination's surviving component must deliver
    (touring: every start must tour its component)."""
    errors = []
    if patterns.touring:
        pattern = patterns.for_pair(None, None)
        for start in starts:
            if not walker.tour_covers(pattern, start, failures):
                errors.append(f"tour from {start!r} misses its component under {sorted(failures)}")
        return errors
    for destination in destinations:
        for source in ordered(walker.component(destination, failures)):
            if source == destination:
                continue
            outcome, _ = walker.route(
                patterns.for_pair(source, destination), source, destination, failures
            )
            if outcome != "delivered":
                errors.append(
                    f"{outcome} for s={source!r}, t={destination!r} under {sorted(failures)} "
                    "in a verdict reported resilient"
                )
                return errors
    return errors


def check_verdict(
    walker: Walker,
    patterns: Patterns,
    resilient: bool,
    note: str,
    scenarios: list,
    rng,
    scenario_sample: int = 2,
    destination_sample: int = 2,
    destinations=None,
) -> list[str]:
    """A non-resilient verdict's counterexample must fail; a seeded sample
    of a resilient verdict's scenarios must deliver."""
    if not resilient:
        return check_counterexample(walker, patterns, note)
    nodes = ordered(walker.graph.nodes)
    errors = []
    picked = rng.sample(scenarios, min(scenario_sample, len(scenarios)))
    for failures in picked:
        chosen = destinations or rng.sample(nodes, min(destination_sample, len(nodes)))
        errors += check_delivers(walker, patterns, failures, chosen, starts=chosen)
    return errors


def check_distance2(
    walker: Walker, patterns: Patterns, scenarios: list, rng, pairs: int = 12
) -> list[str]:
    """Thm. 3: deliver wherever a surviving s-t path of at most 2 hops exists."""
    errors = []
    nodes = ordered(walker.graph.nodes)
    for failures in rng.sample(scenarios, min(2, len(scenarios))):
        survivors = walker.surviving(failures)
        for _ in range(pairs):
            source, destination = rng.sample(nodes, 2)
            short = survivors.has_edge(source, destination) or any(
                survivors.has_edge(source, middle) for middle in survivors.neighbors(destination)
            )
            if not short:
                continue
            outcome, _ = walker.route(
                patterns.for_pair(source, destination), source, destination, failures
            )
            if outcome != "delivered":
                errors.append(
                    f"distance2 {outcome} for s={source!r}, t={destination!r} with a surviving "
                    f"path of <= 2 hops under {sorted(failures)}"
                )
    return errors


def wilson(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """The Wilson score interval, in closed form."""
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    z2 = z * z
    centre = (p + z2 / (2 * trials)) / (1 + z2 / trials)
    half = z / (1 + z2 / trials) * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    return (max(0.0, centre - half), min(1.0, centre + half))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_estimate(metrics: dict, planned: int) -> list[str]:
    """A sampled resilience estimate: counts, point estimate and Wilson bounds."""
    samples, successes = metrics["samples"], metrics["successes"]
    errors = []
    if samples != planned or not metrics["exhaustive"]:
        errors.append(f"estimate drew {samples} of {planned} planned samples")
    if samples and not _close(metrics["estimate"], successes / samples):
        errors.append(f"estimate {metrics['estimate']} != {successes}/{samples}")
    if metrics["resilient"] != (samples > 0 and successes == samples):
        errors.append(f"resilient={metrics['resilient']} with {successes}/{samples} successes")
    low, high = wilson(successes, samples)
    if not (_close(metrics["ci_low"], low) and _close(metrics["ci_high"], high)):
        errors.append(
            f"Wilson bounds ({metrics['ci_low']}, {metrics['ci_high']}) != ({low}, {high}) "
            f"for {successes}/{samples}"
        )
    return errors


def check_congestion_estimate(metrics: dict, planned: int) -> list[str]:
    """A sampled congestion estimate: sample count and the all-delivered Wilson bounds."""
    samples = metrics["samples"]
    if samples != planned:
        return [f"congestion estimate drew {samples} of {planned} planned samples"]
    delivered_all = round(metrics["all_delivered_rate"] * samples)
    low, high = wilson(delivered_all, samples)
    if not (
        _close(metrics["all_delivered_ci_low"], low)
        and _close(metrics["all_delivered_ci_high"], high)
    ):
        return [f"all-delivered Wilson bounds differ for {delivered_all}/{samples}"]
    return []


def check_loads(
    walker: Walker, patterns: Patterns, destination, failures: frozenset, report: dict
) -> list[str]:
    """All-to-one per-link loads by one walk per unit demand, compared exactly."""
    loads = {link(u, v): 0 for u, v in walker.graph.edges}
    delivered = 0
    for source in ordered(walker.graph.nodes):
        if source == destination:
            continue
        outcome, path = walker.route(
            patterns.for_pair(source, destination), source, destination, failures
        )
        for u, v in zip(path, path[1:]):
            loads[link(u, v)] += 1
        delivered += outcome == "delivered"
    answered = {link(from_json(u), from_json(v)): load for u, v, load in report["loads"]}
    errors = []
    if answered != loads:
        wrong = sorted(
            (key for key in loads if answered.get(key) != loads[key]), key=repr
        )[:3]
        errors.append(
            f"per-link loads differ under {sorted(failures)} (t={destination!r}) on {wrong}: "
            f"answered {[answered.get(key) for key in wrong]}, "
            f"walked {[loads[key] for key in wrong]}"
        )
    if report["delivered_volume"] != delivered:
        errors.append(
            f"delivered volume {report['delivered_volume']} != {delivered} walked deliveries"
        )
    return errors


def is_outerplanar(graph: nx.Graph) -> bool:
    """Outerplanar iff the graph plus one apex joined to every node is planar."""
    apex = ("apex",)
    augmented = graph.copy()
    augmented.add_edges_from((apex, node) for node in graph.nodes)
    planar, _ = nx.check_planarity(augmented)
    return planar

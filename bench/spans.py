"""Spans around the calls each localmds module makes across a layer boundary.

`instrument` replaces, in the calling module, each public function that
module calls in another layer with a wrapper that records a span: name,
start, end, parent span and the id of the cell being run. Nothing in
`localmds` changes; the wrappers only time and count. Spans stay in memory
and are written out by the caller when the pass ends.

One wrapper must keep an identity: `composition._predicate_holds` caches
planarity verdicts on ranked forms only while `predicate.test is
is_planar`. The traced `is_planar` therefore also goes into the predicate
that `harness.build_b_config` passes in, or every view would bypass the
cache and the traced run would do different work.
"""
from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    """In-memory spans, plus summed sizes per span name."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.cell: int | None = None
        self.sizes: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name, fn, size=None):
        """`fn` recording one span per call; `size(args, result)` is summed."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.cell, error)
            if size is not None:
                self.sizes[name] += size(args, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, cell, error in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "cell": cell, "error": error}
                    )
                    + "\n"
                )


def instrument(tracer: Tracer) -> set:
    """Wrap every cross-layer call of localmds; returns the set that collects
    the distinct ranked forms of B's detection views."""
    from localmds import composition, generators, graph, harness, nomination, planarity, runtime

    def n_of_result_view(args, view):
        return view.subgraph.n

    def n_of_graph_arg(args, _):
        return args[0].n

    runtime.ball = tracer.wrap("graph.ball", graph.ball, n_of_result_view)
    nomination.ranked_form = tracer.wrap("graph.ranked_form", graph.ranked_form)
    traced_ranked_form = tracer.wrap("graph.ranked_form", graph.ranked_form)
    detection_views: set = set()

    def detection_ranked_form(h):
        labels, edges = traced_ranked_form(h)
        detection_views.add((len(labels), edges))
        tracer.sizes["planarity.detection_views"] += 1
        return labels, edges

    composition.ranked_form = detection_ranked_form
    composition.components = tracer.wrap("graph.components", graph.components)
    composition.weak_diameter = tracer.wrap("graph.weak_diameter", graph.weak_diameter)
    composition.neighborhood = tracer.wrap("graph.neighborhood", graph.neighborhood)
    harness.neighborhood = tracer.wrap("graph.neighborhood", graph.neighborhood)

    nomination.run_by_views = tracer.wrap("runtime.run_by_views", runtime.run_by_views)
    composition.run_by_views = tracer.wrap("runtime.run_by_views", runtime.run_by_views)

    nomination.best_local_set = tracer.wrap("nomination.best_local_set", nomination.best_local_set)
    nomination.best_minimum_dominating_set = tracer.wrap(
        "domination.best_set", nomination.best_minimum_dominating_set
    )
    composition.minimum_dominating_set = tracer.wrap("domination.min_set", composition.minimum_dominating_set)
    harness.mds_size = tracer.wrap("domination.mds_size", harness.mds_size)

    traced_is_planar = tracer.wrap("planarity", planarity.is_planar, n_of_graph_arg)
    composition.is_planar = traced_is_planar
    harness.PLANAR = planarity.ClassPredicate(planarity.PLANAR.name, traced_is_planar)

    composition.error_set = tracer.wrap("composition.error_set", composition.error_set)
    composition.algorithm_a = tracer.wrap("composition.sub_run", composition.algorithm_a)
    composition.repair_step = tracer.wrap("composition.repair_step", composition.repair_step)

    harness.distance3_lower_bound = tracer.wrap("harness.lower_bound", harness.distance3_lower_bound)
    harness.verify_domination = tracer.wrap("harness.verify", harness.verify_domination)
    generators.is_planar = tracer.wrap("generators.planarity_check", planarity.is_planar)
    return detection_views


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, calls inside a cell, inclusive and self seconds,
    and failures by exception type. Self time is a span's duration minus
    its children's; calls nest strictly, so children never overlap."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, cell, error in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for idx, (name, start, end, parent, cell, error) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "cell_calls": 0, "s": 0.0, "self_s": 0.0, "errors": {}})
        s["calls"] += 1
        s["cell_calls"] += cell is not None
        s["s"] += end - start
        s["self_s"] += end - start - child_time[idx]
        if error is not None:
            s["errors"][error] = s["errors"].get(error, 0) + 1
    return out

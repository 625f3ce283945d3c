"""Error-tolerant composition of a uniform sub-algorithm (algorithm B).

Given a sub-algorithm with uniform approximation guarantees on some
hereditary class, the composition runs three phases on an arbitrary graph:

1. every vertex inspects its radius-T view and flags itself as an *error*
   when that view falls outside the class;
2. the sub-algorithm runs, but flagged vertices are filtered out of its
   output;
3. whatever is left uncovered is repaired exactly, component by component,
   with the centralized oracle (unbounded local computation).

T is derived from the sub-algorithm's constants and a configurable control
function f as T = f(2k+2) + max(k+1, r). Rounds are charged T+1 for the
combined detection/filter phase (detection and the sub-algorithm run in
parallel; detection dominates) and delta+1 for repair, where delta is the
largest weak diameter of a component of the distance-2 neighborhood of the
error set: T + delta + 2 in total.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from .domination import DEFAULT_BUDGET, minimum_dominating_set, _vertex_set
from .errors import InputError, InvariantError
from .graph import (
    LabeledGraph,
    VertexSet,
    components,
    neighborhood,
    ranked_form,
    weak_diameter,
)
from .nomination import ALPHA, K_UNIFORM, ROUNDS, algorithm_a
from .planarity import ClassPredicate
from .runtime import LocalAlgorithm, RoundLedger, run_by_views


@dataclass(frozen=True)
class ControlFunction:
    """A named nondecreasing map from power radius to weak-diameter bound."""

    name: str
    fn: Callable[[int], int]

    def __call__(self, x: int) -> int:
        return self.fn(x)


def linear_control(c: int = 1) -> ControlFunction:
    if c < 1:
        raise InputError(f"linear control factor must be >= 1, got {c}")
    return ControlFunction(f"linear:{c}", lambda x: c * x)


def parse_control(spec: str) -> ControlFunction:
    """Parse a control-function spec of the form 'linear:c'."""
    kind, _, arg = spec.partition(":")
    if kind == "linear":
        try:
            return linear_control(int(arg) if arg else 1)
        except ValueError:
            pass
    raise InputError(f"unknown control function {spec!r} (expected 'linear:c')")


@dataclass(frozen=True)
class UniformSubAlgorithm:
    """A whole-graph runner plus its declared uniformity constants."""

    name: str
    k: int
    alpha: int
    rounds: int
    run: Callable[[LabeledGraph], VertexSet]


def planar_nomination(k: int = K_UNIFORM, alpha: int = ALPHA) -> UniformSubAlgorithm:
    """The 5-round nomination algorithm with its planar uniformity constants."""
    return UniformSubAlgorithm("A", k, alpha, ROUNDS, algorithm_a)


@dataclass(frozen=True)
class BConfig:
    sub: UniformSubAlgorithm
    predicate: ClassPredicate
    control: ControlFunction = field(default_factory=linear_control)
    dim: int = 2

    def __post_init__(self):
        if self.dim < 0:
            raise InputError(f"dimension must be >= 0, got {self.dim}")
        probe = [self.control(x) for x in range(2 * self.sub.k + 3)]
        if any(v < 0 for v in probe):
            raise InputError("control function must be non-negative")
        if any(b < a for a, b in zip(probe, probe[1:])):
            raise InputError("control function must be nondecreasing")

    @property
    def error_radius(self) -> int:
        """T: the view radius used for error detection."""
        return self.control(2 * self.sub.k + 2) + max(self.sub.k + 1, self.sub.rounds)

    @property
    def claimed_ratio(self) -> int:
        """Reported ratio alpha*(dim+1)+1; holds when the configured control
        function truly certifies dimension `dim` for the input class."""
        return self.sub.alpha * (self.dim + 1) + 1


@dataclass(frozen=True)
class ErrorSetReport:
    """The error set X, the components of its distance-2 neighborhood, and
    their weak diameters in the host graph."""

    radius: int
    errors: VertexSet
    components: tuple[VertexSet, ...]
    weak_diameters: tuple[int, ...]

    @property
    def delta(self) -> int:
        return max(self.weak_diameters, default=0)


@lru_cache(maxsize=65536)
def _holds_ranked(predicate: ClassPredicate, n: int, edges: tuple[tuple[int, int], ...]) -> list[bool]:
    # Class predicates are isomorphism-invariant, so one verdict serves every
    # view with the same order-preserving compact form; the first such view
    # fills this memo.
    return []


def detection_algorithm(predicate: ClassPredicate, radius: int) -> LocalAlgorithm:
    """Radius-`radius` rule flagging vertices whose view leaves the class."""
    if radius < 0:
        raise InputError(f"detection radius must be >= 0, got {radius}")

    def rule(view) -> bool:
        labels, edges = ranked_form(view.subgraph)
        memo = _holds_ranked(predicate, len(labels), edges)
        if not memo:
            memo.append(predicate.test(view.subgraph))
        return not memo[0]

    return LocalAlgorithm(f"errors[{predicate.name},r={radius}]", radius, rule)


def t_error_set(g: LabeledGraph, predicate: ClassPredicate, radius: int) -> VertexSet:
    """All vertices whose radius-`radius` view falls outside the class."""
    flags = run_by_views(g, detection_algorithm(predicate, radius))
    return frozenset(u for u, bad in flags.items() if bad)


def _error_components(g: LabeledGraph, errors: VertexSet) -> tuple[tuple[VertexSet, ...], tuple[int, ...]]:
    hood = neighborhood(g, errors, 2)
    comps = tuple(components(g, hood))
    return comps, tuple(weak_diameter(g, c) for c in comps)


def error_set(g: LabeledGraph, cfg: BConfig) -> ErrorSetReport:
    """Detect errors at the configured radius and measure their spread."""
    t = cfg.error_radius
    errors = t_error_set(g, cfg.predicate, t)
    comps, diams = _error_components(g, errors)
    return ErrorSetReport(t, errors, comps, diams)


def measure_delta(g: LabeledGraph, errors: VertexSet) -> int:
    """Largest weak diameter of a component of the distance-2 neighborhood
    of `errors`; 0 when the error set is empty."""
    errors = _vertex_set(g, errors, "errors")
    _, diams = _error_components(g, errors)
    return max(diams, default=0)


def repair_step(
    g: LabeledGraph,
    dominated_by: VertexSet,
    errors: VertexSet,
    *,
    budget: int = DEFAULT_BUDGET,
) -> VertexSet:
    """Exact minimum set covering everything `dominated_by` misses.

    Requires that every uncovered vertex lies within distance 1 of the
    error set (guaranteed by the filtered phase when the sub-algorithm's
    output dominates); violation raises InvariantError. Each connected
    component of the distance-2 neighborhood of the errors is solved
    independently; the union is exact because an uncovered vertex's whole
    closed neighborhood sits inside a single component.
    """
    dominated_by = _vertex_set(g, dominated_by, "dominated_by")
    errors = _vertex_set(g, errors, "errors")
    uncovered = frozenset(g.labels) - neighborhood(g, dominated_by, 1)
    if not uncovered:
        return frozenset()
    if not uncovered <= neighborhood(g, errors, 1):
        raise InvariantError("uncovered vertices stray beyond the error neighborhood")
    out: set[int] = set()
    for comp in components(g, neighborhood(g, errors, 2)):
        local_target = uncovered & comp
        if not local_target:
            continue
        for u in local_target:
            if not g.closed_neighborhood(u) <= comp:
                raise InvariantError(f"closed neighborhood of {u} crosses component boundary")
        out |= minimum_dominating_set(g.induced(comp), local_target, budget=budget)
    return frozenset(out)


@dataclass(frozen=True)
class BRunResult:
    """Everything one composition run produced."""

    output: VertexSet
    errors: ErrorSetReport
    filtered: VertexSet  # sub-algorithm output minus the error set
    repair: VertexSet
    ledger: RoundLedger


def algorithm_b(g: LabeledGraph, cfg: BConfig, *, budget: int = DEFAULT_BUDGET) -> BRunResult:
    """Run the composition: detect, filter, repair."""
    report = error_set(g, cfg)
    sub_output = _vertex_set(g, cfg.sub.run(g), f"{cfg.sub.name} output")
    filtered = sub_output - report.errors
    repaired = repair_step(g, filtered, report.errors, budget=budget)
    ledger = RoundLedger(view_collection=report.radius + 1, repair=report.delta + 1)
    return BRunResult(filtered | repaired, report, filtered, repaired, ledger)

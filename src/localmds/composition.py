"""Error-tolerant composition of algorithm A (algorithm B).

A has uniform approximation guarantees on planar graphs, with constants k
(uniformity scale) and alpha (ratio). The composition runs three phases on
an arbitrary graph, relative to a hereditary class predicate:

1. every vertex inspects its radius-T view and flags itself as an *error*
   when that view falls outside the class. The class is hereditary and a
   view is an induced subgraph of its center's connected component, so a
   component inside the class is cleared whole by one predicate call; only
   the vertices of the other components are checked view by view;
2. A runs, but flagged vertices are filtered out of its output;
3. whatever is left uncovered is repaired exactly with the centralized
   oracle (unbounded local computation), one component of the distance-2
   neighborhood of the error set at a time.

T is derived from k, A's round count r and a configurable control
function f as T = f(2k+2) + max(k+1, r). Rounds are charged T+1 for the
combined detection/filter phase (detection and A run in parallel;
detection dominates) and delta+1 for repair, where delta is the largest
weak diameter of a repaired component: T + delta + 2 in total. One
`ErrorSetReport`, built by `error_report`, carries the error set, these
components and their diameters from detection to repair.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .domination import DEFAULT_BUDGET, minimum_dominating_set
from .errors import InputError, InvariantError, require_int
from .graph import BallView, LabeledGraph, VertexSet, components, neighborhood, ranked_form, vertex_set, weak_diameter
from .nomination import ALPHA, K_UNIFORM, ROUNDS, algorithm_a
from .planarity import ClassPredicate
from .runtime import LocalAlgorithm, RoundLedger, memoised, rule_error, run_by_views

CONTROL = "linear:1"  # B's default control function, as parse_control reads it
DIM = 2  # B's default dimension: that of planar graphs under a linear control function


def parse_control(spec: str) -> Callable[[int], int]:
    """Parse a control-function spec of the form 'linear:c', c in ASCII digits (1 when empty)."""
    kind, _, arg = spec.partition(":")
    if kind == "linear" and (not arg or (arg.isascii() and arg.isdigit())):
        c = int(arg) if arg else 1
        require_int(c, "linear control factor", 1)
        return lambda x: c * x
    raise InputError(f"unknown control function {spec!r} (expected 'linear:c')")


@dataclass(frozen=True)
class BConfig:
    """B's class predicate, nondecreasing control function f (power radius to
    weak-diameter bound), A's uniformity constants k and alpha, and the
    dimension that f certifies for the class."""

    predicate: ClassPredicate
    control: Callable[[int], int] = field(default_factory=lambda: parse_control(CONTROL))
    k: int = K_UNIFORM
    alpha: int = ALPHA
    dim: int = DIM

    def __post_init__(self):
        require_int(self.k, "uniformity scale k", 0)
        require_int(self.alpha, "uniformity ratio alpha")
        require_int(self.dim, "dimension", 0)
        probe = [require_int(self.control(x), "control function value", 0) for x in range(2 * self.k + 3)]
        if any(b < a for a, b in zip(probe, probe[1:])):
            raise InputError("control function must be nondecreasing")

    @property
    def error_radius(self) -> int:
        """T: the view radius used for error detection."""
        return self.control(2 * self.k + 2) + max(self.k + 1, ROUNDS)

    @property
    def claimed_ratio(self) -> int:
        """The ratio alpha*(dim+1)+1 that the tests check uniformity against;
        it holds when the configured control function truly certifies
        dimension `dim` for the input class. No report or CSV carries it."""
        return self.alpha * (self.dim + 1) + 1


@dataclass(frozen=True)
class ErrorSetReport:
    """The error set X, the components of its distance-2 neighborhood, and
    their weak diameters in the host graph. B repairs exactly these
    components and charges delta + 1 rounds, delta the largest diameter."""

    errors: VertexSet
    components: tuple[VertexSet, ...]
    weak_diameters: tuple[int, ...]

    @property
    def delta(self) -> int:
        return max(self.weak_diameters, default=0)


# Verdicts keyed on (predicate, n, ranked edges): a class predicate is isomorphism-invariant,
# so graphs with the same ranked form share one call. len(VERDICTS) counts the calls made.
VERDICTS: dict[tuple, bool] = {}


def _holds(predicate: ClassPredicate, h: LabeledGraph | BallView) -> bool:
    """`predicate.test` on a graph h, or on a view h's subgraph, memoised under
    `ranked_form(h)`; a view's subgraph is built only on a miss."""
    labels, edges = ranked_form(h)
    key = (predicate, len(labels), edges)
    return memoised(VERDICTS, key, lambda: predicate.test(h.subgraph if isinstance(h, BallView) else h))


def detection_algorithm(predicate: ClassPredicate, radius: int) -> LocalAlgorithm:
    """Radius-`radius` rule flagging vertices whose view leaves the class."""
    require_int(radius, "detection radius", 0)
    return LocalAlgorithm(f"errors[{predicate.name},r={radius}]", radius, lambda view: not _holds(predicate, view))


def t_error_set(g: LabeledGraph, predicate: ClassPredicate, radius: int) -> VertexSet:
    """All vertices whose radius-`radius` view falls outside the class.

    The per-vertex reference: one view, and one memoised predicate call,
    per vertex."""
    flags = run_by_views(g, detection_algorithm(predicate, radius))
    return frozenset(u for u, bad in flags.items() if bad)


def component_error_set(g: LabeledGraph, predicate: ClassPredicate, radius: int) -> VertexSet:
    """`t_error_set(g, predicate, radius)` for a hereditary class, component first.

    A view is an induced subgraph of its center's connected component C, so
    when G[C] is in the class no vertex of C is an error. Otherwise C's
    errors are those of `t_error_set` on G[C]: a view of a vertex of C is
    the same in G[C] as in g, host labels included. A predicate failure on
    a whole component is reported as a `RuleError` at its smallest vertex.
    """
    require_int(radius, "detection radius", 0)
    comps = components(g, g.labels)
    errors: set[int] = set()
    for comp in comps:
        h = g if len(comps) == 1 else g.induced(comp)
        try:
            holds = _holds(predicate, h)
        except Exception as exc:  # noqa: BLE001 - categorised like a per-vertex rule failure
            raise rule_error(min(comp), exc) from exc
        if not holds:
            errors |= t_error_set(h, predicate, radius)
    return frozenset(errors)


def error_report(g: LabeledGraph, errors: VertexSet) -> ErrorSetReport:
    """The components of the distance-2 neighborhood of `errors`, and each
    one's weak diameter in g: the components that B repairs and charges for."""
    errors = vertex_set(g, errors, "errors")
    comps = tuple(components(g, neighborhood(g, errors, 2)))
    return ErrorSetReport(errors, comps, tuple(weak_diameter(g, c) for c in comps))


def error_set(g: LabeledGraph, cfg: BConfig) -> ErrorSetReport:
    """`error_report` on the errors `component_error_set` detects at radius T,
    which are the per-vertex `t_error_set`'s for a hereditary predicate."""
    return error_report(g, component_error_set(g, cfg.predicate, cfg.error_radius))


def repair_step(
    g: LabeledGraph, dominated_by: VertexSet, report: ErrorSetReport, *, budget: int = DEFAULT_BUDGET
) -> VertexSet:
    """Exact minimum set covering everything `dominated_by` misses.

    Requires that every uncovered vertex lies within distance 1 of the
    error set (guaranteed by the filtered phase, because A's output
    dominates); violation raises InvariantError. Each of the report's
    components is solved independently; the union is exact because an
    uncovered vertex's whole closed neighborhood sits inside a single
    component.
    """
    dominated_by = vertex_set(g, dominated_by, "dominated_by")
    uncovered = frozenset(g.labels) - neighborhood(g, dominated_by, 1)
    if not uncovered:
        return frozenset()
    if not uncovered <= neighborhood(g, report.errors, 1):
        raise InvariantError("uncovered vertices stray beyond the error neighborhood")
    out: set[int] = set()
    for comp in report.components:
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
    filtered: VertexSet  # A's output minus the error set
    repair: VertexSet
    ledger: RoundLedger


def algorithm_b(g: LabeledGraph, cfg: BConfig, *, budget: int = DEFAULT_BUDGET) -> BRunResult:
    """Run the composition: detect, filter, repair."""
    report = error_set(g, cfg)
    filtered = vertex_set(g, algorithm_a(g), "A output") - report.errors
    repaired = repair_step(g, filtered, report, budget=budget)
    ledger = RoundLedger(view_collection=cfg.error_radius + 1, repair=report.delta + 1)
    return BRunResult(filtered | repaired, report, filtered, repaired, ledger)

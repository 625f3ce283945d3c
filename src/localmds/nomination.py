"""The 5-round nomination algorithm for dominating sets (algorithm A).

Every vertex u collects its radius-4 view, computes the "best" minimum
dominating set D_u of the distance-at-most-3 part of that view, and
nominates the smallest-labeled member of D_u adjacent to (or equal to) u.
The output is the set of all nominees: 4 rounds of view collection plus
one nomination round, 5 in total.

The distance-3 part is fully known inside a radius-4 view: candidates for
dominating it live within distance 4, and all their coverage edges are
present. Because vertices at distance exactly 4 may have truncated
neighborhoods, the strict-containment discard inside the "best" selection
only compares vertices at distance at most 3, whose neighborhoods the view
knows exactly.

The output dominates any input graph (every vertex is covered by its own
nominee); the uniform approximation guarantee of ratio ALPHA at
neighborhood scale K_UNIFORM is only claimed for planar inputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .domination import DEFAULT_BUDGET, best_minimum_dominating_set, mds_size
from .errors import InputError, InvariantError, require_int
from .graph import BallView, LabeledGraph, VertexSet, ball, neighborhood, ranked_form, vertex_set
from .runtime import LocalAlgorithm, RoundLedger, memoised, run_by_views

VIEW_RADIUS = 4
TARGET_RADIUS = 3
K_UNIFORM = 4
ALPHA = 302  # certified worst-case planar uniformity ratio at scale K_UNIFORM
ROUNDS = 5  # VIEW_RADIUS rounds of collection + 1 nomination round


@dataclass(frozen=True)
class NominationDecision:
    """One vertex's local outcome: its best local set and its nominee."""

    best_local_set: VertexSet
    nominee: int


# Best sets in ranks, keyed on (n, ranked edges, target ranks): views with the same
# ranked form share one search. len(BEST_SETS) counts the searches made.
BEST_SETS: dict[tuple, tuple[int, ...]] = {}


def best_local_set(view: BallView) -> VertexSet:
    """Best minimum dominating set of the distance-<=3 part of a radius-4 view.

    Memoised in BEST_SETS under `ranked_form(view)` and the target's ranks,
    both read off the host; only a miss searches, on the view itself, and
    no view's subgraph is ever built.
    """
    if view.radius != VIEW_RADIUS:
        raise InputError(f"nomination rule needs radius-{VIEW_RADIUS} views, got {view.radius}")
    labels, edges = ranked_form(view)
    dist = view.dist
    targets = tuple(i for i, v in enumerate(labels) if dist[v] <= TARGET_RADIUS)

    def search() -> tuple[int, ...]:
        near = frozenset(labels[i] for i in targets)
        pos = {v: i for i, v in enumerate(labels)}
        return tuple(sorted(pos[v] for v in best_minimum_dominating_set(view, near, compare=near)))

    return frozenset(labels[i] for i in memoised(BEST_SETS, (len(labels), edges, targets), search))


def nomination_rule(view: BallView) -> NominationDecision:
    best = best_local_set(view)
    mine = [v for v in best if view.dist[v] <= 1]
    if not mine:
        raise InvariantError(f"best local set of {view.center} misses its closed neighborhood")
    return NominationDecision(best, min(mine))


ALGORITHM_A = LocalAlgorithm("A", VIEW_RADIUS, nomination_rule)


@dataclass(frozen=True)
class ARunResult:
    output: VertexSet
    decisions: Mapping[int, NominationDecision]
    ledger: RoundLedger


def algorithm_a_run(g: LabeledGraph) -> ARunResult:
    """Run the nomination algorithm, keeping per-vertex decisions and rounds."""
    decisions = run_by_views(g, ALGORITHM_A)
    output = frozenset(d.nominee for d in decisions.values())
    ledger = RoundLedger(view_collection=VIEW_RADIUS, algorithm_run=1)
    return ARunResult(output, decisions, ledger)


def algorithm_a(g: LabeledGraph) -> VertexSet:
    """The nominated dominating set of g."""
    return algorithm_a_run(g).output


def validate_nominations(g: LabeledGraph, decisions: Mapping[int, NominationDecision]) -> None:
    """Recompute every decision from scratch and compare.

    Bypasses the ranked-form cache, so it doubles as a cache-correctness
    check. Raises InvariantError on any mismatch.
    """
    if set(decisions) != set(g.labels):
        raise InvariantError("decision map does not cover the vertex set")
    for u, d in decisions.items():
        view = ball(g, u, VIEW_RADIUS)
        near = frozenset(v for v, dd in view.dist.items() if dd <= TARGET_RADIUS)
        fresh = best_minimum_dominating_set(view.subgraph, near, compare=near)
        if fresh != d.best_local_set:
            raise InvariantError(f"best local set mismatch at {u}")
        mine = d.best_local_set & view.subgraph.closed_neighborhood(u)
        if not mine or d.nominee != min(mine):
            raise InvariantError(f"nominee mismatch at {u}")


@dataclass(frozen=True)
class UniformityCheck:
    """Both sides of one uniformity inequality, plus the verdict."""

    holds: bool
    selected: int  # |output ∩ s|
    optimum: int  # exact minimum size dominating the radius-k neighborhood of s
    bound: Fraction  # alpha * optimum
    witness: VertexSet  # output ∩ s


def check_uniformity(
    g: LabeledGraph,
    output: VertexSet,
    s: VertexSet,
    k: int,
    alpha: int | Fraction,
    *,
    budget: int = DEFAULT_BUDGET,
) -> UniformityCheck:
    """Evaluate |output ∩ s| <= alpha * MDS(g, N^k[s]) with the exact oracle.

    `output` is whatever vertex set the algorithm under scrutiny produced
    (or a forced adversarial output, for counterexample reproduction).
    """
    output = vertex_set(g, output, "output")
    s = vertex_set(g, s, "s")
    if type(alpha) is not int and not isinstance(alpha, Fraction):
        raise InputError(f"alpha must be an integer or a Fraction, got {alpha!r}")
    alpha = Fraction(alpha)
    hood = neighborhood(g, s, require_int(k, "k", 0))
    optimum = mds_size(g, hood, budget=budget)
    witness = output & s
    bound = alpha * optimum
    return UniformityCheck(len(witness) <= bound, len(witness), optimum, bound, witness)

"""Deterministic synchronous-rounds executor for per-vertex local rules.

Two execution semantics are provided and must agree on every input:

* :func:`run_by_views` hands each vertex its radius-r ball view directly
  and applies the rule — the standard equivalence form of an r-round
  algorithm with unbounded messages.
* :func:`run_by_messages` actually floods knowledge: every vertex starts
  knowing its incident edges and forwards everything it has learned to its
  neighbors each round, then reconstructs its view from the accumulated
  knowledge. Messages are unbounded, so the whole current knowledge is
  forwarded rather than any encoded packet.

Rules must be pure functions of the view (labels included); they may not
depend on iteration order or external state. A rule sees only its ball:
the view's distances, its induced subgraph and `ranked_form(view)`, all
restricted to the vertices within `radius` of the center.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, Hashable

from .errors import LocalMdsError, RuleError, require_int
from .graph import BallView, LabeledGraph, ball

MEMO_SIZE = 65536  # keys each `memoised` memo keeps, dropping the oldest first
_MISS = object()


@dataclass(frozen=True)
class LocalAlgorithm:
    """A round budget for view collection plus a per-vertex decision rule."""

    name: str
    radius: int
    rule: Callable[[BallView], Any]

    def __post_init__(self):
        require_int(self.radius, "radius", 0)


@dataclass(frozen=True)
class RoundLedger:
    """Per-phase round counts for one run."""

    view_collection: int = 0
    algorithm_run: int = 0
    repair: int = 0

    def __post_init__(self):
        for f in fields(self):
            require_int(getattr(self, f.name), f"{f.name} rounds", 0)

    @property
    def total(self) -> int:
        return self.view_collection + self.algorithm_run + self.repair


def memoised(memo: dict, key: Hashable, compute: Callable[[], Any]) -> Any:
    """`memo[key]`, filled with `compute()` on a miss; a hit hashes `key` once, a raising `compute` stores nothing."""
    value = memo.get(key, _MISS)
    if value is _MISS:
        value = compute()
        while len(memo) >= MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = value
    return value


def rule_error(center: int, exc: Exception) -> RuleError:
    """`exc` restated as a rule failure at `center`; the caller chains it."""
    return RuleError(center, str(exc) if isinstance(exc, LocalMdsError) else f"{type(exc).__name__}: {exc}")


def _apply(rule: Callable[[BallView], Any], view: BallView) -> Any:
    try:
        return rule(view)
    except Exception as exc:  # noqa: BLE001 - annotate any rule failure with its center
        raise rule_error(view.center, exc) from exc


def run_by_views(g: LabeledGraph, alg: LocalAlgorithm) -> dict[int, Any]:
    """Decision of `alg` at every vertex, via direct ball views."""
    return {u: _apply(alg.rule, ball(g, u, alg.radius)) for u in g.labels}


def run_by_messages(g: LabeledGraph, alg: LocalAlgorithm) -> tuple[dict[int, Any], RoundLedger]:
    """Decision of `alg` at every vertex, via flooded knowledge exchange.

    Returns the decision map plus a ledger charging `alg.radius` rounds of
    view collection. The decision map is identical to :func:`run_by_views`
    by construction of the reconstruction step; tests assert it.
    """
    incident: dict[int, frozenset[tuple[int, int]]] = {
        u: frozenset((u, w) if u < w else (w, u) for w in g.neighbors(u)) for u in g.labels
    }
    know: dict[int, set[tuple[int, int]]] = {u: set(incident[u]) for u in g.labels}
    fresh: dict[int, set[tuple[int, int]]] = {u: set(incident[u]) for u in g.labels}
    for _ in range(alg.radius):
        nxt: dict[int, set[tuple[int, int]]] = {}
        for u in g.labels:
            gathered: set[tuple[int, int]] = set()
            for w in g.neighbors(u):
                gathered |= fresh[w]
            gathered -= know[u]
            know[u] |= gathered
            nxt[u] = gathered
        fresh = nxt

    decisions = {}
    for u in g.labels:
        view = _reconstruct_view(u, alg.radius, know[u])
        decisions[u] = _apply(alg.rule, view)
    return decisions, RoundLedger(view_collection=alg.radius)


def _reconstruct_view(center: int, radius: int, edges: set[tuple[int, int]]) -> BallView:
    """Rebuild the radius-`radius` view of `center` from known edges.

    After r exchange rounds a vertex knows every edge incident to its
    radius-r ball, which is a superset of the ball's own edges; the ball of
    the graph of known edges is therefore the exact induced ball.
    """
    adj: dict[int, set[int]] = {center: set()}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return ball(LabeledGraph(adj), center, radius)

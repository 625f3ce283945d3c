"""Slow reference oracles used only by the test suite.

The independent oracles deliberately share no code path with the package:
power-set exhaustion for domination, pairwise comparison for strict
neighborhood containment, simple-path enumeration for distances, rank
pairs and a byte decoder for the packed ranked form, and a
subdivision search (complete graph on five vertices, or complete bipartite
3x3) for planarity. Keep instances small; everything here is exponential.
The exceptions reach past exhaustion through independent libraries: the
domination size from an integer program, solved by HiGHS through scipy,
and the planarity verdict of networkx's `check_planarity`, which builds an
embedding along the way.

Three helpers at the end deliberately call package code (`ball`,
`best_minimum_dominating_set`, `mds_size`) and put no cache in between:
`validate_nominations` recomputes algorithm A's decisions without the
ranked-form memo, `check_uniformity` evaluates one uniformity inequality
with the exact oracle, and `run_by_messages` floods edge knowledge round
by round, the second LOCAL semantics that `run_by_views` must match.
"""
from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping

import pytest

from localmds import (
    DEFAULT_BUDGET,
    BallView,
    InputError,
    InvariantError,
    LabeledGraph,
    LocalAlgorithm,
    NominationDecision,
    RoundLedger,
    VertexSet,
    ball,
    best_minimum_dominating_set,
    mds_size,
    neighborhood,
)
from localmds.errors import require_int
from localmds.graph import vertex_set
from localmds.nomination import TARGET_RADIUS, VIEW_RADIUS
from localmds.runtime import _apply


def exhaustive_mds_size(g: LabeledGraph, target) -> int:
    """Minimum dominating-set size by power-set search over ALL vertices."""
    target = set(target)
    if not target:
        return 0
    closed = {v: set(g.closed_neighborhood(v)) for v in g.labels}
    for size in range(len(g.labels) + 1):
        for combo in itertools.combinations(g.labels, size):
            covered: set[int] = set()
            for c in combo:
                covered |= closed[c]
            if target <= covered:
                return size
    raise AssertionError("unreachable: the full vertex set dominates everything")


def exhaustive_all_mds(g: LabeledGraph, target) -> set[frozenset[int]]:
    """Every minimum dominating set, by power-set search."""
    target = set(target)
    if not target:
        return {frozenset()}
    closed = {v: set(g.closed_neighborhood(v)) for v in g.labels}
    for size in range(len(g.labels) + 1):
        hits = set()
        for combo in itertools.combinations(g.labels, size):
            covered: set[int] = set()
            for c in combo:
                covered |= closed[c]
            if target <= covered:
                hits.add(frozenset(combo))
        if hits:
            return hits
    raise AssertionError("unreachable")


def milp_mds_size(g: LabeledGraph, target, time_limit: float) -> int:
    """Minimum dominating-set size of `target` from the covering integer program:
    minimise sum x_v over binary x with sum of x_v over N[b] >= 1 for every b
    in `target`. Skips the calling test when scipy is missing, and fails it
    when the solver stops without a proven optimum (say, after `time_limit`
    seconds)."""
    optimize = pytest.importorskip("scipy.optimize")
    rows = sorted(set(target))
    if not rows:
        return 0
    pos = {v: i for i, v in enumerate(g.labels)}
    cover = [[0] * g.n for _ in rows]
    for r, b in enumerate(rows):
        for v in g.closed_neighborhood(b):
            cover[r][pos[v]] = 1
    result = optimize.milp(
        [1] * g.n,
        integrality=[1] * g.n,
        bounds=optimize.Bounds(0, 1),
        constraints=optimize.LinearConstraint(cover, lb=1),
        options={"time_limit": time_limit, "mip_rel_gap": 0},
    )
    if result.status != 0:
        pytest.fail(f"no proven optimum: {result.message}")
    return round(result.fun)


def networkx_is_planar(g: LabeledGraph) -> bool:
    """Planarity by networkx's left-right test, a separate implementation of
    the package's tester. Skips the calling test when networkx is missing."""
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(g.labels)
    h.add_edges_from(g.edges())
    return nx.check_planarity(h)[0]


def strictly_dominated_by_pairs(g: LabeledGraph, within=None) -> frozenset[int]:
    """Vertices v of the scope with some w of the scope such that N[v] is a
    proper subset of N[w], by comparing every pair."""
    scope = set(g.labels) if within is None else set(within)
    closed = {v: set(g.neighbors(v)) | {v} for v in g.labels}
    return frozenset(v for v in scope if any(closed[v] < closed[w] for w in scope))


def ranked_edges(g: LabeledGraph) -> tuple[tuple[int, int], ...]:
    """The edges of g re-labeled by rank, as ascending (i, j) pairs with i < j."""
    rank = {v: i for i, v in enumerate(sorted(g.labels))}
    return tuple(sorted((rank[u], rank[v]) for u, v in g.edges()))


def item_width(n: int) -> int:
    """The fewest of 1, 2, 4 or 8 bytes that hold n * n - 1."""
    return next(w for w in (1, 2, 4, 8) if n * n - 1 < 256**w)


def decode(n: int, code: bytes) -> tuple[tuple[int, int], ...]:
    """The (i, j) pairs of a packed ranked form: each number i * n + j is
    stored in `item_width(n)` native-order bytes."""
    width = item_width(n)
    assert len(code) % width == 0
    numbers = [int.from_bytes(code[k : k + width], sys.byteorder) for k in range(0, len(code), width)]
    return tuple(divmod(x, n) for x in numbers)


def enumerated_distances(g: LabeledGraph, source: int) -> dict[int, int]:
    """Shortest path lengths by enumerating all simple paths from source."""
    best = {source: 0}

    def walk(v: int, seen: set[int], length: int) -> None:
        for w in g.neighbors(v):
            if w in seen:
                continue
            if w not in best or length + 1 < best[w]:
                best[w] = length + 1
            walk(w, seen | {w}, length + 1)

    walk(source, {source}, 0)
    return best


def _disjoint_paths(g: LabeledGraph, pairs, spare: frozenset[int]) -> bool:
    """Can every pair be joined by internally disjoint paths through `spare`?"""

    def internal_options(a: int, b: int, available: frozenset[int]):
        if b in g.neighbors(a):
            yield frozenset()

        def walk(v: int, used: frozenset[int]):
            for w in g.neighbors(v):
                if w == b:
                    yield used
                elif w in available and w not in used:
                    yield from walk(w, used | {w})

        for w in g.neighbors(a):
            if w in available:
                yield from walk(w, frozenset({w}))

    def place(idx: int, used: frozenset[int]) -> bool:
        if idx == len(pairs):
            return True
        a, b = pairs[idx]
        for internals in internal_options(a, b, spare - used):
            if place(idx + 1, used | internals):
                return True
        return False

    return place(0, frozenset())


def has_k5_subdivision(g: LabeledGraph) -> bool:
    branch_pool = [v for v in g.labels if g.degree(v) >= 4]
    verts = set(g.labels)
    for branch in itertools.combinations(branch_pool, 5):
        pairs = list(itertools.combinations(branch, 2))
        if _disjoint_paths(g, pairs, frozenset(verts - set(branch))):
            return True
    return False


def has_k33_subdivision(g: LabeledGraph) -> bool:
    branch_pool = [v for v in g.labels if g.degree(v) >= 3]
    verts = set(g.labels)
    for six in itertools.combinations(branch_pool, 6):
        rest = six[1:]
        for others in itertools.combinations(rest, 2):
            side_a = (six[0],) + others
            side_b = tuple(v for v in six if v not in side_a)
            pairs = [(a, b) for a in side_a for b in side_b]
            if _disjoint_paths(g, pairs, frozenset(verts - set(six))):
                return True
    return False


def planar_by_subdivisions(g: LabeledGraph) -> bool:
    """Planarity reference: no subdivision of K5 or of K3,3. Keep n <= 12."""
    return not (has_k5_subdivision(g) or has_k33_subdivision(g))


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

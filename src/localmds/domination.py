"""Exact subset-domination oracles.

All answers here are exact: they are provably optimal or the query raises
:class:`EnumerationBudgetError`; nothing is ever silently truncated. The
candidate pool is restricted to the closed neighborhood of the target,
which loses nothing: a vertex outside N[target] covers no target vertex,
so no minimum dominating set of the target can contain one.

Every query runs one iterative branch and bound, `_search`: below a
greedy cover for the size, at the optimum size for the enumeration, and,
for the best set, first below a greedy cover over the allowed candidates
and then as a feasibility test on a prefix. The best set searches a
prefix only when the last completion found does not already prove it can
be finished, and such a search stops at its first cover. `budget` caps
the search nodes of one whole query, over all of its passes.

The size search also applies a swap rule at every branching node: a
dominator of the branch vertex whose coverage of the uncovered vertices
lies inside another free dominator's is banned, since a cover using it
stays a cover with the other in its place. That keeps the optimum size
but drops covers, so it never runs in the enumeration, in the best set's
searches, or in the witness pass of `minimum_dominating_set`, which
reruns the plain search from the optimum and stops at its first cover:
the set the plain search from greedy returns.

The search prunes with two lower bounds on the members still needed: the
coverage bound ceil(|uncovered| / best coverage), and a packing bound
(van Rooij & Bodlaender, *Exact algorithms for dominating set*, DAM 2011):
uncovered vertices no two of which share a candidate still allowed each
need a member of their own. Both prune only subtrees that hold no cover
within the limit, so the search meets the same covers in the same order
with or without them.

Each query builds one table of closed-neighborhood bitmasks, N[v] per
vertex position, from a graph or from a ball view's host restricted to
the ball, and reads all coverage from it: N[.] is symmetric, so
`closed[c] & mask` answers both "what does c cover" and "who covers b".
The reductions, the search and the strict-containment discard share it.

Sets are compared lexicographically by their ascending label sequences;
all returned optima have equal size, so no prefix issue arises.
"""
from __future__ import annotations

from typing import Iterable

from .errors import EnumerationBudgetError, InvariantError, require_int
from .graph import BallView, LabeledGraph, VertexSet, neighborhood, vertex_set

DEFAULT_BUDGET = 10**6


def verify_domination(g: LabeledGraph, chosen: Iterable[int], target: Iterable[int]) -> bool:
    """True iff every target vertex lies in the closed neighborhood of `chosen`."""
    chosen = vertex_set(g, chosen, "chosen")
    target = vertex_set(g, target, "target")
    return target <= neighborhood(g, chosen, 1)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closed_masks(g: LabeledGraph | BallView) -> tuple[dict[int, int], list[int]]:
    """Each label's position in label order, and each position's N[v] as a bitmask (a view's off its host)."""
    host, labels = (g._host, g.vertices) if isinstance(g, BallView) else (g, g.labels)
    pos = {v: i for i, v in enumerate(labels)}
    closed = []
    for i, v in enumerate(labels):
        mask = 1 << i
        for w in host.neighbors(v):
            if w in pos:
                mask |= 1 << pos[w]
        closed.append(mask)
    return pos, closed


class _Instance:
    """One query: the N[v] mask table, the target, its candidates and the node budget.

    N[.] is symmetric, so `closed[c] & mask` is both what c covers in
    `mask` and, for a target position c, who among `mask` covers it.
    """

    __slots__ = ("labels", "pos", "closed", "target_mask", "cands", "budget", "used", "query")

    def __init__(self, g: LabeledGraph | BallView, target: Iterable[int], query: str, budget: int):
        self.budget = require_int(budget, "budget", 0)
        self.pos, self.closed = _closed_masks(g)
        self.labels = tuple(self.pos)
        self.target_mask = tmask = self.mask(vertex_set(g, target, "target"))
        self.cands = [i for i, m in enumerate(self.closed) if m & tmask]
        self.used = 0  # search nodes so far, over the whole query
        self.query = query  # the public function, named in a budget error

    def mask(self, vertices: VertexSet) -> int:
        return sum(1 << self.pos[v] for v in vertices)

    def to_labels(self, indices: Iterable[int]) -> VertexSet:
        return frozenset(self.labels[i] for i in indices)


def _greedy(inst: _Instance, cands: list[int]) -> list[int]:
    """A cover of the target by `cands`, each step taking the first member of largest gain."""
    closed = inst.closed
    rem = inst.target_mask
    chosen: list[int] = []
    while rem:
        best, gain = -1, 0
        for i in cands:
            covers = (closed[i] & rem).bit_count()
            if covers > gain:
                best, gain = i, covers
        if not gain:
            raise InvariantError("greedy cover: no candidate covers the uncovered target vertices")
        chosen.append(best)
        rem &= ~closed[best]
    return chosen


def _common(sets: list[int], members: int, everyone: int) -> int:
    """Keys in `everyone` holding every member: the AND of each member e's holder mask sets[e]."""
    for e in _bits(members):
        everyone &= sets[e]
        if not everyone:
            break
    return everyone


def _union(sets: list[int], members: int) -> int:
    """The OR of sets[e] over the members e."""
    out = 0
    for e in _bits(members):
        out |= sets[e]
    return out


def _dominated(closed: list[int], scope: int) -> int:
    """Positions v in `scope` with some w in `scope` such that N[v] is strictly inside N[w].

    Such a w holds v in N[w], so w is in N(v): only v's neighbours in
    `scope` are compared, each with one AND.
    """
    out = 0
    for v in _bits(scope):
        cv = closed[v]
        if any(cv & closed[w] == cv != closed[w] for w in _bits(cv & scope & ~(1 << v))):
            out |= 1 << v
    return out


def _reduce(inst: _Instance) -> tuple[list[int], int]:
    """Standard lossless set-cover reductions for size/witness search.

    Drops a target vertex whose coverer set contains another's (covering
    the harder vertex covers it for free) and a candidate whose coverage is
    contained in another's (the container can always stand in for it).
    Ties keep the lower index, so a pass drops exactly the non-minimal
    elements of one strict order, whatever order it visits them in. Only
    sets sharing a member are compared: a set's containers are the common
    holders of its members. Target b's coverers are `closed[b] & live`.
    Neither rule changes the optimum size, and any witness over the reduced
    instance dominates the full target. Enumeration never uses this.
    """
    closed = inst.closed
    cands, tmask = inst.cands, inst.target_mask
    while True:
        live = sum(1 << c for c in cands)
        before = tmask
        for b in _bits(before):
            who = closed[b] & live
            for b2 in _bits(_common(closed, who, tmask) & ~(1 << b)):
                if closed[b2] & live != who or b < b2:
                    tmask &= ~(1 << b2)
        kept = []
        for c in cands:
            cv = closed[c] & tmask
            holders = _common(closed, cv, live) & ~(1 << c)
            if not any(d < c or closed[d] & tmask != cv for d in _bits(holders)):
                kept.append(c)
        if tmask == before and len(kept) == len(cands):
            return cands, tmask
        cands = kept


class _Lazy(dict):
    """A per-call table whose entry for a key is built the first time it is read."""

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def _packing(closed: list[int], classes: list[int], rem: int, free: int, reach: dict[int, int], room: int) -> int:
    """A lower bound on the members of `free` that cover `rem`, or `room` + 1 once it exceeds `room`.

    Walks `rem` class by class, lowest bit first, and keeps each vertex u
    that no kept vertex blocks; keeping u blocks `reach[u]`, everything
    that u's dominators cover. So no candidate covers two kept vertices,
    and each needs a member of its own. A visited vertex with no dominator
    in `free` cannot be covered at all.
    """
    kept = 0
    blocked = 0
    for cls in classes:
        todo = rem & cls & ~blocked
        while todo:
            u = (todo & -todo).bit_length() - 1
            if kept == room or not closed[u] & free:
                return room + 1
            kept += 1
            blocked |= reach[u]
            todo &= ~blocked
    return kept


def _search(
    inst: _Instance,
    cands: list[int],
    rem: int,
    limit: int,
    step: str,
    *,
    found: list[tuple[int, ...]] | None = None,
    swaps: bool = False,
    first: bool = False,
) -> tuple[int, ...] | None:
    """Covers of `rem` (inside the target) by at most `limit` members of `cands`, depth first.

    Branches on the uncovered vertex with the fewest dominators among
    `cands` (counted once, up front; the lowest bit breaks ties). Child i
    takes that vertex's dominator i and bans dominators 0..i-1, so the
    children partition the covers below their parent. A node is pruned
    when ceil(|uncovered| / best coverage) more members would exceed
    `limit`, and then when a packing of the uncovered vertices does:
    `_packing` finds uncovered vertices no two of which share a candidate
    still allowed, so each needs a member of its own.

    A node costs a few mask operations, not a walk over every bit. The
    set-up groups the vertices into one mask per dominator count, so the
    branch vertex is the lowest bit of the first class meeting the
    uncovered mask. The bound is a threshold, as ceil(r / g) <= s exactly
    when g >= ceil(r / s): with r uncovered and s = `limit` - chosen, the
    node survives iff a member covers ceil(r / s). Members are walked by
    static coverage, which bounds their gain, up to the first one that
    meets the threshold or is too small to. The packing walks the same
    classes. A vertex's dominator list (by static coverage) and its
    `reach`, the union of N[c] over its dominators c, are built the first
    time a node reads them and kept for the call.

    With `swaps`, each branching node also bans the dominators of its
    branch vertex b whose coverage of the uncovered vertices lies inside
    another free dominator's: strictly inside, or equal with the other one
    earlier in the branch order, a strict order whose maximal elements are
    the dominators kept. Any container of such a coverage holds b, so only
    b's dominators are compared. A cover below the node that uses a banned
    dominator stays a cover, no larger, with the maximal container in its
    place, so the smallest cover size below the node is kept, but covers
    are lost: sizes and yes/no answers only, never `found` or a witness.

    Without `found`, returns the first strictly smallest cover met, or
    None: each cover found lowers `limit` to one below its size, and with
    `first` the search returns that first cover at once. With `found`,
    appends every cover of exactly `limit` members to it; `limit` must then
    be the optimum. `step` names the pass in a budget error.
    """
    closed = inst.closed
    ranked = sorted((-(closed[c] & rem).bit_count(), c) for c in cands if closed[c] & rem)
    order = [c for _, c in ranked]
    masks = [closed[c] for c in order]
    sizes = [-s for s, _ in ranked]
    rank = {c: i for i, c in enumerate(order)}
    live = sum(1 << c for c in order)
    by_degree: dict[int, int] = {}
    for b in _bits(rem):
        d = (closed[b] & live).bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << b
    classes = [by_degree[k] for k in sorted(by_degree)]
    dominators = _Lazy(lambda b: sorted(_bits(closed[b] & live), key=rank.__getitem__))
    reach = _Lazy(lambda u: _union(closed, closed[u] & live))
    best = None
    stack = [(rem, (), 0)]  # (uncovered, chosen, banned candidates as a mask)
    while stack:
        rem, chosen, banned = stack.pop()
        count = len(chosen)
        inst.used += 1
        if inst.used > inst.budget:
            raise EnumerationBudgetError(
                f"{inst.query}: exact search exceeded {inst.budget} nodes in {step}"
                f" (target of {inst.target_mask.bit_count()} vertices)"
            )
        if not rem:
            if count > limit:
                continue  # pushed before `limit` tightened
            if found is None:
                if first:
                    return chosen
                best, limit = chosen, count - 1
            elif count < limit:
                raise InvariantError("enumeration found a cover smaller than the optimum")
            else:
                found.append(chosen)
            continue
        if count >= limit:
            continue
        need = -(-rem.bit_count() // (limit - count))
        for m, size in zip(masks, sizes):
            if size < need or (m & rem).bit_count() >= need:
                break
        else:
            continue  # no member covers `need` uncovered vertices
        if size < need:
            continue  # no later member can either: static coverage bounds gain
        if _packing(closed, classes, rem, live & ~banned, reach, limit - count) > limit - count:
            continue
        for cls in classes:
            low = rem & cls
            if low:
                break
        b = (low & -low).bit_length() - 1
        doms = dominators[b]
        if swaps:
            free = [(c, closed[c] & rem) for c in doms if not banned >> c & 1]
            doms = []
            for i, (c, cv) in enumerate(free):
                if any(cv & dv == cv and (cv != dv or j < i) for j, (_, dv) in enumerate(free) if j != i):
                    banned |= 1 << c
                else:
                    doms.append(c)
        children = []
        for c in doms:
            if not banned >> c & 1:
                children.append((rem & ~closed[c], chosen + (c,), banned))
                banned |= 1 << c
        stack.extend(reversed(children))
    return best


def _solve(inst: _Instance, witness: bool) -> tuple[int, ...]:
    """A minimum cover (candidate indices): greedy, reductions, then the
    size pass, the swap-rule search for anything strictly smaller than the
    greedy cover, which proves the optimum m; greedy is kept when optimal.

    With `witness`, the plain search then runs from limit m and returns its
    first cover, which is the set the plain search from greedy returns.
    That search's tree (branch vertices, child order, bans) does not depend
    on its limit, and its bounds prune only subtrees with no cover within
    the limit, so from any limit >= m it meets the same first m-cover depth
    first; from greedy's limit it only passes larger covers on the way."""
    greedy = tuple(_greedy(inst, inst.cands))
    cands, tmask = _reduce(inst)
    best = _search(inst, cands, tmask, len(greedy) - 1, "the size search", swaps=True)
    if best is None:
        return greedy
    if witness:
        best = _search(inst, cands, tmask, len(best), "the witness search", first=True)
        if best is None:
            raise InvariantError("the witness search found no cover of the optimum size")
    return best


def mds_size(g: LabeledGraph, target: Iterable[int], *, budget: int = DEFAULT_BUDGET) -> int:
    """Exact minimum number of vertices of g whose closed neighborhoods cover `target`."""
    return len(_solve(_Instance(g, target, "mds_size", budget), False))


def minimum_dominating_set(g: LabeledGraph, target: Iterable[int], *, budget: int = DEFAULT_BUDGET) -> VertexSet:
    """One exact minimum dominating set of `target`; deterministic for fixed inputs."""
    inst = _Instance(g, target, "minimum_dominating_set", budget)
    return inst.to_labels(_solve(inst, True))


def all_minimum_dominating_sets(
    g: LabeledGraph, target: Iterable[int], *, budget: int = DEFAULT_BUDGET
) -> list[VertexSet]:
    """Every minimum dominating set of `target`, canonically sorted.

    `budget` caps the search nodes of the size search and the enumeration
    together; every optimum is a leaf node, so it also caps their number.
    Exceeding it raises EnumerationBudgetError rather than truncating.
    """
    inst = _Instance(g, target, "all_minimum_dominating_sets", budget)
    found: list[tuple[int, ...]] = []
    _search(inst, inst.cands, inst.target_mask, len(_solve(inst, False)), "the enumeration", found=found)
    return sorted((inst.to_labels(s) for s in found), key=sorted)


def strictly_dominated(g: LabeledGraph, within: Iterable[int] | None = None) -> VertexSet:
    """Vertices v with some w such that N[v] is strictly contained in N[w].

    When `within` is given, both v and w range over it only; by default
    they range over the whole graph.
    """
    pos, closed = _closed_masks(g)
    scope = vertex_set(g, within, "within") if within is not None else g.labels
    return frozenset(g.labels[v] for v in _bits(_dominated(closed, sum(1 << pos[v] for v in scope))))


def best_minimum_dominating_set(
    g: LabeledGraph | BallView,
    target: Iterable[int],
    *,
    compare: Iterable[int] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> VertexSet:
    """The "best" minimum dominating set of `target`.

    Among all minimum dominating sets, those containing a strictly
    dominated vertex (some w has N[v] strictly inside N[w]) are discarded,
    and the lexicographically smallest survivor is returned. A survivor
    always exists: swapping a strictly dominated member for its dominator
    preserves minimality, and the swap chain terminates at maximal
    neighborhoods.

    Neighborhoods are taken in the graph passed in, or for a `BallView` in
    its host restricted to the ball, with no subgraph built; `compare`
    restricts which vertices participate in the strict-containment
    comparison (used by callers whose views have truncated boundary
    neighborhoods).

    The size m comes from a search over the non-discarded ("allowed")
    candidates alone, below a greedy cover over them: by the swap argument
    an optimum lies inside them, so m is the optimum size.

    Built in label order over the allowed candidates: each is kept iff it
    covers something still uncovered and the search can finish an optimum
    from later candidates. This equals enumerate-then-filter without the
    full enumeration; `budget` caps search nodes. `witness`, the ascending
    completion of the chosen prefix that the last search (or the size
    search) found, makes most of those searches unnecessary: when its
    smallest member is the candidate at hand, the rest of it finishes an
    optimum from later candidates, so the search could only say yes. A
    prefix one short of m that leaves something uncovered is rejected with
    no search: there is no room left.
    """
    inst = _Instance(g, target, "best_minimum_dominating_set", budget)
    scope = inst.mask(vertex_set(g, compare, "compare")) if compare is not None else (1 << len(inst.labels)) - 1
    closed = inst.closed
    discard = _dominated(closed, scope)
    allowed = [c for c in inst.cands if not discard >> c & 1]
    greedy = _greedy(inst, allowed)
    witness = sorted(_search(inst, allowed, inst.target_mask, len(greedy) - 1, "the size search") or greedy)
    m = len(witness)
    chosen: list[int] = []
    rem = inst.target_mask
    for p, c in enumerate(allowed):
        rest = rem & ~closed[c]
        if rest == rem:
            continue
        if witness[0] == c:
            witness.pop(0)
        elif rest:
            if len(chosen) + 1 == m:
                continue  # no room left to cover `rest`
            step = f"the search completing a prefix of {len(chosen) + 1} to {m} members"
            found = _search(inst, allowed[p + 1 :], rest, m - len(chosen) - 1, step, first=True)
            if found is None:
                continue
            witness = sorted(found)
        chosen.append(c)
        rem = rest
        if not rem:
            break
    if rem or len(chosen) != m:
        raise InvariantError("no minimum dominating set avoids all strictly dominated vertices")
    return inst.to_labels(chosen)

"""Exact subset-domination oracles.

All answers here are exact: they are provably optimal or the query raises
:class:`EnumerationBudgetError`; nothing is ever silently truncated. The
candidate pool is restricted to the closed neighborhood of the target,
which loses nothing: a vertex outside N[target] covers no target vertex,
so no minimum dominating set of the target can contain one.

Every query runs one iterative branch and bound, `_search`: below a
greedy cover for the size, at the optimum size for the enumeration, and as
a feasibility test on each prefix for the best set. `budget` caps the
search nodes of one whole query.

Sets are compared lexicographically by their ascending label sequences;
all returned optima have equal size, so no prefix issue arises.
"""
from __future__ import annotations

from typing import Iterable

from .errors import EnumerationBudgetError, InputError, InvariantError
from .graph import LabeledGraph, VertexSet

DEFAULT_BUDGET = 10**6


def _vertex_set(g: LabeledGraph, s: Iterable[int], name: str) -> VertexSet:
    out = frozenset(s)
    for v in out:
        if v not in g:
            raise InputError(f"{name} contains {v!r}, which is not a vertex")
    return out


def verify_domination(g: LabeledGraph, chosen: Iterable[int], target: Iterable[int]) -> bool:
    """True iff every target vertex lies in the closed neighborhood of `chosen`."""
    chosen = _vertex_set(g, chosen, "chosen")
    target = _vertex_set(g, target, "target")
    covered: set[int] = set()
    for v in chosen:
        covered.add(v)
        covered.update(g.neighbors(v))
    return target <= covered


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closed_masks(g: LabeledGraph) -> tuple[dict[int, int], list[int]]:
    """Each label's position in g.labels, and each position's N[v] as a bitmask."""
    pos = {v: i for i, v in enumerate(g.labels)}
    return pos, [sum(1 << pos[w] for w in g.closed_neighborhood(v)) for v in g.labels]


class _Instance:
    """Bitmask view of one subset-domination instance."""

    __slots__ = ("labels", "target_mask", "cands", "cover")

    def __init__(self, g: LabeledGraph, target: VertexSet):
        self.labels = g.labels
        pos, closed = _closed_masks(g)
        self.target_mask = tmask = sum(1 << pos[v] for v in target)
        self.cover = {i: m & tmask for i, m in enumerate(closed) if m & tmask}
        self.cands = list(self.cover)

    def to_labels(self, indices: Iterable[int]) -> VertexSet:
        return frozenset(self.labels[i] for i in indices)


class _Nodes:
    """Search nodes one query has used, against its budget."""

    __slots__ = ("budget", "used", "query", "targets")

    def __init__(self, budget: int, query: str, targets: int):
        self.budget = budget
        self.used = 0
        self.query = query  # the public function, named in a budget error
        self.targets = targets


def _greedy(inst: _Instance) -> list[int]:
    covered = 0
    chosen: list[int] = []
    while covered & inst.target_mask != inst.target_mask:
        best_i = -1
        best_gain = 0
        for i in inst.cands:
            gain = (inst.cover[i] & ~covered).bit_count()
            if gain > best_gain:
                best_gain, best_i = gain, i
        chosen.append(best_i)
        covered |= inst.cover[best_i]
    return chosen


def _common(sets: dict[int, int] | list[int], members: int, everyone: int) -> int:
    """Keys in `everyone` holding every member: the AND of each member e's holder mask sets[e]."""
    for e in _bits(members):
        everyone &= sets[e]
    return everyone


def _reduce(inst: _Instance) -> tuple[list[int], dict[int, int], int]:
    """Standard lossless set-cover reductions for size/witness search.

    Drops a target vertex whose coverer set contains another's (covering
    the harder vertex covers it for free) and a candidate whose coverage is
    contained in another's (the container can always stand in for it).
    Ties keep the lower index, so a pass drops exactly the non-minimal
    elements of one strict order, whatever order it visits them in. Only
    sets sharing a member are compared: a set's containers are the common
    holders of its members. Neither rule changes the optimum size, and any
    witness over the reduced instance dominates the full target.
    Enumeration never uses this.
    """
    cands = list(inst.cands)
    cover = dict(inst.cover)
    tmask = inst.target_mask
    while True:
        coverers = dict.fromkeys(_bits(tmask), 0)
        everyone = 0
        for c in cands:
            everyone |= 1 << c
            for b in _bits(cover[c]):
                coverers[b] |= 1 << c
        before = tmask
        for b, who in coverers.items():
            for b2 in _bits(_common(cover, who, tmask) & ~(1 << b)):
                if coverers[b2] != who or b < b2:
                    tmask &= ~(1 << b2)
        kept = []
        for c in cands:
            cv = cover[c] & tmask
            holders = _common(coverers, cv, everyone) & ~(1 << c)
            if not any(d < c or cover[d] & tmask != cv for d in _bits(holders)):
                kept.append(c)
        if tmask == before and len(kept) == len(cands):
            return cands, cover, tmask
        cands = kept
        cover = {c: cover[c] & tmask for c in cands}


def _search(
    cover: dict[int, int],
    cands: list[int],
    rem: int,
    limit: int,
    nodes: _Nodes,
    found: list[tuple[int, ...]] | None = None,
) -> tuple[int, ...] | None:
    """Covers of `rem` by at most `limit` members of `cands`, depth first.

    Branches on the uncovered vertex with the fewest dominators among
    `cands` (counted once, up front; the lowest bit breaks ties). Child i
    takes that vertex's dominator i and bans dominators 0..i-1, so the
    children partition the covers below their parent. A node is pruned
    when ceil(|uncovered| / best coverage) more members would exceed
    `limit`.

    A node costs a few mask operations, not a walk over every bit. The
    set-up groups the vertices into one mask per dominator count, so the
    branch vertex is the lowest bit of the first class meeting the
    uncovered mask. The bound is a threshold, as ceil(r / g) <= s exactly
    when g >= ceil(r / s): with r uncovered and s = `limit` - chosen, the
    node survives iff a member covers ceil(r / s). Members are walked by
    static coverage, which bounds their gain, up to the first one that
    meets the threshold or is too small to.

    Without `found`, returns the first strictly smallest cover met, or
    None: each cover found lowers `limit` to one below its size. With
    `found`, appends every cover of exactly `limit` members to it; `limit`
    must then be the optimum.
    """
    ranked = sorted((-(cover[c] & rem).bit_count(), c) for c in cands if cover[c] & rem)
    order = [c for _, c in ranked]
    masks = [cover[c] for c in order]
    sizes = [-s for s, _ in ranked]
    dominators: dict[int, list[int]] = {b: [] for b in _bits(rem)}
    for c, m in zip(order, masks):
        for b in _bits(m & rem):
            dominators[b].append(c)
    by_degree: dict[int, int] = {}
    for b, d in dominators.items():
        by_degree[len(d)] = by_degree.get(len(d), 0) | 1 << b
    classes = [by_degree[k] for k in sorted(by_degree)]
    best = None
    stack = [(rem, (), 0)]  # (uncovered, chosen, banned candidates as a mask)
    while stack:
        rem, chosen, banned = stack.pop()
        count = len(chosen)
        nodes.used += 1
        if nodes.used > nodes.budget:
            raise EnumerationBudgetError(
                f"{nodes.query}: exact search exceeded {nodes.budget} nodes"
                f" (target of {nodes.targets} vertices)"
            )
        if not rem:
            if count > limit:
                continue  # pushed before `limit` tightened
            if found is None:
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
        for cls in classes:
            low = rem & cls
            if low:
                break
        b = (low & -low).bit_length() - 1
        children = []
        for c in dominators[b]:
            if not banned >> c & 1:
                children.append((rem & ~cover[c], chosen + (c,), banned))
                banned |= 1 << c
        stack.extend(reversed(children))
    return best


def _solve(inst: _Instance, nodes: _Nodes) -> tuple[int, ...]:
    """One minimum cover (candidate indices): greedy, reductions, then the
    search for anything strictly smaller than the greedy cover."""
    greedy = tuple(_greedy(inst))
    cands, cover, tmask = _reduce(inst)
    best = _search(cover, cands, tmask, len(greedy) - 1, nodes)
    return greedy if best is None else best


def mds_size(g: LabeledGraph, target: Iterable[int], *, budget: int = DEFAULT_BUDGET) -> int:
    """Exact minimum number of vertices of g whose closed neighborhoods cover `target`."""
    target = _vertex_set(g, target, "target")
    return len(_solve(_Instance(g, target), _Nodes(budget, "mds_size", len(target))))


def minimum_dominating_set(g: LabeledGraph, target: Iterable[int], *, budget: int = DEFAULT_BUDGET) -> VertexSet:
    """One exact minimum dominating set of `target`; deterministic for fixed inputs."""
    target = _vertex_set(g, target, "target")
    inst = _Instance(g, target)
    return inst.to_labels(_solve(inst, _Nodes(budget, "minimum_dominating_set", len(target))))


def all_minimum_dominating_sets(
    g: LabeledGraph, target: Iterable[int], *, budget: int = DEFAULT_BUDGET
) -> list[VertexSet]:
    """Every minimum dominating set of `target`, canonically sorted.

    `budget` caps the search nodes of the size search and the enumeration
    together; every optimum is a leaf node, so it also caps their number.
    Exceeding it raises EnumerationBudgetError rather than truncating.
    """
    target = _vertex_set(g, target, "target")
    inst = _Instance(g, target)
    nodes = _Nodes(budget, "all_minimum_dominating_sets", len(target))
    found: list[tuple[int, ...]] = []
    _search(inst.cover, inst.cands, inst.target_mask, len(_solve(inst, nodes)), nodes, found)
    return sorted((inst.to_labels(s) for s in found), key=sorted)


def strictly_dominated(g: LabeledGraph, within: Iterable[int] | None = None) -> VertexSet:
    """Vertices v with some w such that N[v] is strictly contained in N[w].

    When `within` is given, both v and w range over it only; by default
    they range over the whole graph. N[v] lies inside N[w] exactly when w
    is in N[u] for every u in N[v]: v's containers are the common holders
    of N[v]'s members, so only vertices within distance 2 are compared.
    """
    pos, closed = _closed_masks(g)
    scope = _vertex_set(g, within, "within") if within is not None else g.labels
    everyone = sum(1 << pos[v] for v in scope)
    return frozenset(
        g.labels[v]
        for v in _bits(everyone)
        if any(closed[w] != closed[v] for w in _bits(_common(closed, closed[v], everyone)))
    )


def best_minimum_dominating_set(
    g: LabeledGraph,
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

    Neighborhoods are taken in the graph passed in; `compare` restricts
    which vertices participate in the strict-containment comparison (used
    by callers whose views have truncated boundary neighborhoods).

    Built in label order over non-discarded candidates: each is kept iff
    it covers something still uncovered and the search can finish an
    optimum from later candidates. This equals enumerate-then-filter
    without the full enumeration; `budget` caps search nodes.
    """
    target = _vertex_set(g, target, "target")
    inst = _Instance(g, target)
    nodes = _Nodes(budget, "best_minimum_dominating_set", len(target))
    m = len(_solve(inst, nodes))
    discard = strictly_dominated(g, within=compare)
    allowed = [c for c in inst.cands if inst.labels[c] not in discard]
    cover = inst.cover
    suffix = [0] * (len(allowed) + 1)
    for p in range(len(allowed) - 1, -1, -1):
        suffix[p] = suffix[p + 1] | cover[allowed[p]]
    chosen: list[int] = []
    rem = inst.target_mask
    for p, c in enumerate(allowed):
        rest = rem & ~cover[c]
        if rest == rem or rest & ~suffix[p + 1]:
            continue
        if rest and _search(cover, allowed[p + 1 :], rest, m - len(chosen) - 1, nodes) is None:
            continue
        chosen.append(c)
        rem = rest
        if not rem:
            break
    if rem or len(chosen) != m:
        raise InvariantError("no minimum dominating set avoids all strictly dominated vertices")
    return inst.to_labels(chosen)

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


class _Instance:
    """Bitmask view of one subset-domination instance."""

    __slots__ = ("labels", "target_mask", "cands", "cover")

    def __init__(self, g: LabeledGraph, target: VertexSet):
        self.labels = g.labels
        pos = {v: i for i, v in enumerate(self.labels)}
        tmask = 0
        for v in target:
            tmask |= 1 << pos[v]
        self.target_mask = tmask
        self.cover: dict[int, int] = {}
        for i, v in enumerate(self.labels):
            m = 1 << i
            for w in g.neighbors(v):
                m |= 1 << pos[w]
            if m & tmask:
                self.cover[i] = m & tmask
        self.cands = list(self.cover)

    def to_labels(self, indices: Iterable[int]) -> VertexSet:
        return frozenset(self.labels[i] for i in indices)


class _Nodes:
    """Search nodes one query has used, against its budget."""

    __slots__ = ("budget", "used")

    def __init__(self, budget: int):
        self.budget = budget
        self.used = 0


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


def _reduce(inst: _Instance) -> tuple[list[int], dict[int, int], int]:
    """Standard lossless set-cover reductions for size/witness search.

    Drops a target vertex whose coverer set contains another's (covering
    the harder vertex covers it for free) and a candidate whose coverage is
    contained in another's (the container can always stand in for it).
    Neither changes the optimum size, and any witness over the reduced
    instance dominates the full target. Enumeration never uses this.
    """
    cands = list(inst.cands)
    cover = dict(inst.cover)
    tmask = inst.target_mask
    changed = True
    while changed:
        changed = False
        coverers = {b: 0 for b in _bits(tmask)}
        for ci, c in enumerate(cands):
            for b in _bits(cover[c] & tmask):
                coverers[b] |= 1 << ci
        bits = sorted(coverers)
        for b in bits:
            if not tmask >> b & 1:
                continue
            for b2 in bits:
                if b2 == b or not tmask >> b2 & 1:
                    continue
                sup, sub = coverers[b], coverers[b2]
                if sub | sup == sup and (sub != sup or b2 < b):
                    tmask &= ~(1 << b)
                    changed = True
                    break
        kept = []
        for c in cands:
            cv = cover[c] & tmask
            if any(
                (cv | (cover[d] & tmask) == cover[d] & tmask) and (cv != cover[d] & tmask or d < c)
                for d in cands
                if d != c
            ):
                changed = True
                continue
            kept.append(c)
        cands = kept
        cover = {c: cover[c] & tmask for c in cands}
    return cands, cover, tmask


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
    degree = {b: len(d) for b, d in dominators.items()}
    best = None
    stack = [(rem, (), 0)]  # (uncovered, chosen, banned candidates as a mask)
    while stack:
        rem, chosen, banned = stack.pop()
        count = len(chosen)
        nodes.used += 1
        if nodes.used > nodes.budget:
            raise EnumerationBudgetError(f"exact search exceeded {nodes.budget} nodes")
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
        gain = 0
        for m, size in zip(masks, sizes):
            if size <= gain:
                break  # `order` is by static coverage, which bounds every later gain
            g = (m & rem).bit_count()
            if g > gain:
                gain = g
        if not gain or count - (-rem.bit_count() // gain) > limit:
            continue
        b = min(_bits(rem), key=degree.__getitem__)
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
    return len(_solve(_Instance(g, target), _Nodes(budget)))


def minimum_dominating_set(g: LabeledGraph, target: Iterable[int], *, budget: int = DEFAULT_BUDGET) -> VertexSet:
    """One exact minimum dominating set of `target`; deterministic for fixed inputs."""
    target = _vertex_set(g, target, "target")
    inst = _Instance(g, target)
    return inst.to_labels(_solve(inst, _Nodes(budget)))


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
    nodes = _Nodes(budget)
    found: list[tuple[int, ...]] = []
    _search(inst.cover, inst.cands, inst.target_mask, len(_solve(inst, nodes)), nodes, found)
    return sorted((inst.to_labels(s) for s in found), key=sorted)


def strictly_dominated(g: LabeledGraph, within: Iterable[int] | None = None) -> VertexSet:
    """Vertices v with some w such that N[v] is strictly contained in N[w].

    When `within` is given, both v and w range over it only; by default
    they range over the whole graph.
    """
    scope = sorted(_vertex_set(g, within, "within")) if within is not None else list(g.labels)
    closed = {v: g.closed_neighborhood(v) for v in scope}
    out = set()
    for v in scope:
        cv = closed[v]
        for w in scope:
            cw = closed[w]
            if cv != cw and cv <= cw:
                out.add(v)
                break
    return frozenset(out)


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
    nodes = _Nodes(budget)
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

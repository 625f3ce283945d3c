"""Exact subset-domination oracles.

All searches here are exact: they return provably optimal answers or raise
:class:`EnumerationBudgetError`; nothing is ever silently truncated. The
candidate pool is restricted to the closed neighborhood of the target,
which loses nothing: a vertex outside N[target] covers no target vertex,
so no minimum dominating set of the target can contain one.

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

    __slots__ = ("labels", "pos", "closed", "target_mask", "cands", "cover", "max_cover", "dominators")

    def __init__(self, g: LabeledGraph, target: VertexSet):
        self.labels = g.labels
        self.pos = {v: i for i, v in enumerate(self.labels)}
        closed = []
        for v in self.labels:
            m = 1 << self.pos[v]
            for w in g.neighbors(v):
                m |= 1 << self.pos[w]
            closed.append(m)
        self.closed = closed
        tmask = 0
        for v in target:
            tmask |= 1 << self.pos[v]
        self.target_mask = tmask
        self.cands = [i for i in range(len(self.labels)) if closed[i] & tmask]
        self.cover = {i: closed[i] & tmask for i in self.cands}
        self.max_cover = max((c.bit_count() for c in self.cover.values()), default=1)
        # Candidates per target vertex, best static coverage first; ties by label rank.
        order = sorted(self.cands, key=lambda i: (-self.cover[i].bit_count(), i))
        self.dominators = {b: [i for i in order if self.cover[i] >> b & 1] for b in _bits(tmask)}

    def to_labels(self, indices: Iterable[int]) -> VertexSet:
        return frozenset(self.labels[i] for i in indices)


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


def _solve(inst: _Instance, node_budget: int) -> tuple[int, tuple[int, ...]]:
    """Exact minimum cover size plus one optimal solution (candidate indices).

    Branch and bound after lossless reductions: branch on an uncovered
    target vertex with the fewest candidate dominators; prune with the
    cover-count lower bound ceil(|uncovered| / best remaining coverage).
    """
    if inst.target_mask == 0:
        return 0, ()
    greedy = _greedy(inst)
    cands, cover, tmask = _reduce(inst)
    order = sorted(cands, key=lambda i: (-cover[i].bit_count(), i))
    dominators = {b: [c for c in order if cover[c] >> b & 1] for b in _bits(tmask)}
    best_size = len(greedy)
    best_sol = tuple(greedy)
    nodes = 0

    def dfs(covered: int, chosen: list[int]) -> None:
        nonlocal best_size, best_sol, nodes
        nodes += 1
        if nodes > node_budget:
            raise EnumerationBudgetError(f"minimum-cover search exceeded {node_budget} nodes")
        rem = tmask & ~covered
        if not rem:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_sol = tuple(chosen)
            return
        best_gain = 0
        for c in cands:
            gain = (cover[c] & rem).bit_count()
            if gain > best_gain:
                best_gain = gain
        need = -(-rem.bit_count() // best_gain)
        if len(chosen) + need >= best_size:
            return
        b = min(_bits(rem), key=lambda bb: len(dominators[bb]))
        for c in dominators[b]:
            chosen.append(c)
            dfs(covered | cover[c], chosen)
            chosen.pop()

    dfs(0, [])
    return best_size, best_sol


def mds_size(g: LabeledGraph, target: Iterable[int], *, budget: int = DEFAULT_BUDGET) -> int:
    """Exact minimum number of vertices of g whose closed neighborhoods cover `target`."""
    target = _vertex_set(g, target, "target")
    size, _ = _solve(_Instance(g, target), budget)
    return size


def minimum_dominating_set(g: LabeledGraph, target: Iterable[int], *, budget: int = DEFAULT_BUDGET) -> VertexSet:
    """One exact minimum dominating set of `target`; deterministic for fixed inputs."""
    target = _vertex_set(g, target, "target")
    inst = _Instance(g, target)
    _, sol = _solve(inst, budget)
    return inst.to_labels(sol)


def all_minimum_dominating_sets(
    g: LabeledGraph, target: Iterable[int], *, budget: int = DEFAULT_BUDGET
) -> list[VertexSet]:
    """Every minimum dominating set of `target`, canonically sorted.

    `budget` caps search nodes, in the size search and again in the
    enumeration; every optimum is a leaf node, so it also caps their
    number. Exceeding it raises EnumerationBudgetError rather than
    truncating.
    """
    target = _vertex_set(g, target, "target")
    inst = _Instance(g, target)
    if inst.target_mask == 0:
        return [frozenset()]
    m, _ = _solve(inst, budget)
    found: list[VertexSet] = []
    nodes = 0

    # Partition the solution space by the first chosen dominator of the
    # branch vertex: branch i keeps dominator i and bans dominators 0..i-1,
    # so every optimal set is produced exactly once.
    def enum(covered: int, chosen: list[int], banned: frozenset[int]) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise EnumerationBudgetError(f"enumeration search exceeded {budget} nodes")
        rem = inst.target_mask & ~covered
        if not rem:
            if len(chosen) != m:
                raise InvariantError("enumeration found a cover smaller than the optimum")
            found.append(inst.to_labels(chosen))
            return
        slots = m - len(chosen)
        if slots == 0:
            return
        if -(-rem.bit_count() // inst.max_cover) > slots:
            return
        doms_by_bit = {b: [c for c in inst.dominators[b] if c not in banned] for b in _bits(rem)}
        b = min(doms_by_bit, key=lambda bb: len(doms_by_bit[bb]))
        tried: set[int] = set()
        for c in doms_by_bit[b]:
            chosen.append(c)
            enum(covered | inst.cover[c], chosen, banned | tried | {c})
            chosen.pop()
            tried.add(c)

    enum(0, [], frozenset())
    return sorted(found, key=sorted)


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

    Found by branch and bound in lexicographic order over non-discarded
    candidates, which is equivalent to enumerate-then-filter but does not
    pay for the full enumeration; `budget` caps search nodes.
    """
    target = _vertex_set(g, target, "target")
    inst = _Instance(g, target)
    if inst.target_mask == 0:
        return frozenset()
    m, _ = _solve(inst, budget)
    discard = strictly_dominated(g, within=compare)
    allowed = [c for c in inst.cands if inst.labels[c] not in discard]
    cover = inst.cover
    suffix = [0] * (len(allowed) + 1)
    for p in range(len(allowed) - 1, -1, -1):
        suffix[p] = suffix[p + 1] | cover[allowed[p]]
    max_cover = max((cover[c].bit_count() for c in allowed), default=1)
    nodes = 0

    def dfs(start: int, covered: int, count: int) -> tuple[int, ...] | None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise EnumerationBudgetError(f"best-set search exceeded {budget} nodes")
        rem = inst.target_mask & ~covered
        if not rem:
            return ()
        if count == m:
            return None
        if rem & ~suffix[start]:
            return None
        if -(-rem.bit_count() // max_cover) > m - count:
            return None
        for p in range(start, len(allowed)):
            c = allowed[p]
            if not cover[c] & rem:
                continue  # would be redundant in any completion; no optimum contains it
            sub = dfs(p + 1, covered | cover[c], count + 1)
            if sub is not None:
                return (c,) + sub
        return None

    sol = dfs(0, 0, 0)
    if sol is None or len(sol) != m:
        raise InvariantError("no minimum dominating set avoids all strictly dominated vertices")
    return inst.to_labels(sol)

"""Planarity decision and pluggable graph-class predicates.

`is_planar` is the left-right (LR) planarity test of de Fraysseix,
Ossona de Mendez & Rosenstiehl (*Trémaux trees and planarity*, 2006), in
the formulation of Brandes (*The Left-Right Planarity Test*, 2009). It
returns the verdict only, which is all algorithm B needs ("no preliminary
embedding of the graph"): it builds no embedding and keeps none of the
edge sides, signs or alignments that one would need. Two depth-first
searches, both iterative so that long paths cost no recursion depth, read
the graph's own adjacency: the first orients the edges and computes
lowpoints, the second tests the left-right constraints over one stack of
conflict pairs. A vertex is its rank among the labels and each oriented
edge an integer id into flat lists, so a run allocates no per-edge objects.

The test suite checks the verdict against networkx's `check_planarity`
(an independent implementation, used only by the tests) on random, corpus
and large graphs, and against a slow search for complete and
complete-bipartite subdivisions on small graphs.

Class predicates are assumed to describe isomorphism-closed, hereditary
graph classes; neither property is checked. Algorithm B's error detection
relies on heredity: it tests each connected component whole and looks at
single vertices' views only inside components that fail.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

from .graph import LabeledGraph


def is_planar(g: LabeledGraph) -> bool:
    """True iff g embeds in the plane (each component embedded independently)."""
    n, m = g.n, g.m
    if n > 2 and m > 3 * n - 6:
        return False
    if n <= 4 or m <= 8:  # K3,3 has 9 edges and K5 has 10
        return True
    return _lr_test(g)


def _lr_test(g: LabeledGraph) -> bool:
    # Orientation: a DFS orients each edge away from the root (tree edges)
    # or towards it (back edges) and computes the lowpoints. Vertices are
    # their ranks in g.labels; edge id 0 is the "no edge" sentinel of every
    # per-edge list.
    labels, n = g.labels, g.n
    rank = range(n) if g.is_canonical() else {v: i for i, v in enumerate(labels)}
    width = 2 * n  # nesting depth < width, so src * width + depth sorts by (src, depth)
    height, parent_edge, out_degree = [-1] * n, [0] * n, [0] * n
    src, tgt, lowpt, lowpt2, nesting = [-1], [-1], [0], [0], [0]
    roots: list[int] = []
    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        roots.append(root)
        vertices, scans = [root], [iter(g.neighbors(labels[root]))]
        while vertices:
            v = vertices[-1]
            hv, e = height[v], parent_edge[v]
            parent = src[e]
            for x in scans[-1]:
                w = rank[x]
                hw = height[w]
                if hw < 0:  # tree edge v -> w: descend
                    parent_edge[w] = len(src)
                    height[w] = hv + 1
                    src.append(v)
                    tgt.append(w)
                    lowpt.append(hv)
                    lowpt2.append(hv)
                    nesting.append(0)
                    out_degree[v] += 1
                    vertices.append(w)
                    scans.append(iter(g.neighbors(x)))
                    break
                if hw < hv and w != parent:  # back edge v -> ancestor w
                    src.append(v)
                    tgt.append(w)
                    lowpt.append(hw)
                    lowpt2.append(hv)
                    nesting.append(v * width + 2 * hw)
                    out_degree[v] += 1
                    if hw < lowpt[e]:
                        lowpt2[e] = lowpt[e]
                        lowpt[e] = hw
                    elif lowpt[e] < hw < lowpt2[e]:
                        lowpt2[e] = hw
            else:  # v is finished: fold its parent edge e into the grandparent edge
                vertices.pop()
                scans.pop()
                if e:
                    lp, lp2 = lowpt[e], lowpt2[e]
                    nesting[e] = parent * width + 2 * lp + (lp2 < hv - 1)
                    f = parent_edge[parent]
                    if f:
                        if lp < lowpt[f]:
                            lowpt2[f] = min(lowpt[f], lp2)
                            lowpt[f] = lp
                        elif lp > lowpt[f]:
                            lowpt2[f] = min(lowpt2[f], lp)
                        else:
                            lowpt2[f] = min(lowpt2[f], lp2)

    # Each vertex's outgoing edges, ordered by nesting depth, as one list:
    # vertex v's run is order[first[v]:first[v + 1]].
    order = sorted(range(1, len(src)), key=nesting.__getitem__)
    first = [0, *accumulate(out_degree)]
    return _constraints_hold(roots, order, first, src, tgt, height, parent_edge, lowpt)


def _constraints_hold(roots, order, first, src, tgt, height, parent_edge, lowpt) -> bool:
    # Testing: a second DFS in nesting order keeps one stack of conflict
    # pairs, as in Brandes. A pair is a left and a right interval of return
    # edges, each given by its (low, high) edge ids, 0 when empty, and is
    # stored whole as the tuple (left low, left high, right low, right high).
    # ref links each interval's edges from high to low across merges; the
    # references that only fix sides for an embedding are not kept.
    ref, stack_bottom = [0] * len(src), [0] * len(src)
    stack: list[tuple[int, int, int, int]] = []

    def conflicting(low: int, high: int, b: int) -> bool:
        # the interval (low, high) holds a return edge above edge b's lowpoint
        return (low or high) and lowpt[high] > lowpt[b]

    def add_constraints(ei: int, e: int) -> bool:
        # merge the return edges of ei into the right interval of a new pair
        pll = plh = prl = prh = 0
        bottom, lp_e = stack_bottom[ei], lowpt[e]
        while True:
            qll, qlh, qrl, qrh = stack.pop()
            if qll or qlh:
                qll, qlh, qrl, qrh = qrl, qrh, qll, qlh
            if qll or qlh:
                return False
            if lowpt[qrl] > lp_e:
                if prl or prh:
                    ref[prl] = qrh
                else:
                    prh = qrh
                prl = qrl
            if len(stack) == bottom:
                break
        # merge the conflicting return edges of ei's earlier siblings into the left interval
        while conflicting(stack[-1][0], stack[-1][1], ei) or conflicting(stack[-1][2], stack[-1][3], ei):
            qll, qlh, qrl, qrh = stack.pop()
            if conflicting(qrl, qrh, ei):
                qll, qlh, qrl, qrh = qrl, qrh, qll, qlh
            if conflicting(qrl, qrh, ei):
                return False
            ref[prl] = qrh
            if qrl:
                prl = qrl
            if pll or plh:
                ref[pll] = qlh
            else:
                plh = qlh
            pll = qll
        if pll or plh or prl or prh:
            stack.append((pll, plh, prl, prh))
        return True

    def remove_back_edges(u: int) -> None:
        # drop the return edges that end at u, whole pairs first
        hu = height[u]
        while stack:
            ll, lh, rl, rh = stack[-1]
            if not (ll or lh):
                lowest = lowpt[rl]
            elif not (rl or rh):
                lowest = lowpt[ll]
            else:
                lowest = min(lowpt[ll], lowpt[rl])
            if lowest != hu:
                break
            stack.pop()
        if stack:
            ll, lh, rl, rh = stack[-1]
            while lh and tgt[lh] == u:
                lh = ref[lh]
            while rh and tgt[rh] == u:
                rh = ref[rh]
            stack[-1] = ll if lh else 0, lh, rl if rh else 0, rh  # an interval trimmed of its high edge is empty

    pos = first[:]
    for root in roots:
        vertices = [root]
        while vertices:
            v = vertices[-1]
            e, i, end = parent_edge[v], pos[v], first[v + 1]
            while i < end:
                ei = order[i]
                stack_bottom[ei] = len(stack)
                w = tgt[ei]
                if parent_edge[w] == ei:  # tree edge: descend, integrate ei when w is done
                    pos[v] = i
                    vertices.append(w)
                    break
                # back edge: it returns below v; like any edge of v but the
                # first in nesting order, its return edges add constraints
                stack.append((0, 0, ei, ei))
                if i != first[v] and not add_constraints(ei, e):
                    return False
                i += 1
            else:
                vertices.pop()
                if e:
                    u = src[e]
                    remove_back_edges(u)
                    if lowpt[e] < height[u] and pos[u] != first[u] and not add_constraints(e, parent_edge[u]):
                        return False
                    pos[u] += 1
    return True


@dataclass(frozen=True)
class ClassPredicate:
    """Deterministic membership test for a hereditary graph class.

    The test must be isomorphism-invariant: the composition caches each
    verdict under the order-preserving ranked form of the graph it judged,
    so isomorphic views share one answer. The class must be hereditary:
    `composition.error_set` clears every vertex of a connected component
    that passes the test without testing their views, so under a
    non-hereditary test a vertex whose view fails inside a passing
    component is not flagged, and the error set can be smaller than the
    per-vertex `t_error_set`.
    """

    name: str
    test: Callable[[LabeledGraph], bool]


PLANAR = ClassPredicate("planar", is_planar)

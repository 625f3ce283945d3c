"""Planarity decision and pluggable graph-class predicates.

The tester is networkx's left-right planarity test over a DFS
orientation. `check_planarity` builds a combinatorial embedding on every
call, even though only the boolean verdict is used here. The test suite
validates the tester against an independent slow search for complete and
complete-bipartite subdivisions on small graphs.

Class predicates are assumed to describe isomorphism-closed, hereditary
graph classes; neither property is checked. Algorithm B's error detection
relies on heredity: it tests each connected component whole and looks at
single vertices' views only inside components that fail.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import networkx as nx

from .graph import LabeledGraph


def is_planar(g: LabeledGraph) -> bool:
    """True iff g embeds in the plane (each component embedded independently)."""
    h = nx.Graph()
    h.add_nodes_from(g.labels)
    h.add_edges_from(g.edges())
    ok, _ = nx.check_planarity(h, counterexample=False)
    return ok


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

    def __call__(self, g: LabeledGraph) -> bool:
        return self.test(g)


PLANAR = ClassPredicate("planar", is_planar)

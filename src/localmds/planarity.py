"""Planarity decision and pluggable graph-class predicates.

The tester is networkx's left-right planarity test over a DFS
orientation. `check_planarity` builds a combinatorial embedding on every
call, even though only the boolean verdict is used here. The test suite
validates the tester against an independent slow search for complete and
complete-bipartite subdivisions on small graphs.

Class predicates are assumed to describe isomorphism-closed, hereditary
graph classes; neither property is checked.
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
    verdict under the order-preserving ranked form of the view it judged,
    so isomorphic views share one answer.
    """

    name: str
    test: Callable[[LabeledGraph], bool]

    def __call__(self, g: LabeledGraph) -> bool:
        return self.test(g)


PLANAR = ClassPredicate("planar", is_planar)

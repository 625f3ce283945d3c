"""Differential property tests: the fast paths against the slow references
in `reference.py`, and the view executor against the flooding executor, on
small graphs drawn by hypothesis (see the settings profile in conftest.py)."""
from hypothesis import given
from hypothesis import strategies as st

from localmds import (
    LabeledGraph,
    LocalAlgorithm,
    all_minimum_dominating_sets,
    best_minimum_dominating_set,
    mds_size,
    minimum_dominating_set,
    run_by_messages,
    run_by_views,
)
from reference import exhaustive_all_mds, exhaustive_mds_size, strictly_dominated_by_pairs


@st.composite
def graphs(draw):
    """A graph on 1 to 10 vertices."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return LabeledGraph.from_edges(n, [e for e, keep in zip(pairs, present) if keep])


@st.composite
def domination_instances(draw):
    """A graph on at most 10 vertices, a target, and a `compare` scope or None."""
    g = draw(graphs())
    vertex = st.integers(0, g.n - 1)
    return g, draw(st.frozensets(vertex)), draw(st.none() | st.frozensets(vertex))


@given(domination_instances())
def test_domination_oracles_agree_with_exhaustion(instance):
    g, target, compare = instance
    optima = exhaustive_all_mds(g, target)
    assert mds_size(g, target) == exhaustive_mds_size(g, target)
    assert minimum_dominating_set(g, target) in optima
    assert set(all_minimum_dominating_sets(g, target)) == optima
    # the best set: the lexicographic minimum of the optima that avoid every
    # vertex strictly dominated within `compare`
    discard = strictly_dominated_by_pairs(g, compare)
    survivors = [s for s in optima if not s & discard]
    assert best_minimum_dominating_set(g, target, compare=compare) == min(survivors, key=sorted)


def _whole_view(view):
    # edges() order follows how a graph was built, so compare them sorted
    return view.vertices, tuple(sorted(view.subgraph.edges())), tuple(sorted(view.dist.items()))


@given(graphs(), st.integers(0, 3))
def test_flooded_views_equal_direct_views(g, radius):
    alg = LocalAlgorithm("whole-view", radius, _whole_view)
    assert run_by_views(g, alg) == run_by_messages(g, alg)[0]

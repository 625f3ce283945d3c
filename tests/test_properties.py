"""Differential property tests: the fast paths against the slow references
in `reference.py`, on small graphs drawn by hypothesis (see the settings
profile in conftest.py)."""
from hypothesis import given
from hypothesis import strategies as st

from localmds import (
    LabeledGraph,
    all_minimum_dominating_sets,
    best_minimum_dominating_set,
    mds_size,
    minimum_dominating_set,
)
from reference import exhaustive_all_mds, exhaustive_mds_size, strictly_dominated_by_pairs


@st.composite
def domination_instances(draw):
    """A graph on at most 10 vertices, a target, and a `compare` scope or None."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = LabeledGraph.from_edges(n, [e for e, keep in zip(pairs, present) if keep])
    vertex = st.integers(0, n - 1)
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

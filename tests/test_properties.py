"""Differential property tests: the fast paths against the slow references
in `reference.py`, the planarity tester against networkx's, the search's
packing bound against exhaustion, the view executor against the flooding
executor, and B's component-first error set against the per-vertex one, on
small graphs drawn by hypothesis (see the settings profile in conftest.py)."""
import itertools
import random
import sys
from types import CodeType

from hypothesis import example, given
from hypothesis import strategies as st

from localmds import (
    PLANAR,
    ClassPredicate,
    LabeledGraph,
    LocalAlgorithm,
    all_minimum_dominating_sets,
    ball,
    best_minimum_dominating_set,
    is_planar,
    mds_size,
    minimum_dominating_set,
    ranked_form,
    run_by_messages,
    run_by_views,
    t_error_set,
)
from localmds.composition import component_error_set
from localmds.domination import _closed_masks, _packing, _union
from localmds.planarity import _constraints_hold, _lr_test
from conftest import disjoint_union, random_graph
from reference import (
    decode,
    exhaustive_all_mds,
    exhaustive_mds_size,
    networkx_is_planar,
    ranked_edges,
    strictly_dominated_by_pairs,
)


@st.composite
def graphs(draw):
    """A graph on 1 to 10 vertices."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return LabeledGraph.from_edges(n, [e for e, keep in zip(pairs, present) if keep])


@st.composite
def unions(draw):
    """One graph from `graphs()`, or the disjoint union of two."""
    g = draw(graphs())
    if not draw(st.booleans()):
        return g
    return disjoint_union(g, draw(graphs()))


@st.composite
def sparse_labeled_graphs(draw):
    """Up to 12 vertices with distinct labels from 0..99 and at most 3n edges,
    all inside one of up to three blocks: isolated vertices and several
    components are common."""
    labels = draw(st.lists(st.integers(0, 99), max_size=12, unique=True))
    blocks = draw(st.integers(1, 3))
    block = {v: draw(st.integers(0, blocks - 1)) for v in labels}
    pairs = [(u, v) for u, v in itertools.combinations(labels, 2) if block[u] == block[v]]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=3 * len(labels))) if pairs else set()
    adj: dict[int, set[int]] = {v: set() for v in labels}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return LabeledGraph(adj)


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


# two graphs on 7 vertices whose searches reach the tester's rarer branches:
# the first fails when a back edge conflicts with both sides, the second
# empties a right interval while trimming
PINNED_PLANARITY_GRAPHS = [
    LabeledGraph.from_edges(7, [(0, 2), (0, 6), (1, 2), (1, 3), (1, 5), (2, 4), (3, 4), (3, 6), (4, 5), (5, 6)]),
    LabeledGraph.from_edges(7, [(0, 1), (0, 4), (0, 5), (1, 2), (1, 4), (2, 3), (2, 6), (3, 4), (3, 6), (5, 6)]),
]


@example(PINNED_PLANARITY_GRAPHS[0])
@example(PINNED_PLANARITY_GRAPHS[1])
@given(sparse_labeled_graphs())
def test_planarity_verdict_equals_networkx(g):
    # the left-right test itself too, past the early exits on edge counts
    assert is_planar(g) == _lr_test(g) == networkx_is_planar(g)


def test_planarity_examples_reach_every_line_of_the_testing_pass():
    # the differential test above is what checks the testing pass's
    # failure paths, so the pinned graphs and small graphs like its draws
    # must still execute every line of _constraints_hold and its helpers
    codes = {_constraints_hold.__code__, *(c for c in _constraints_hold.__code__.co_consts if isinstance(c, CodeType))}
    rng = random.Random(0)
    sample = [random_graph(rng.randrange(5, 13), rng.uniform(0.2, 0.6), rng) for _ in range(60)]
    ran = set()

    def trace_line(frame, event, arg):
        ran.add((frame.f_code, frame.f_lineno))
        return trace_line

    def trace_call(frame, event, arg):
        return trace_line(frame, event, arg) if frame.f_code in codes else None

    previous = sys.gettrace()
    sys.settrace(trace_call)
    try:
        for g in PINNED_PLANARITY_GRAPHS + sample:
            _lr_test(g)
    finally:
        sys.settrace(previous)
    lines = {(c, line) for c in codes for _, _, line in c.co_lines() if line is not None}
    assert sorted(line for _, line in lines - ran) == []


@given(graphs(), st.data())
def test_packing_bound_never_exceeds_the_optimum(g, data):
    # the search prunes a node when this bound exceeds the members it may
    # still add, so a bound above the fewest free candidates that cover
    # `rem` would prune covers away; it must hold for any class order
    closed = [sum(1 << w for w in g.closed_neighborhood(v)) for v in g.labels]
    assert _closed_masks(g)[1] == closed
    mask = st.integers(0, (1 << g.n) - 1)
    rem, live, banned = data.draw(mask), data.draw(mask), data.draw(mask)
    free = live & ~banned
    label = data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
    classes = [sum(1 << v for v in g.labels if label[v] == k) for k in range(4)]
    reach = {u: _union(closed, closed[u] & live) for u in g.labels}
    members = [c for c in g.labels if free >> c & 1]
    uncovered = {v for v in g.labels if rem >> v & 1}
    sizes = [
        size
        for size in range(len(members) + 1)
        for chosen in itertools.combinations(members, size)
        if uncovered <= set().union(*(g.closed_neighborhood(c) for c in chosen))
    ]
    room = data.draw(st.integers(0, g.n))
    assert _packing(closed, classes, rem, free, reach, room) <= min(sizes + [room + 1])


@given(graphs(), st.data())
def test_ranked_form_of_ball_equals_ranked_form_of_its_subgraph(g, data):
    # a view's form is read off the host, restricted to the ball
    view = ball(g, data.draw(st.integers(0, g.n - 1)), data.draw(st.integers(0, 3)))
    assert ranked_form(view) == ranked_form(view.subgraph)


@given(graphs(), st.data())
def test_packed_ranked_form_decodes_to_the_ranked_edges(g, data):
    # under labels that are not 0..n-1, and for every ball view of the result
    labels = data.draw(st.lists(st.integers(-300, 70000), min_size=g.n, max_size=g.n, unique=True))
    h = LabeledGraph({labels[v]: [labels[w] for w in g.neighbors(v)] for v in g.labels})
    form = ranked_form(h)
    assert form[0] == tuple(sorted(labels))
    assert decode(h.n, form[1]) == ranked_edges(h)
    view = ball(h, data.draw(st.sampled_from(labels)), data.draw(st.integers(0, 3)))
    vertices, code = ranked_form(view)
    assert vertices == view.subgraph.labels
    assert decode(len(vertices), code) == ranked_edges(view.subgraph)


def _whole_view(view):
    # edges() order follows how a graph was built, so compare them sorted;
    # a view's ranked form is read off the host, so check it against the built subgraph
    assert ranked_form(view) == ranked_form(view.subgraph)
    return view.vertices, tuple(sorted(view.subgraph.edges())), tuple(sorted(view.dist.items())), ranked_form(view)


@given(graphs(), st.integers(0, 3))
def test_flooded_views_equal_direct_views(g, radius):
    alg = LocalAlgorithm("whole-view", radius, _whole_view)
    assert run_by_views(g, alg) == run_by_messages(g, alg)[0]


MAX_DEGREE_TWO = ClassPredicate("max-degree-2", lambda h: all(h.degree(v) <= 2 for v in h.labels))


@given(unions(), st.sampled_from([PLANAR, MAX_DEGREE_TWO]))
def test_component_error_set_equals_per_vertex_reference(g, predicate):
    # exact for hereditary classes; the draws include disconnected and
    # non-planar graphs, and components of both kinds side by side
    for radius in range(5):
        assert component_error_set(g, predicate, radius) == t_error_set(g, predicate, radius)

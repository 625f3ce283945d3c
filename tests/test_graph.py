import pytest

from conftest import cycle, grid, path, random_graph, star
from localmds import (
    InputError,
    LabeledGraph,
    ball,
    components,
    distances,
    neighborhood,
    ranked_form,
    read_edge_list,
    read_vertex_set,
    weak_diameter,
    write_edge_list,
    write_vertex_set,
)
from localmds.graph import vertex_set
from reference import enumerated_distances


class TestConstruction:
    def test_from_edges_basic(self):
        g = LabeledGraph.from_edges(3, [(0, 1), (1, 2)])
        assert g.n == 3 and g.m == 2
        assert g.labels == (0, 1, 2)
        assert g.neighbors(1) == {0, 2}
        assert g.closed_neighborhood(1) == {0, 1, 2}
        assert list(g.edges()) == [(0, 1), (1, 2)]
        assert g.is_canonical()

    def test_rejects_loops(self):
        with pytest.raises(InputError):
            LabeledGraph.from_edges(2, [(0, 0)])

    def test_rejects_duplicate_edges(self):
        # either orientation, and the same orientation twice
        for edges, message in (
            ([(0, 1), (1, 0)], "0-1"),
            ([(1, 0), (0, 1)], "0-1"),
            ([(0, 1), (0, 1)], "0-1"),
            ([(2, 1), (2, 1)], "1-2"),
        ):
            with pytest.raises(InputError, match=f"^duplicate edge {message}$"):
                LabeledGraph.from_edges(3, edges)

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            LabeledGraph.from_edges(2, [(0, 2)])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(InputError):
            LabeledGraph({0: {1}, 1: set()})

    def test_induced_preserves_labels(self):
        g = path(5)
        sub = g.induced({1, 2, 3})
        assert sub.labels == (1, 2, 3)
        assert sub.neighbors(2) == {1, 3}
        assert not sub.is_canonical()

    def test_induced_names_the_stray_vertex(self):
        with pytest.raises(InputError, match="^vertex set contains 99, which is not a vertex$"):
            path(5).induced({1, 99})

    @pytest.mark.parametrize("n", [-1, 2.0, True, "3"])
    def test_rejects_bad_vertex_count(self, n):
        with pytest.raises(InputError, match="^vertex count must be"):
            LabeledGraph.from_edges(n)

    def test_equality(self):
        assert path(4) == LabeledGraph.from_edges(4, [(2, 3), (0, 1), (1, 2)])
        assert path(4) != cycle(4)


class TestDistances:
    def test_line_graph(self):
        assert distances(path(3), 0) == {0: 0, 1: 1, 2: 2}

    def test_single_vertex(self):
        assert distances(LabeledGraph.from_edges(1), 0) == {0: 0}

    def test_six_cycle_matches_path_enumeration(self):
        g = cycle(6)
        for source in g.labels:
            assert distances(g, source) == enumerated_distances(g, source)
        assert distances(g, 0)[3] == 3

    def test_unknown_source(self):
        with pytest.raises(InputError):
            distances(path(3), 7)

    def test_unreachable_absent(self):
        g = LabeledGraph.from_edges(4, [(0, 1), (2, 3)])
        assert set(distances(g, 0)) == {0, 1}

    def test_symmetry_and_triangle_inequality(self, rng):
        for trial in range(8):
            g = random_graph(rng.randrange(5, 50), 0.15, rng)
            dist = {v: distances(g, v) for v in g.labels}
            for u in g.labels:
                for v in dist[u]:
                    assert dist[v][u] == dist[u][v]
                    for w in dist[u]:
                        if w in dist[v]:
                            assert dist[u][w] <= dist[u][v] + dist[v][w]


class TestBall:
    def test_star_radius_one_is_whole_star(self):
        g = star(6)
        view = ball(g, 0, 1)
        assert view.subgraph == g
        assert view.dist == {0: 0, **{i: 1 for i in range(1, 7)}}

    def test_path_center(self):
        view = ball(path(5), 2, 1)
        assert view.vertices == (1, 2, 3)
        assert list(view.subgraph.edges()) == [(1, 2), (2, 3)]

    def test_grid_corner_staircase(self):
        # expected region computed independently: Manhattan distance <= 2
        g = grid(5, 5)
        expected = frozenset(i * 5 + j for i in range(5) for j in range(5) if i + j <= 2)
        view = ball(g, 0, 2)
        assert frozenset(view.vertices) == expected
        assert len(view.vertices) == 6

    def test_radius_zero(self):
        view = ball(path(3), 1, 0)
        assert view.vertices == (1,)
        assert view.subgraph.m == 0

    def test_negative_radius(self):
        with pytest.raises(InputError):
            ball(path(3), 1, -1)

    def test_radius_must_be_an_integer(self):
        # a fractional radius would silently act as the next whole one
        with pytest.raises(InputError, match="^radius must be an integer, got 1.5$"):
            ball(path(9), 4, 1.5)
        with pytest.raises(InputError, match="^radius must be an integer, got True$"):
            neighborhood(path(9), {4}, True)

    def test_monotone_in_radius(self, rng):
        for _ in range(5):
            g = random_graph(20, 0.12, rng)
            u = rng.choice(g.labels)
            for r in range(4):
                inner = set(ball(g, u, r).vertices)
                outer = set(ball(g, u, r + 1).vertices)
                assert inner <= outer

    def test_equals_neighbor_expansion_fixpoint(self, rng):
        for _ in range(5):
            g = random_graph(18, 0.15, rng)
            u = rng.choice(g.labels)
            r = rng.randrange(4)
            reach = {u}
            for _ in range(r):
                reach = set(neighborhood(g, reach, 1))
            assert set(ball(g, u, r).vertices) == reach

    def test_covering_view_is_the_host(self):
        # a ball that reaches every vertex is the host, not a copy of it
        g = grid(3, 4)
        assert ball(g, 0, 5).subgraph is g
        view = ball(g, 0, 4)
        assert view.subgraph is not g and view.subgraph == g.induced(view.dist)

    def test_ball_is_induced(self, rng):
        g = random_graph(25, 0.15, rng)
        view = ball(g, 3, 2)
        vs = set(view.vertices)
        for u in vs:
            assert view.subgraph.neighbors(u) == g.neighbors(u) & vs


class TestComponents:
    def test_two_isolated(self):
        g = LabeledGraph.from_edges(3, [(0, 1)])
        assert components(g, {0, 2}) == [frozenset({0}), frozenset({2})]

    def test_connected_whole(self):
        g = cycle(5)
        assert components(g, g.labels) == [frozenset(g.labels)]

    def test_six_cycle_split(self):
        assert components(cycle(6), {0, 1, 3, 4}) == [frozenset({0, 1}), frozenset({3, 4})]

    def test_membership_checked(self):
        with pytest.raises(InputError):
            components(path(3), {5})


class TestWeakDiameter:
    def test_singleton(self):
        assert weak_diameter(path(4), {2}) == 0

    def test_empty(self):
        assert weak_diameter(path(4), frozenset()) == 0

    def test_path_endpoints(self):
        assert weak_diameter(path(6), {0, 5}) == 5

    def test_chord_uses_host_distance(self):
        g = LabeledGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)])
        assert weak_diameter(g, {0, 3}) == 1

    def test_disconnected_error(self):
        g = LabeledGraph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(InputError):
            weak_diameter(g, {0, 2})

    def test_search_is_local(self):
        # each member's search stops at the level that reaches the set's last
        # member, so the lookups follow the set's spread, not the host's size
        class CountingGraph(LabeledGraph):
            lookups = 0

            def neighbors(self, v):
                self.lookups += 1
                return super().neighbors(v)

        g = CountingGraph.from_edges(10000, path(10000).edges())
        assert weak_diameter(g, {5000, 5001, 5003}) == 3
        assert 0 < g.lookups <= 20

    def test_at_most_diameter(self, rng):
        for _ in range(6):
            g = cycle(rng.randrange(4, 12))
            diam = max(max(distances(g, v).values()) for v in g.labels)
            s = frozenset(rng.sample(g.labels, rng.randrange(1, g.n)))
            assert weak_diameter(g, s) <= diam


class TestAgainstEnumeration:
    """The BFS-based primitives against distances from simple-path enumeration,
    on small random graphs that are often disconnected."""

    @staticmethod
    def cases(rng):
        for _ in range(12):
            g = random_graph(rng.randrange(1, 10), rng.choice((0.1, 0.2, 0.4)), rng)
            yield g, {v: enumerated_distances(g, v) for v in g.labels}

    def test_multi_source_neighborhood(self, rng):
        for g, dist in self.cases(rng):
            for r in range(4):
                seeds = rng.sample(g.labels, rng.randrange(0, min(3, g.n) + 1))
                expected = frozenset(w for s in seeds for w, d in dist[s].items() if d <= r)
                assert neighborhood(g, seeds, r) == expected

    def test_components_partition(self, rng):
        for g, _ in self.cases(rng):
            within = frozenset(v for v in g.labels if rng.random() < 0.7)
            comps = components(g, within)
            assert frozenset().union(*comps) == within
            assert sum(len(c) for c in comps) == len(within)
            assert [min(c) for c in comps] == sorted(min(c) for c in comps)
            h = g.induced(within)
            for c in comps:
                assert frozenset(enumerated_distances(h, min(c))) == c
            part = {v: i for i, c in enumerate(comps) for v in c}
            assert all(part[u] == part[v] for u, v in h.edges())

    def test_weak_diameter(self, rng):
        for g, dist in self.cases(rng):
            s = frozenset(rng.sample(g.labels, rng.randrange(0, g.n + 1)))
            if all(w in dist[v] for v in s for w in s):
                expected = max((dist[v][w] for v in s for w in s), default=0)
                assert weak_diameter(g, s) == expected
            else:
                with pytest.raises(InputError):
                    weak_diameter(g, s)


class TestRankedForm:
    def test_identity_on_canonical(self):
        g = path(4)
        labels, edges = ranked_form(g)
        assert labels == (0, 1, 2, 3)
        assert edges == ((0, 1), (1, 2), (2, 3))

    def test_compacts_induced(self):
        g = path(6).induced({2, 3, 4})
        labels, edges = ranked_form(g)
        assert labels == (2, 3, 4)
        assert edges == ((0, 1), (1, 2))

    def test_covering_view_shares_the_hosts_form(self):
        # the host computes its form once; a view covering it returns that
        # same form, equal to one computed afresh on an uncached copy
        g = grid(3, 4)
        view = ball(g, 5, 5)
        assert ranked_form(view) is ranked_form(g)
        assert ranked_form(view) == ranked_form(LabeledGraph({v: g.neighbors(v) for v in g.labels}))
        part = ball(g, 5, 1)
        assert ranked_form(part) == ranked_form(g.induced(part.dist))

    def test_independent_of_edge_order(self):
        # 1 and 9 share a hash slot in a small set, so edges() follows the
        # build order; the ranked form must not
        g = LabeledGraph.from_edges(10, [(0, 1), (0, 9), (1, 2)])
        h = LabeledGraph.from_edges(10, [(1, 2), (0, 9), (0, 1)])
        assert g == h and list(g.edges()) != list(h.edges())
        assert ranked_form(g) == ranked_form(h)


class TestFileFormats:
    def test_edge_list_round_trip(self, tmp_path, rng):
        g = random_graph(15, 0.2, rng)
        p = tmp_path / "g.edges"
        write_edge_list(g, p)
        assert read_edge_list(p) == g

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# a comment\n\n3 2\n0 1\n\n# another\n1 2\n")
        assert read_edge_list(p) == path(3)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "3\n0 1\n",
            "3 2\n0 1\n",  # edge count mismatch
            "3 1\n1 0\n",  # u < v violated
            "3 1\n0 3\n",  # out of range
            "3 1\nx y\n",
        ],
    )
    def test_malformed_edge_lists(self, tmp_path, text):
        p = tmp_path / "bad.edges"
        p.write_text(text)
        with pytest.raises(InputError):
            read_edge_list(p)

    def test_non_canonical_graph_not_writable(self, tmp_path):
        with pytest.raises(InputError):
            write_edge_list(path(5).induced({1, 2}), tmp_path / "g.edges")

    def test_vertex_set_round_trip(self, tmp_path):
        p = tmp_path / "s.txt"
        write_vertex_set({4, 1, 7}, p)
        assert read_vertex_set(p) == {1, 4, 7}
        write_vertex_set(set(), p)
        assert read_vertex_set(p) == frozenset()


class TestVertexSet:
    def test_returns_a_frozenset(self):
        assert vertex_set(path(4), [3, 1, 3], "s") == frozenset({1, 3})

    def test_names_the_set_and_the_stray_member(self):
        with pytest.raises(InputError, match="^chosen contains 'x', which is not a vertex$"):
            vertex_set(path(4), [1, "x"], "chosen")

    @pytest.mark.parametrize("s, stray", [([True], "True"), ([2, False], "False"), ([1.0], "1.0")])
    def test_members_must_be_int_labels(self, s, stray):
        # True == 1 and 1.0 == 1, so they pass a plain membership test
        with pytest.raises(InputError, match=f"^s contains {stray}, which is not a vertex$"):
            vertex_set(path(4), s, "s")

    @pytest.mark.parametrize("s", [5, None])
    def test_rejects_a_non_collection(self, s):
        with pytest.raises(InputError, match=f"^s must be a collection of vertices, got {s}$"):
            vertex_set(path(4), s, "s")

    def test_searches_take_no_bool_labels(self):
        g = path(4)
        with pytest.raises(InputError, match="^sources contains True"):
            neighborhood(g, [True])
        with pytest.raises(InputError, match="^sources contains True"):
            ball(g, True, 1)

    def test_checks_against_the_graph_not_the_label_range(self):
        g = path(6).induced({2, 3, 4})
        assert vertex_set(g, {2, 4}, "s") == {2, 4}
        with pytest.raises(InputError, match="contains 0"):
            vertex_set(g, {0}, "s")


def test_neighborhood_growth():
    g = grid(4, 4)
    assert neighborhood(g, {0}, 0) == {0}
    assert neighborhood(g, {0}, 1) == {0, 1, 4}
    assert neighborhood(g, {0, 15}, 1) == {0, 1, 4, 11, 14, 15}


def test_relabeling_stability_of_ranked_form(rng):
    # a label permutation changes ranked edges only through the order map
    g = random_graph(10, 0.3, rng)
    perm = list(g.labels)
    rng.shuffle(perm)
    h = LabeledGraph.from_edges(10, [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges()])
    assert h.n == g.n and h.m == g.m
    labels, _ = ranked_form(h)
    assert labels == tuple(range(10))

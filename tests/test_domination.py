import pytest

from conftest import complete_graph, cycle, grid, path, random_graph, star
from localmds import (
    EnumerationBudgetError,
    GeneratorSpec,
    InputError,
    InvariantError,
    LabeledGraph,
    all_minimum_dominating_sets,
    ball,
    best_minimum_dominating_set,
    generate,
    mds_size,
    minimum_dominating_set,
    neighborhood,
    strictly_dominated,
    verify_domination,
)
from localmds.domination import _greedy, _Instance, _reduce, _search
from reference import exhaustive_all_mds, exhaustive_mds_size, milp_mds_size, strictly_dominated_by_pairs


@pytest.mark.parametrize(
    "query", [mds_size, minimum_dominating_set, all_minimum_dominating_sets, best_minimum_dominating_set]
)
@pytest.mark.parametrize("budget", ["x", None, 1.5, True, -1])
def test_bad_budget_is_an_input_error(query, budget):
    # every query checks its budget before it searches, so none runs on a bad one
    g = path(6)
    with pytest.raises(InputError, match="^budget must be "):
        query(g, g.labels, budget=budget)


class TestVerifyDomination:
    def test_self_domination(self):
        g = cycle(5)
        s = frozenset({1, 3})
        assert verify_domination(g, s, s)

    def test_empty_chosen_nonempty_target(self):
        assert not verify_domination(cycle(5), frozenset(), {0})

    def test_six_cycle_antipodal(self):
        assert verify_domination(cycle(6), {0, 3}, range(6))

    def test_membership_validated(self):
        with pytest.raises(InputError):
            verify_domination(path(3), {9}, {0})
        with pytest.raises(InputError, match="^chosen must be a collection of vertices, got None$"):
            verify_domination(path(3), None, {0})


class TestMdsSize:
    def test_star(self):
        g = star(7)
        assert mds_size(g, g.labels) == 1

    def test_depth2_tree_fixture(self):
        # root, 3 middle vertices, 7 leaves each: minimum is the middle layer
        g = generate(GeneratorSpec("depth2Tree", {"alpha": 2}))
        assert g.n == 25
        assert mds_size(g, g.labels) == 3

    def test_six_cycle(self):
        g = cycle(6)
        assert exhaustive_mds_size(g, g.labels) == 2  # the independent oracle
        assert mds_size(g, g.labels) == 2

    def test_empty_target(self):
        assert mds_size(path(4), frozenset()) == 0

    def test_target_must_be_a_set_of_vertices(self):
        with pytest.raises(InputError, match="^target must be a collection of vertices, got 5$"):
            mds_size(path(4), 5)

    def test_matches_exhaustive_on_random_corpus(self, rng):
        for _ in range(30):
            n = rng.randrange(1, 13)
            g = random_graph(n, rng.uniform(0.1, 0.5), rng)
            target = frozenset(v for v in g.labels if rng.random() < 0.7)
            assert mds_size(g, target) == exhaustive_mds_size(g, target)

    def test_monotone_in_target(self, rng):
        for _ in range(10):
            g = random_graph(12, 0.25, rng)
            t2 = frozenset(v for v in g.labels if rng.random() < 0.8)
            t1 = frozenset(v for v in t2 if rng.random() < 0.6)
            assert mds_size(g, t1) <= mds_size(g, t2)

    def test_candidate_restriction_is_lossless(self, rng):
        # the solver searches N[target] only; exhaustion searches everything
        for _ in range(15):
            g = random_graph(rng.randrange(4, 13), 0.2, rng)
            target = frozenset(rng.sample(g.labels, max(1, g.n // 3)))
            assert mds_size(g, target) == exhaustive_mds_size(g, target)

    def test_minimum_witness_is_valid_and_optimal(self, rng):
        for _ in range(10):
            g = random_graph(11, 0.3, rng)
            target = frozenset(g.labels)
            witness = minimum_dominating_set(g, target)
            assert verify_domination(g, witness, target)
            assert len(witness) == mds_size(g, target)

    @pytest.mark.parametrize(
        "spec, optimum",
        [
            (GeneratorSpec("toroidalGrid", {"rows": 7, "cols": 7}), 12),
            (GeneratorSpec("grid", {"rows": 8, "cols": 8}), 16),
            (GeneratorSpec("randomPlanarTriangulation", {"n": 160}, seed=1), 22),
            (GeneratorSpec("randomPlanarTriangulation", {"n": 400}, seed=1), 49),
        ],
    )
    def test_matches_integer_program_past_exhaustion(self, spec, optimum):
        g = generate(spec)
        assert mds_size(g, g.labels) == milp_mds_size(g, g.labels, time_limit=30) == optimum

    def test_hub_heavy_structures_match_exhaustive(self, rng):
        # stars, cliques, and stacked triangulations stress the solver's
        # containment reductions; the power-set oracle keeps them honest
        from conftest import complete_bipartite

        graphs = [star(9), complete_graph(8), complete_bipartite(3, 4)]
        graphs += [
            generate(GeneratorSpec("randomPlanarTriangulation", {"n": n}, seed=s))
            for n in (8, 10, 12)
            for s in (1, 2)
        ]
        graphs += [generate(GeneratorSpec("depth2Tree", {"alpha": 1}))]
        for g in graphs:
            for _ in range(3):
                target = frozenset(v for v in g.labels if rng.random() < 0.75)
                assert mds_size(g, target) == exhaustive_mds_size(g, target)
                witness = minimum_dominating_set(g, target)
                assert verify_domination(g, witness, target)
                assert len(witness) == exhaustive_mds_size(g, target)


class TestAllMinimumDominatingSets:
    def test_p3_unique(self):
        g = path(3)
        assert all_minimum_dominating_sets(g, g.labels) == [frozenset({1})]

    def test_p4_all_four(self):
        g = path(4)
        got = all_minimum_dominating_sets(g, g.labels)
        assert got == sorted(
            [frozenset({0, 2}), frozenset({0, 3}), frozenset({1, 2}), frozenset({1, 3})],
            key=sorted,
        )

    def test_star_center_only(self):
        g = star(5)
        assert all_minimum_dominating_sets(g, g.labels) == [frozenset({0})]

    def test_empty_target(self):
        assert all_minimum_dominating_sets(path(3), frozenset()) == [frozenset()]

    def test_matches_exhaustive(self, rng):
        for _ in range(20):
            n = rng.randrange(1, 11)
            g = random_graph(n, rng.uniform(0.15, 0.5), rng)
            target = frozenset(v for v in g.labels if rng.random() < 0.8)
            got = set(all_minimum_dominating_sets(g, target))
            assert got == exhaustive_all_mds(g, target)

    def test_members_verify_and_match_size(self, rng):
        g = random_graph(12, 0.25, rng)
        target = frozenset(g.labels)
        size = mds_size(g, target)
        for s in all_minimum_dominating_sets(g, target):
            assert len(s) == size
            assert verify_domination(g, s, target)

    def test_budget_overflow_is_an_error(self):
        g = complete_graph(12)  # twelve singleton optima
        with pytest.raises(EnumerationBudgetError):
            all_minimum_dominating_sets(g, g.labels, budget=5)

    def test_budget_caps_enumeration_nodes(self):
        # the size search fits in 200 nodes; enumerating the 4 optima does not
        g = grid(4, 8)
        with pytest.raises(EnumerationBudgetError):
            all_minimum_dominating_sets(g, g.labels, budget=200)
        assert len(all_minimum_dominating_sets(g, g.labels, budget=2000)) == 4


class TestBestMinimumDominatingSet:
    def test_star_center(self):
        g = star(5)
        assert best_minimum_dominating_set(g, g.labels) == {0}

    def test_p4_discards_endpoints(self):
        g = path(4)
        assert best_minimum_dominating_set(g, g.labels) == {1, 2}

    def test_single_vertex(self):
        from localmds import LabeledGraph

        g = LabeledGraph.from_edges(1)
        assert best_minimum_dominating_set(g, g.labels) == {0}

    def test_contains_no_strictly_dominated_vertex(self, rng):
        for _ in range(15):
            g = random_graph(rng.randrange(2, 12), 0.3, rng)
            best = best_minimum_dominating_set(g, g.labels)
            assert not best & strictly_dominated(g)

    def test_equals_enumerate_filter_lexmin(self, rng):
        # two more routes: the enumeration, and power-set exhaustion, which
        # shares no code with the search; discard, then lexicographic minimum
        for _ in range(20):
            n = rng.randrange(1, 11)
            g = random_graph(n, rng.uniform(0.15, 0.5), rng)
            target = frozenset(v for v in g.labels if rng.random() < 0.8)
            discard = strictly_dominated(g)
            best = best_minimum_dominating_set(g, target)
            for optima in (all_minimum_dominating_sets(g, target), exhaustive_all_mds(g, target)):
                survivors = [s for s in optima if not s & discard]
                assert survivors, "a discard-free optimum must exist"
                assert best == min(survivors, key=sorted)

    def test_replacement_argument(self, rng):
        # swapping a strictly dominated member for its dominator keeps optimality
        checked = 0
        for _ in range(30):
            g = random_graph(rng.randrange(3, 11), 0.35, rng)
            target = frozenset(g.labels)
            discard = strictly_dominated(g)
            for s in all_minimum_dominating_sets(g, target):
                for v in s & discard:
                    w = next(
                        w
                        for w in g.labels
                        if g.closed_neighborhood(v) < g.closed_neighborhood(w)
                    )
                    swapped = (s - {v}) | {w}
                    assert len(swapped) == len(s)
                    assert verify_domination(g, swapped, target)
                    checked += 1
        assert checked > 0

    def test_compare_restriction_changes_discards(self):
        # endpoints of P4 are strictly dominated, but not when the
        # comparison scope is only themselves
        g = path(4)
        assert strictly_dominated(g, within={0, 3}) == frozenset()
        best = best_minimum_dominating_set(g, g.labels, compare={0, 3})
        assert best == {0, 2}  # plain lexicographic minimum, nothing discarded

    def test_compare_checked_before_searching(self):
        # a budget of one node cannot finish the search, so the input error comes first
        g = grid(3, 3)
        with pytest.raises(InputError, match="^compare contains 99"):
            best_minimum_dominating_set(g, g.labels, compare={0, 99}, budget=1)

    def test_budget_error(self):
        g = grid(5, 5)
        message = (
            r"^best_minimum_dominating_set: exact search exceeded 3 nodes in the size search"
            r" \(target of 25 vertices\)$"
        )
        with pytest.raises(EnumerationBudgetError, match=message):
            best_minimum_dominating_set(g, g.labels, budget=3)

    def test_triangulation_view_within_default_budget(self):
        # vertex 0's view of this triangulation once exhausted the default budget
        g = generate(GeneratorSpec("randomPlanarTriangulation", {"n": 160}, seed=1))
        view = ball(g, 0, 4)
        near = frozenset(v for v, d in view.dist.items() if d <= 3)
        best = best_minimum_dominating_set(view.subgraph, near, compare=near)
        assert verify_domination(view.subgraph, best, near)
        assert len(best) == mds_size(view.subgraph, near)
        assert not best & strictly_dominated(view.subgraph, near)

    def test_pinned_on_triangulation_view(self):
        # recorded before the size search moved to the allowed candidates
        g = generate(GeneratorSpec("randomPlanarTriangulation", {"n": 160}, seed=1))
        view = ball(g, 0, 4)
        near = frozenset(v for v, d in view.dist.items() if d <= 3)
        assert (view.subgraph.n, len(near)) == (150, 139)
        best = best_minimum_dominating_set(view.subgraph, near, compare=near)
        assert sorted(best) == [0, 1, 3, 4, 5, 6, 7, 8, 11, 14, 16, 26, 29, 31, 41, 50, 58, 143]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_enumerate_filter_lexmin_on_views(self, seed):
        # every radius-3 view of a triangulation, as algorithm A queries it:
        # discard within the target, then the lexicographic minimum
        g = generate(GeneratorSpec("randomPlanarTriangulation", {"n": 60}, seed=seed))
        for u in g.labels:
            view = ball(g, u, 3)
            near = frozenset(v for v, d in view.dist.items() if d <= 2)
            discard = strictly_dominated(view.subgraph, near)
            optima = all_minimum_dominating_sets(view.subgraph, near, budget=2 * 10**5)
            expected = min((s for s in optima if not s & discard), key=sorted)
            assert best_minimum_dominating_set(view.subgraph, near, compare=near) == expected


class TestBestSetOfAView:
    """A view's best set is read off its host restricted to the ball, with no
    subgraph built; it must equal the best set of a freshly induced subgraph."""

    @pytest.mark.parametrize(
        "spec",
        [
            GeneratorSpec("randomPlanarTriangulation", {"n": 60}, seed=1),
            GeneratorSpec("randomPlanarTriangulation", {"n": 60}, seed=2),
            GeneratorSpec("randomPlanarTriangulation", {"n": 60}, seed=3),
            GeneratorSpec("depth2Tree", {"alpha": 3}),
            GeneratorSpec("grid", {"rows": 6, "cols": 8}),
        ],
        ids=lambda spec: f"{spec.family}-{spec.seed}",
    )
    def test_equals_best_set_of_induced_subgraph(self, spec):
        g = generate(spec)
        for radius in (2, 3, 4):
            for u in g.labels:
                view = ball(g, u, radius)
                near = frozenset(v for v, d in view.dist.items() if d < radius)
                fresh = g.induced(view.dist)
                got = best_minimum_dominating_set(view, near, compare=near)
                assert got == best_minimum_dominating_set(fresh, near, compare=near)

    def test_target_outside_the_ball(self):
        with pytest.raises(InputError, match="^target contains 0"):
            best_minimum_dominating_set(ball(path(5), 2, 1), {0, 2})


class TestGreedy:
    def test_candidates_missing_a_target_vertex(self):
        # position 0 of P3 covers 0 and 1 only; without a check the loop would never end
        g = path(3)
        inst = _Instance(g, g.labels, "test", 1)
        with pytest.raises(InvariantError, match="^greedy cover"):
            _greedy(inst, [0])


class TestStrictlyDominated:
    def test_matches_pairwise_definition(self, rng):
        for _ in range(200):
            n = rng.randrange(1, 31)
            g = random_graph(n, rng.uniform(0.05, 0.5), rng)
            within = None
            if rng.random() < 0.8:
                within = frozenset(rng.sample(g.labels, rng.randrange(n + 1)))
            assert strictly_dominated(g, within) == strictly_dominated_by_pairs(g, within)


class TestPinnedWitnesses:
    """Witnesses recorded before the reductions were rewritten: the reduced
    instances, and so the search that follows, must stay the same."""

    def test_generated_graphs(self):
        cases = [
            ("grid", {"rows": 3, "cols": 4}, [3, 4, 5, 10]),
            ("toroidalGrid", {"rows": 5, "cols": 5}, [0, 7, 14, 16, 23]),
            ("toroidalGrid", {"rows": 7, "cols": 7}, [0, 1, 2, 11, 16, 20, 25, 28, 29, 34, 38, 47]),
        ]
        for family, params, witness in cases:
            g = generate(GeneratorSpec(family, params))
            assert sorted(minimum_dominating_set(g, g.labels)) == witness

    def test_triangulation_view_partial_target(self):
        g = generate(GeneratorSpec("randomPlanarTriangulation", {"n": 200}, seed=1))
        view = ball(g, 0, 3)
        near = frozenset(v for v, d in view.dist.items() if d <= 2)
        assert (view.subgraph.n, len(near)) == (171, 110)
        got = minimum_dominating_set(view.subgraph, near)
        assert sorted(got) == [0, 1, 2, 3, 5, 16, 28, 29, 30, 62]

    def test_triangulation_with_deletions(self):
        # the reductions cut this instance from 100 candidates and targets to 20
        g = generate(GeneratorSpec("randomPlanarTriangulation", {"n": 100, "deletions": 60}, seed=1))
        got = minimum_dominating_set(g, g.labels)
        assert sorted(got) == [0, 1, 2, 3, 6, 8, 9, 11, 14, 17, 25, 28, 29, 31, 36, 58, 59, 64, 65]


def _needs_exactly(nodes, query):
    """`query(budget)` fits in `nodes` search nodes and not in one fewer."""
    query(nodes)
    with pytest.raises(EnumerationBudgetError):
        query(nodes - 1)


class TestPinnedNodeCounts:
    """Exact search-node counts of one query per oracle. The search must
    keep choosing the same branch vertices and prunes: any change to its
    decisions moves these counts, even when the answers stay the same."""

    def test_minimum_set_on_torus(self):
        g = generate(GeneratorSpec("toroidalGrid", {"rows": 7, "cols": 7}))
        _needs_exactly(7514, lambda budget: minimum_dominating_set(g, g.labels, budget=budget))

    def test_enumeration_on_grid(self):
        g = grid(4, 8)
        _needs_exactly(392, lambda budget: all_minimum_dominating_sets(g, g.labels, budget=budget))

    def test_best_set_on_triangulation_view(self):
        g = generate(GeneratorSpec("randomPlanarTriangulation", {"n": 160}, seed=1))
        view = ball(g, 0, 4)
        near = frozenset(v for v, d in view.dist.items() if d <= 3)
        _needs_exactly(
            28,
            lambda budget: best_minimum_dominating_set(view.subgraph, near, compare=near, budget=budget),
        )

    def test_minimum_set_after_reductions(self):
        g = generate(GeneratorSpec("randomPlanarTriangulation", {"n": 100, "deletions": 60}, seed=1))
        _needs_exactly(41, lambda budget: minimum_dominating_set(g, g.labels, budget=budget))

    def test_minimum_set_after_equal_target_tie_break(self):
        # targets with equal coverer sets keep the lower label. Keeping the
        # higher one instead leaves the first query at 10 nodes but makes
        # the second one return [1, 2, 7, 10]
        edges = [
            (0, 3), (0, 4), (0, 9), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3), (2, 5), (2, 6),
            (2, 8), (3, 5), (3, 9), (3, 10), (3, 12), (4, 6), (4, 7), (4, 9), (5, 7), (5, 10),
            (5, 11), (5, 12), (6, 7), (6, 8), (6, 11), (8, 9), (9, 11), (9, 12), (10, 11),
        ]
        g = LabeledGraph.from_edges(13, edges)
        target = [0, 1, 3, 4, 5, 6, 7, 8, 10, 11]
        _needs_exactly(10, lambda budget: minimum_dominating_set(g, target, budget=budget))
        assert minimum_dominating_set(g, target) == {3, 6}
        edges = [(0, 3), (0, 10), (1, 3), (1, 5), (3, 4), (4, 7), (4, 9), (5, 8), (6, 7), (8, 9), (9, 10)]
        g = LabeledGraph.from_edges(11, edges)
        target = [0, 2, 3, 4, 5, 6, 7, 9, 10]
        _needs_exactly(12, lambda budget: minimum_dominating_set(g, target, budget=budget))
        assert minimum_dominating_set(g, target) == {0, 2, 7, 8}


class TestBudgetErrorNamesItsPass:
    """A budget error says which pass of its query ran out of nodes."""

    def test_size_and_witness_passes(self):
        # the size pass and the witness pass share the 7x7 torus's 7,514 nodes
        g = generate(GeneratorSpec("toroidalGrid", {"rows": 7, "cols": 7}))
        for query in (mds_size, minimum_dominating_set):
            message = rf"^{query.__name__}: exact search exceeded 100 nodes in the size search \(target of 49"
            with pytest.raises(EnumerationBudgetError, match=message):
                query(g, g.labels, budget=100)
        message = r"exceeded 7513 nodes in the witness search \(target of 49"
        with pytest.raises(EnumerationBudgetError, match=message):
            minimum_dominating_set(g, g.labels, budget=7513)
        assert mds_size(g, g.labels, budget=7513) == 12

    def test_enumeration(self):
        g = grid(4, 8)
        message = r"exceeded 391 nodes in the enumeration \(target of 32"
        with pytest.raises(EnumerationBudgetError, match=message):
            all_minimum_dominating_sets(g, g.labels, budget=391)

    def test_best_set_prefix(self):
        g = generate(GeneratorSpec("randomPlanarTriangulation", {"n": 160}, seed=1))
        view = ball(g, 0, 4)
        near = frozenset(v for v, d in view.dist.items() if d <= 3)
        message = r"exceeded 27 nodes in the search completing a prefix of 16 to 18 members \(target of 139"
        with pytest.raises(EnumerationBudgetError, match=message):
            best_minimum_dominating_set(view.subgraph, near, compare=near, budget=27)


def plain_minimum_set(g, target):
    """The slow reference for the two-pass `minimum_dominating_set`: one plain
    search from below greedy, with no swap rule and no first-cover exit."""
    inst = _Instance(g, target, "plain", 10**7)
    greedy = tuple(_greedy(inst, inst.cands))
    cands, tmask = _reduce(inst)
    best = _search(inst, cands, tmask, len(greedy) - 1, "the plain search")
    return inst.to_labels(greedy if best is None else best)


class TestTwoPassesAgainstPlainSearch:
    """The swap rule may drop covers, so the size pass must still find the
    optimum, and the witness pass must return the plain search's set."""

    def test_random_graphs(self, rng):
        for _ in range(1000):
            n = rng.randint(1, 40)
            g = random_graph(n, rng.uniform(0.03, 0.4), rng)
            target = rng.sample(g.labels, rng.randint(0, n))
            want = plain_minimum_set(g, target)
            assert minimum_dominating_set(g, target) == want
            assert mds_size(g, target) == len(want)

    @pytest.mark.parametrize("family", ["grid", "toroidalGrid"])
    def test_grids(self, family):
        # the 8x8 torus takes about 3 s; it runs with the stress tests below
        low = 1 if family == "grid" else 3
        for rows in range(low, 9):
            for cols in range(low, 9):
                if family == "toroidalGrid" and rows == cols == 8:
                    continue
                g = generate(GeneratorSpec(family, {"rows": rows, "cols": cols}))
                want = plain_minimum_set(g, g.labels)
                assert minimum_dominating_set(g, g.labels) == want, (rows, cols)
                assert mds_size(g, g.labels) == len(want), (rows, cols)

    @pytest.mark.stress
    def test_torus_8x8(self):
        g = generate(GeneratorSpec("toroidalGrid", {"rows": 8, "cols": 8}))
        want = plain_minimum_set(g, g.labels)
        assert minimum_dominating_set(g, g.labels) == want
        assert mds_size(g, g.labels) == len(want) == 16


def test_neighborhood_oracle_consistency(rng):
    # MDS of N^1[S] is at least the MDS of S
    g = random_graph(12, 0.25, rng)
    s = frozenset(rng.sample(g.labels, 4))
    assert mds_size(g, neighborhood(g, s, 1)) >= mds_size(g, s)

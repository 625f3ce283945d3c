import re
from fractions import Fraction

import pytest

from conftest import cycle, grid, path, star
from localmds import (
    EnumerationBudgetError,
    GeneratorSpec,
    InputError,
    LabeledGraph,
    RuleError,
    algorithm_a,
    algorithm_a_run,
    ball,
    best_minimum_dominating_set,
    check_uniformity,
    generate,
    mds_size,
    neighborhood,
    validate_nominations,
    verify_domination,
)
from localmds.nomination import ALPHA, K_UNIFORM, best_local_set


class TestAlgorithmAExamples:
    def test_star(self):
        g = star(5)
        assert algorithm_a(g) == {0}

    def test_p4(self):
        assert algorithm_a(path(4)) == {1, 2}

    def test_single_vertex(self):
        assert algorithm_a(LabeledGraph.from_edges(1)) == {0}

    def test_empty_graph(self):
        assert algorithm_a(LabeledGraph.from_edges(0)) == frozenset()

    def test_pinned_on_triangulation(self):
        # recorded before the best-set search changed; every vertex's view is a best-set query
        g = generate(GeneratorSpec("randomPlanarTriangulation", {"n": 160}, seed=1))
        expected = [0, 1, 3, 4, 5, 6, 7, 11, 14, 16, 26, 29, 31, 41, 45, 50, 55, 58, 59, 64, 126, 143]
        assert sorted(algorithm_a(g)) == expected


class TestAlgorithmAProperties:
    @pytest.mark.parametrize(
        "spec",
        [
            GeneratorSpec("path", {"n": 17}),
            GeneratorSpec("cycle", {"n": 12}),
            GeneratorSpec("grid", {"rows": 4, "cols": 5}),
            GeneratorSpec("toroidalGrid", {"rows": 4, "cols": 4}),
            GeneratorSpec("randomPlanarTriangulation", {"n": 22}, seed=9),
            GeneratorSpec("randomPlanarTriangulation", {"n": 20, "deletions": 8}, seed=2),
            GeneratorSpec("projectiveCirculant", {"g": 2}),
            GeneratorSpec("depth2Tree", {"alpha": 2}),
        ],
    )
    def test_output_dominates_any_graph(self, spec):
        g = generate(spec)
        assert verify_domination(g, algorithm_a(g), g.labels)

    def test_ledger_five_rounds(self):
        run = algorithm_a_run(grid(3, 4))
        assert run.ledger.view_collection == 4
        assert run.ledger.algorithm_run == 1
        assert run.ledger.total == 5

    def test_nominee_lies_in_best_set_and_neighborhood(self):
        g = grid(4, 4)
        run = algorithm_a_run(g)
        for u, d in run.decisions.items():
            assert d.nominee in d.best_local_set
            assert d.nominee in g.closed_neighborhood(u)
        assert run.output == {d.nominee for d in run.decisions.values()}

    def test_decisions_self_consistent(self):
        g = generate(GeneratorSpec("randomPlanarTriangulation", {"n": 16}, seed=3))
        validate_nominations(g, algorithm_a_run(g).decisions)

    def test_relabeled_run_self_consistent(self, rng):
        # the rule consults labels, so outputs need not map through a
        # permutation; the relabeled run must still be internally valid
        g = generate(GeneratorSpec("randomPlanarTriangulation", {"n": 14}, seed=4))
        perm = list(g.labels)
        rng.shuffle(perm)
        h = LabeledGraph.from_edges(
            g.n, [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges()]
        )
        run = algorithm_a_run(h)
        validate_nominations(h, run.decisions)
        assert verify_domination(h, run.output, h.labels)

    def test_cache_agrees_with_fresh_oracle(self, rng):
        # validate_nominations recomputes without the ranked-form cache; a
        # second randomized corpus stresses cache-key collisions
        for seed in (11, 12, 13):
            g = generate(GeneratorSpec("randomPlanarTriangulation", {"n": 18}, seed=seed))
            validate_nominations(g, algorithm_a_run(g).decisions)

    def test_ratio_bound_on_small_planar(self):
        for spec in (
            GeneratorSpec("grid", {"rows": 3, "cols": 5}),
            GeneratorSpec("path", {"n": 20}),
            GeneratorSpec("randomPlanarTriangulation", {"n": 18}, seed=1),
        ):
            g = generate(spec)
            assert len(algorithm_a(g)) <= ALPHA * mds_size(g, g.labels)

    def test_budget_propagates_with_center(self):
        g = grid(4, 4)
        with pytest.raises(RuleError) as info:
            from localmds import LocalAlgorithm, run_by_views
            from localmds.nomination import VIEW_RADIUS

            def tight_rule(view):
                from localmds.domination import best_minimum_dominating_set

                near = frozenset(v for v, d in view.dist.items() if d <= 3)
                return best_minimum_dominating_set(view.subgraph, near, compare=near, budget=2)

            run_by_views(g, LocalAlgorithm("tight", VIEW_RADIUS, tight_rule))
        assert isinstance(info.value.__cause__, EnumerationBudgetError)
        assert info.value.center == 0

    def test_cache_misses_run_on_the_executors_view(self, monkeypatch):
        # a miss searches the view the executor built, never a graph rebuilt
        # from the ranked cache key
        from localmds import nomination

        seen = []

        def recorder(h, *args, **kwargs):
            seen.append(h)
            return best_minimum_dominating_set(h, *args, **kwargs)

        nomination.BEST_SETS.clear()
        monkeypatch.setattr(nomination, "best_minimum_dominating_set", recorder)
        g = grid(6, 8)
        assert verify_domination(g, algorithm_a(g), g.labels)
        assert seen
        assert all(h == g.induced(h.labels) for h in seen)

    def test_cache_hits_build_no_view_graph(self, monkeypatch):
        # the key is read off the host: only a miss builds its view's subgraph.
        # On the 10x10 grid the 100 views have 81 distinct ranked forms.
        from localmds import nomination

        induced, searches = [], []
        real_induced = LabeledGraph.induced

        def counting_induced(self, keep):
            induced.append(keep)
            return real_induced(self, keep)

        def counting_search(h, *args, **kwargs):
            searches.append(h)
            return best_minimum_dominating_set(h, *args, **kwargs)

        nomination.BEST_SETS.clear()
        monkeypatch.setattr(LabeledGraph, "induced", counting_induced)
        monkeypatch.setattr(nomination, "best_minimum_dominating_set", counting_search)
        g = grid(10, 10)
        algorithm_a(g)
        assert 0 < len(induced) == len(searches) < g.n

    def test_best_local_set_requires_radius_four(self):
        with pytest.raises(InputError):
            best_local_set(ball(path(6), 2, 1))


class TestCheckUniformity:
    def test_empty_subset_holds(self):
        g = cycle(6)
        chk = check_uniformity(g, algorithm_a(g), frozenset(), K_UNIFORM, ALPHA)
        assert chk.holds and chk.selected == 0 and chk.optimum == 0

    def test_planar_fuzz_sample(self, rng):
        g = generate(GeneratorSpec("randomPlanarTriangulation", {"n": 15}, seed=8))
        out = algorithm_a(g)
        for _ in range(10):
            s = frozenset(v for v in g.labels if rng.random() < 0.4)
            chk = check_uniformity(g, out, s, K_UNIFORM, ALPHA)
            assert chk.holds
            assert chk.selected == len(out & s)
            assert chk.optimum == mds_size(g, neighborhood(g, s, K_UNIFORM))

    def test_depth2_tree_scale_zero_counterexample(self):
        # forcing the middle layer into the output breaks the inequality at
        # neighborhood scale 0: the root alone dominates that layer
        g = generate(GeneratorSpec("depth2Tree", {"alpha": 2}))
        middle = frozenset({1, 2, 3})
        assert mds_size(g, middle) == 1
        chk = check_uniformity(g, middle, middle, 0, 2)
        assert not chk.holds
        assert chk.selected == 3 and chk.optimum == 1 and chk.bound == Fraction(2)

    def test_fractional_alpha_exact_arithmetic(self):
        g = path(4)
        assert mds_size(g, neighborhood(g, {1}, 1)) == 1  # vertex 1 covers 0,1,2
        low = check_uniformity(g, frozenset({1}), frozenset({1}), 1, Fraction(1, 2))
        assert not low.holds and low.bound == Fraction(1, 2)
        high = check_uniformity(g, frozenset({1}), frozenset({1}), 1, Fraction(3, 2))
        assert high.holds and high.bound == Fraction(3, 2)

    def test_negative_k_rejected(self):
        g = path(3)
        with pytest.raises(InputError):
            check_uniformity(g, frozenset(), frozenset(), -1, 1)

    @pytest.mark.parametrize("alpha", ["abc", "302", True, 0.5])
    def test_alpha_must_be_an_int_or_a_fraction(self, alpha):
        with pytest.raises(InputError, match=re.escape(f"alpha must be an integer or a Fraction, got {alpha!r}")):
            check_uniformity(path(4), frozenset({1}), frozenset({1}), 1, alpha)

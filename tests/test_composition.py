from fractions import Fraction

import pytest

from conftest import complete_graph, cycle, disjoint_union, grid, path
from localmds import (
    BConfig,
    ClassPredicate,
    GeneratorSpec,
    InputError,
    InvariantError,
    LabeledGraph,
    PLANAR,
    ROUNDS,
    RuleError,
    algorithm_a,
    algorithm_b,
    check_uniformity,
    error_report,
    error_set,
    generate,
    is_planar,
    mds_size,
    neighborhood,
    parse_control,
    repair_step,
    t_error_set,
    verify_domination,
)
from localmds.composition import component_error_set

CFG = BConfig(predicate=PLANAR)


def counted_planar(calls):
    """A fresh planarity predicate, so no earlier verdict is cached for it,
    that records every graph it is called on."""
    return ClassPredicate("planar (counted)", lambda h: calls.append(h) or is_planar(h))


class TestBConfig:
    def test_derived_radius(self):
        assert CFG.error_radius == 15  # linear:1 control, k=4, r=5
        wide = BConfig(predicate=PLANAR, control=parse_control("linear:2"))
        assert wide.error_radius == 25

    def test_radius_dominates_sub_constants(self):
        assert CFG.error_radius >= ROUNDS
        assert CFG.error_radius >= CFG.k + 1

    def test_claimed_ratio(self):
        assert CFG.claimed_ratio == 302 * 3 + 1

    def test_decreasing_control_rejected(self):
        with pytest.raises(InputError):
            BConfig(
                predicate=PLANAR,
                control=lambda x: -x,
            )
        with pytest.raises(InputError):
            BConfig(
                predicate=PLANAR,
                control=lambda x: x % 3,
            )

    def test_control_values_checked_at_construction(self):
        # each probed value must be a non-negative int, so a bad function
        # fails here as an input error, not later inside B
        for control, message in (
            (lambda x: "a", "must be an integer, got 'a'"),
            (lambda x: x / 2, "must be an integer, got 0.0"),
            (lambda x: -x, "must be >= 0, got -1"),
        ):
            with pytest.raises(InputError, match=f"^control function value {message}$"):
                BConfig(predicate=PLANAR, control=control)

    def test_parse_control(self):
        assert parse_control("linear:3")(5) == 15
        assert parse_control("linear:")(7) == 7
        with pytest.raises(InputError):
            parse_control("cubic:2")

    def test_parse_control_keeps_the_factor_check(self):
        # InputError is a ValueError, so only the parse may sit inside the
        # try that turns a bad number into "unknown control function"
        with pytest.raises(InputError, match="^linear control factor must be >= 1, got 0$"):
            parse_control("linear:0")
        with pytest.raises(InputError, match="^unknown control function 'linear:x'"):
            parse_control("linear:x")


class TestErrorSet:
    def test_planar_graph_has_no_errors(self):
        report = error_set(grid(4, 5), CFG)
        assert report.errors == frozenset()
        assert report.delta == 0
        assert report.components == ()

    def test_k5_all_errors(self):
        g = complete_graph(5)
        report = error_set(g, CFG)
        assert report.errors == frozenset(g.labels)
        assert report.delta == 1  # one component, weak diameter of K5

    def test_toroidal_grid_radius_one_views_planar(self):
        # radius-1 views of a 6x6 torus grid are 5-vertex stars: planar
        g = generate(GeneratorSpec("toroidalGrid", {"rows": 6, "cols": 6}))
        assert t_error_set(g, PLANAR, 1) == frozenset()
        assert t_error_set(g, PLANAR, 15) == frozenset(g.labels)

    def test_monotone_in_radius(self):
        g = generate(
            GeneratorSpec("gadgetGraft", {"n": 60, "gadgets": 2, "spacing": 25}, seed=3)
        )
        x5 = t_error_set(g, PLANAR, 5)
        x10 = t_error_set(g, PLANAR, 10)
        x15 = t_error_set(g, PLANAR, 15)
        assert x5 and x5 <= x10 <= x15

    def test_negative_radius(self):
        with pytest.raises(InputError):
            t_error_set(path(3), PLANAR, -1)

    def test_planar_component_takes_one_predicate_call(self):
        # the per-vertex t_error_set makes 125 calls here, one per distinct ranked view
        calls = []
        cfg = BConfig(predicate=counted_planar(calls))
        g = grid(14, 14)
        assert error_set(g, cfg).errors == frozenset()
        assert calls == [g]

    def test_planar_component_beside_a_gadget_is_cleared_whole(self):
        calls = []
        pred = counted_planar(calls)
        plane = grid(6, 6)
        graft = generate(GeneratorSpec("gadgetGraft", {"n": 30, "gadgets": 1}, seed=6))
        g = disjoint_union(plane, graft)
        errors = component_error_set(g, pred, CFG.error_radius)
        assert errors == t_error_set(g, PLANAR, CFG.error_radius)
        assert errors and errors.isdisjoint(plane.labels)
        # only the whole-component call sees the grid; every view call is in the graft
        seeing_plane = [h for h in calls if not set(h.labels).isdisjoint(plane.labels)]
        assert seeing_plane == [plane]
        assert len(calls) > 2

    def test_component_failure_is_a_rule_error_at_its_smallest_vertex(self):
        def fails_off_the_first_path(h):
            if 3 in h.labels:
                raise ValueError("boom")
            return True

        g = disjoint_union(path(3), path(4))
        with pytest.raises(RuleError, match="vertex 3: ValueError: boom") as info:
            component_error_set(g, ClassPredicate("fails", fails_off_the_first_path), 2)
        assert info.value.center == 3
        assert isinstance(info.value.__cause__, ValueError)

    def test_component_negative_radius(self):
        with pytest.raises(InputError):
            component_error_set(path(3), PLANAR, -1)

    def test_membership_matches_per_vertex_definition(self):
        # u is an error exactly when the class test fails on its own ball
        from localmds import ball

        g = generate(GeneratorSpec("gadgetGraft", {"n": 30, "gadgets": 1}, seed=6))
        for t in (1, 5):
            x = t_error_set(g, PLANAR, t)
            for u in g.labels:
                assert (u in x) == (not is_planar(ball(g, u, t).subgraph))


class TestMeasureDelta:
    def test_empty_error_set(self):
        assert error_report(grid(3, 3), frozenset()).delta == 0

    def test_k5(self):
        g = complete_graph(5)
        assert error_report(g, frozenset(g.labels)).delta == 1

    def test_two_far_gadget_regions(self):
        g = generate(
            GeneratorSpec("gadgetGraft", {"n": 80, "gadgets": 2, "spacing": 40}, seed=1)
        )
        report = error_set(g, CFG)
        assert len(report.components) == 2
        assert error_report(g, report.errors).delta == report.delta == max(report.weak_diameters)

    def test_matches_component_recomputation(self):
        from localmds import components, weak_diameter

        g = generate(GeneratorSpec("gadgetGraft", {"n": 50, "gadgets": 1}, seed=7))
        x = t_error_set(g, PLANAR, CFG.error_radius)
        hood = neighborhood(g, x, 2)
        expected = max(weak_diameter(g, c) for c in components(g, hood))
        assert error_report(g, x).delta == expected


class TestRepairStep:
    def test_no_errors_nothing_to_repair(self):
        g = grid(3, 4)
        dominating = algorithm_a(g)
        assert repair_step(g, dominating, error_report(g, frozenset())) == frozenset()

    def test_degenerates_to_global_oracle(self):
        g = complete_graph(5)
        out = repair_step(g, frozenset(), error_report(g, frozenset(g.labels)))
        assert len(out) == 1
        assert verify_domination(g, out, g.labels)

    def test_two_gadgets_solved_independently(self):
        # hand-built error set: exactly the two cliques; each repairs with
        # one vertex, matching the undecomposed oracle
        g = generate(
            GeneratorSpec("gadgetGraft", {"n": 60, "gadgets": 2, "spacing": 40}, seed=2)
        )
        cliques = frozenset(range(60, 70))
        dominated_by = frozenset(range(1, 60, 3))
        uncovered = frozenset(g.labels) - neighborhood(g, dominated_by, 1)
        assert uncovered and uncovered <= cliques
        out = repair_step(g, dominated_by, error_report(g, cliques))
        assert len(out) == 2 == mds_size(g, uncovered)
        assert verify_domination(g, out, uncovered)

    def test_precondition_violation_is_internal(self):
        g = path(9)
        with pytest.raises(InvariantError):
            repair_step(g, frozenset(), error_report(g, frozenset({0})))

    def test_decomposition_matches_undecomposed_oracle(self):
        for seed in range(4):
            g = generate(
                GeneratorSpec("gadgetGraft", {"n": 24, "gadgets": 2, "spacing": 12}, seed=seed)
            )
            x = t_error_set(g, PLANAR, 3)
            dominated_by = algorithm_a(g) - x
            uncovered = frozenset(g.labels) - neighborhood(g, dominated_by, 1)
            if not uncovered:
                continue
            out = repair_step(g, dominated_by, error_report(g, x))
            assert len(out) == mds_size(g, uncovered)


class TestAlgorithmB:
    def test_planar_reduces_to_sub_algorithm(self):
        for spec in (
            GeneratorSpec("grid", {"rows": 4, "cols": 4}),
            GeneratorSpec("randomPlanarTriangulation", {"n": 20}, seed=6),
            GeneratorSpec("path", {"n": 30}),
        ):
            g = generate(spec)
            res = algorithm_b(g, CFG)
            assert res.errors.errors == frozenset()
            assert res.repair == frozenset()
            assert res.output == algorithm_a(g)
            assert res.ledger.total == CFG.error_radius + 2

    def test_large_planar_host_has_no_errors(self):
        res = algorithm_b(grid(40, 40), CFG)
        assert res.errors.errors == frozenset()
        assert res.errors.delta == 0

    def test_k5(self):
        g = complete_graph(5)
        res = algorithm_b(g, CFG)
        assert res.filtered == frozenset()
        assert len(res.repair) == 1
        assert res.output == res.repair

    def test_projective_circulant_t15(self):
        g = generate(GeneratorSpec("projectiveCirculant", {"g": 1}))
        res = algorithm_b(g, CFG)
        assert res.errors.errors == frozenset(g.labels)
        assert len(res.output) == mds_size(g, g.labels)
        assert res.ledger.total == CFG.error_radius + res.errors.delta + 2

    @pytest.mark.parametrize(
        "spec",
        [
            GeneratorSpec("toroidalGrid", {"rows": 5, "cols": 5}),
            GeneratorSpec("gadgetGraft", {"n": 70, "gadgets": 2, "spacing": 30}, seed=4),
            GeneratorSpec("gadgetGraft", {"n": 45, "gadgets": 1, "gadget": "projectiveCirculant"}, seed=5),
            GeneratorSpec("cycle", {"n": 40}),
        ],
    )
    def test_dominates_and_ledger_identity(self, spec):
        g = generate(spec)
        res = algorithm_b(g, CFG)
        assert verify_domination(g, res.output, g.labels)
        assert res.ledger.total == CFG.error_radius + error_report(g, res.errors.errors).delta + 2
        assert res.ledger.view_collection == CFG.error_radius + 1
        assert res.ledger.repair == res.errors.delta + 1

    @pytest.mark.parametrize(
        "n, gadgets",
        [
            (600, 3),
            (1500, 8),
            pytest.param(5000, 20, marks=pytest.mark.stress),
            pytest.param(20000, 40, marks=pytest.mark.stress),
            pytest.param(40000, 80, marks=pytest.mark.stress),
        ],
    )
    def test_rounds_independent_of_n(self, n, gadgets):
        # the paper's f(g)-round claim: with the gadget kind and spacing fixed,
        # a longer host path changes neither delta nor the round count
        spec = GeneratorSpec("gadgetGraft", {"n": n, "gadgets": gadgets, "spacing": 150, "gadget": "K5"}, seed=1)
        g = generate(spec)
        res = algorithm_b(g, CFG)
        assert (res.ledger.total, res.errors.delta) == (47, 30)
        assert verify_domination(g, res.output, g.labels)

    def test_step3_exclusion(self):
        g = generate(
            GeneratorSpec("gadgetGraft", {"n": 60, "gadgets": 1, "spacing": 10}, seed=8)
        )
        res = algorithm_b(g, CFG)
        assert not res.filtered & res.errors.errors
        assert res.output & res.errors.errors <= res.repair

    def test_uniformity_at_claimed_ratio(self, rng):
        for spec in (
            GeneratorSpec("projectiveCirculant", {"g": 1}),
            GeneratorSpec("grid", {"rows": 3, "cols": 6}),
            GeneratorSpec("toroidalGrid", {"rows": 4, "cols": 4}),
        ):
            g = generate(spec)
            res = algorithm_b(g, CFG)
            for _ in range(5):
                s = frozenset(v for v in g.labels if rng.random() < 0.5)
                assert check_uniformity(g, res.output, s, CFG.k, Fraction(CFG.claimed_ratio)).holds

    def test_delta_bound_on_known_genus_families(self):
        t = CFG.error_radius
        for spec, genus_bound in (
            (GeneratorSpec("toroidalGrid", {"rows": 5, "cols": 5}), 1),
            (GeneratorSpec("projectiveCirculant", {"g": 1}), 1),
            (GeneratorSpec("projectiveCirculant", {"g": 4}), 1),
            (GeneratorSpec("gadgetGraft", {"n": 90, "gadgets": 2, "spacing": 40}, seed=6), 2),
        ):
            g = generate(spec)
            x = t_error_set(g, PLANAR, t)
            assert error_report(g, x).delta < genus_bound * (2 * t + 5)

    def test_predicate_called_once_per_ranked_view(self, rng):
        # radius-15 views of path(40) fall into 16 ranked forms: the paths on 16..31 vertices
        calls = []

        def max_degree_two(h):
            calls.append(h)
            return all(h.degree(v) <= 2 for v in h.labels)

        pred = ClassPredicate("max-degree-2 (counted)", max_degree_two)
        g = path(40)
        assert t_error_set(g, pred, 15) == frozenset()
        assert sorted(h.n for h in calls) == list(range(16, 32))
        assert all(h == g.induced(h.labels) for h in calls)
        # the predicate sees the executor's own views, host labels and all;
        # path(40)'s first views are labelled 0..n-1 and cannot show that
        perm = list(range(40))
        rng.shuffle(perm)
        g = LabeledGraph.from_edges(40, [tuple(sorted(perm[i : i + 2])) for i in range(39)])
        calls.clear()
        assert t_error_set(g, pred, 15) == frozenset()
        assert all(h == g.induced(h.labels) for h in calls)
        assert any(h.labels != tuple(range(h.n)) for h in calls)

    def test_custom_predicate_composition(self):
        # the composition accepts any pluggable class predicate
        max_degree_two = ClassPredicate("max-degree-2", lambda h: all(h.degree(v) <= 2 for v in h.labels))
        cfg = BConfig(predicate=max_degree_two)
        g = path(40)
        res = algorithm_b(g, cfg)
        assert res.errors.errors == frozenset()
        assert res.output == algorithm_a(g)
        st = generate(GeneratorSpec("gadgetGraft", {"n": 40, "gadgets": 1}, seed=1))
        res = algorithm_b(st, cfg)
        assert res.errors.errors
        assert verify_domination(st, res.output, st.labels)

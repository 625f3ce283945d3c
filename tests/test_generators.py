import pytest

from localmds import (
    GeneratorSpec,
    InputError,
    distances,
    generate,
    is_planar,
    mds_size,
)
from reference import planar_by_subdivisions


class TestDeterminism:
    @pytest.mark.parametrize(
        "spec",
        [
            GeneratorSpec("randomPlanarTriangulation", {"n": 25}, seed=42),
            GeneratorSpec("randomPlanarTriangulation", {"n": 20, "deletions": 10}, seed=7),
            GeneratorSpec("gadgetGraft", {"n": 50, "gadgets": 2, "spacing": 20}, seed=11),
        ],
    )
    def test_same_seed_same_graph(self, spec):
        assert generate(spec) == generate(spec)

    def test_different_seeds_usually_differ(self):
        a = generate(GeneratorSpec("randomPlanarTriangulation", {"n": 25}, seed=1))
        b = generate(GeneratorSpec("randomPlanarTriangulation", {"n": 25}, seed=2))
        assert a != b


class TestStructuralGuarantees:
    def test_grid_3x3(self):
        g = generate(GeneratorSpec("grid", {"rows": 3, "cols": 3}))
        assert g.n == 9 and g.m == 12
        assert is_planar(g)

    def test_path_cycle_counts(self):
        assert generate(GeneratorSpec("path", {"n": 7})).m == 6
        assert generate(GeneratorSpec("cycle", {"n": 7})).m == 7

    def test_planar_families_planar(self):
        for spec in (
            GeneratorSpec("path", {"n": 40}),
            GeneratorSpec("cycle", {"n": 40}),
            GeneratorSpec("grid", {"rows": 6, "cols": 7}),
            GeneratorSpec("randomPlanarTriangulation", {"n": 60}, seed=3),
            GeneratorSpec("randomPlanarTriangulation", {"n": 30, "deletions": 20}, seed=4),
            GeneratorSpec("depth2Tree", {"alpha": 3}),
        ):
            assert is_planar(generate(spec))
            assert spec.genus_upper_bound == 0

    def test_toroidal_grids_nonplanar_from_five(self):
        for k in (5, 6):
            g = generate(GeneratorSpec("toroidalGrid", {"rows": k, "cols": k}))
            assert not is_planar(g)
            assert g.m == 2 * g.n  # 4-regular

    def test_depth2_tree_counts_and_mds(self):
        for alpha in (2, 3):
            spec = GeneratorSpec("depth2Tree", {"alpha": alpha})
            g = generate(spec)
            assert g.n == 1 + (alpha + 1) * (alpha * alpha + 4)
            assert mds_size(g, g.labels) == alpha + 1
            middle = frozenset(range(1, alpha + 2))
            assert mds_size(g, middle) == 1

    def test_projective_circulant_structure(self):
        g = generate(GeneratorSpec("projectiveCirculant", {"g": 1}))
        assert g.n == 8 and g.m == 12  # 8-cycle plus 4 antipodal chords
        assert all(g.degree(v) == 3 for v in g.labels)
        assert not is_planar(g)
        for genus in (2, 3):
            h = generate(GeneratorSpec("projectiveCirculant", {"g": genus}))
            assert h.n == 2 * genus + 6
            assert not is_planar(h)
            assert not planar_by_subdivisions(h)

    def test_gadget_graft_structure(self):
        spec = GeneratorSpec("gadgetGraft", {"n": 50, "gadgets": 2, "spacing": 20}, seed=9)
        g = generate(spec)
        assert g.n == 60
        assert not is_planar(g)
        assert spec.genus_upper_bound == 2
        # gadgets attach by a single edge and sit far apart
        attach_hosts = [
            next(iter(g.neighbors(base) - set(range(50, 60)))) for base in (50, 55)
        ]
        assert abs(attach_hosts[0] - attach_hosts[1]) == 20

    def test_gadget_graft_projective_gadgets(self):
        g = generate(
            GeneratorSpec(
                "gadgetGraft",
                {"n": 30, "gadgets": 1, "gadget": "projectiveCirculant"},
                seed=0,
            )
        )
        assert g.n == 38
        assert not is_planar(g)

    def test_gadget_graft_grid_host(self):
        g = generate(
            GeneratorSpec(
                "gadgetGraft",
                {"host": "grid", "rows": 4, "cols": 25, "gadgets": 2, "spacing": 15},
                seed=1,
            )
        )
        assert g.n == 4 * 25 + 10
        assert not is_planar(g)

    def test_triangulation_is_maximal_planar_without_deletions(self):
        g = generate(GeneratorSpec("randomPlanarTriangulation", {"n": 30}, seed=5))
        assert g.m == 3 * g.n - 6

    def test_genus_bounds(self):
        assert GeneratorSpec("toroidalGrid", {"rows": 5, "cols": 5}).genus_upper_bound == 2
        assert GeneratorSpec("projectiveCirculant", {"g": 9}).genus_upper_bound == 1
        assert GeneratorSpec("gadgetGraft", {"n": 9, "gadgets": 3}).genus_upper_bound == 3


class TestParameterValidation:
    @pytest.mark.parametrize(
        "spec",
        [
            GeneratorSpec("nosuch", {}),
            GeneratorSpec("path", {}),
            GeneratorSpec("path", {"n": 0}),
            GeneratorSpec("cycle", {"n": 2}),
            GeneratorSpec("toroidalGrid", {"rows": 2, "cols": 5}),
            GeneratorSpec("grid", {"rows": "x", "cols": 2}),
            GeneratorSpec("randomPlanarTriangulation", {"n": 10, "deletions": 99}),
            GeneratorSpec("gadgetGraft", {"n": 10, "gadgets": 3, "spacing": 20}),
            GeneratorSpec("gadgetGraft", {"n": 10, "gadget": "K7"}),
            GeneratorSpec("gadgetGraft", {"host": "tree", "n": 10}),
            GeneratorSpec("depth2Tree", {"alpha": 0}),
        ],
    )
    def test_invalid_parameters(self, spec):
        with pytest.raises(InputError):
            generate(spec)

    @pytest.mark.parametrize(
        "family, params, message",
        [
            ("randomPlanarTriangulation", {"n": 20, "deletion": 15}, "'deletion' (it takes: ['n', 'deletions'])"),
            ("grid", {"rows": 3, "cols": 3, "colz": 4}, "'colz' (it takes: ['rows', 'cols'])"),
            ("gadgetGraft", {"n": 60, "rows": 3}, "'rows' (it takes: ['host', 'gadgets', 'spacing', 'gadget', 'n'])"),
            (
                "gadgetGraft",
                {"host": "grid", "rows": 3, "cols": 40, "n": 60},
                "'n' (it takes: ['host', 'gadgets', 'spacing', 'gadget', 'rows', 'cols'])",
            ),
        ],
        ids=["deletion", "colz", "path-host-rows", "grid-host-n"],
    )
    def test_rejects_parameters_the_family_does_not_read(self, family, params, message):
        # a suite's CSV row records every parameter, so one the graph ignores
        # would misreport it; a graft reads the sizes of its own host only
        with pytest.raises(InputError) as raised:
            generate(GeneratorSpec(family, params))
        assert str(raised.value) == f"{family} takes no parameter {message}"

    @pytest.mark.parametrize("n", [5.7, True, "5"])
    def test_parameters_are_never_coerced(self, n):
        # coercion would build a 5-vertex path from 5.7 and a 1-vertex path from True
        with pytest.raises(InputError, match="^parameter 'n' must be an integer, got "):
            generate(GeneratorSpec("path", {"n": n}))

    @pytest.mark.parametrize("seed", [1.5, True, "1"])
    def test_seed_is_never_coerced(self, seed):
        # random.Random would take True as seed 1 and hash 1.5 or "1" into some seed
        with pytest.raises(InputError, match="^seed must be an integer, got "):
            generate(GeneratorSpec("randomPlanarTriangulation", {"n": 10}, seed=seed))

    @pytest.mark.parametrize("host, line", [({"host": "path"}, "n"), ({"host": "grid", "rows": 3}, "cols")])
    def test_too_many_gadgets_for_the_host(self, host, line):
        # three gadgets 20 apart span 40 positions of the host line: 40 are too few, 41 fit
        params = dict(host, gadgets=3, spacing=20)
        with pytest.raises(InputError, match="need more than 40 attachment points"):
            generate(GeneratorSpec("gadgetGraft", dict(params, **{line: 40})))
        generate(GeneratorSpec("gadgetGraft", dict(params, **{line: 41})))


def test_gadget_spacing_is_real_distance():
    g = generate(GeneratorSpec("gadgetGraft", {"n": 100, "gadgets": 3, "spacing": 30}, seed=13))
    attach_hosts = sorted(
        next(iter(g.neighbors(base) - set(range(100, 115)))) for base in (100, 105, 110)
    )
    d = distances(g, attach_hosts[0])
    assert all(d[h] >= 30 for h in attach_hosts[1:])

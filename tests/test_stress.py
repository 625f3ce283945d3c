"""Known capability ceilings, measured at sizes beyond the acceptance corpus.

Deselected by default; run them with `pytest -m stress`. When a change
lifts a ceiling, flip its test from the expected `resource` outcome to a
pass; never shrink an input to make one pass.
"""
import pytest

from conftest import path
from localmds import (
    EnumerationBudgetError,
    GeneratorSpec,
    generate,
    is_planar,
    mds_size,
    minimum_dominating_set,
    run_cell,
    verify_domination,
)
from reference import milp_mds_size, networkx_is_planar

pytestmark = pytest.mark.stress


def test_torus_8x8_minimum_set_within_default_budget():
    # B repairs this torus whole. The size pass proves 16 optimal in
    # 100,273 nodes and the witness pass finds its 16-set in 11,681 more.
    # One plain search with the packing bound took 497,845 nodes; with the
    # coverage bound alone it took 2,322,750 and exceeded the default budget
    g = generate(GeneratorSpec("toroidalGrid", {"rows": 8, "cols": 8}))
    best = minimum_dominating_set(g, g.labels)
    assert len(best) == 16
    assert verify_domination(g, best, g.labels)


def test_torus_8x8_optimum_from_integer_program():
    # an independent proof that the 16 members found above are a minimum
    g = generate(GeneratorSpec("toroidalGrid", {"rows": 8, "cols": 8}))
    assert milp_mds_size(g, g.labels, time_limit=60) == 16


def test_long_path_size():
    g = path(2000)
    assert mds_size(g, g.labels) == 667


def test_torus_11x11_size_within_default_budget():
    # the size pass alone: 926,651 nodes, about 8 s
    g = generate(GeneratorSpec("toroidalGrid", {"rows": 11, "cols": 11}))
    assert mds_size(g, g.labels) == 27


def test_torus_11x11_minimum_set_exceeds_default_budget():
    # the size pass takes 926,651 nodes and the witness pass from 27 then
    # 140,470: 1,067,121 in all, past the default budget of 10^6
    g = generate(GeneratorSpec("toroidalGrid", {"rows": 11, "cols": 11}))
    with pytest.raises(EnumerationBudgetError):
        minimum_dominating_set(g, g.labels)


def test_grid_10x10_size_within_default_budget():
    # the size pass alone: 109,105 nodes, under 1 s
    g = generate(GeneratorSpec("grid", {"rows": 10, "cols": 10}))
    assert mds_size(g, g.labels) == 24
    assert milp_mds_size(g, g.labels, time_limit=60) == 24


def test_grid_10x10_minimum_set_exceeds_default_budget():
    # the packing bound rarely prunes on grids, and the witness pass runs
    # without the swap rule: it needs 1,549,667 nodes after the size
    # pass's 109,105, so the query runs out of budget in the witness pass
    g = generate(GeneratorSpec("grid", {"rows": 10, "cols": 10}))
    with pytest.raises(EnumerationBudgetError):
        minimum_dominating_set(g, g.labels)


def test_algorithm_b_on_torus_10x10():
    # the error set is the whole torus, so the repair is one exact search
    g = generate(GeneratorSpec("toroidalGrid", {"rows": 10, "cols": 10}))
    report = run_cell(g, {}, {"alg": "B"})
    assert (report.status, report.output_size) == ("ok", 20)


@pytest.mark.parametrize("n", [400, 500, 800])
def test_algorithm_a_on_triangulation(n):
    g = generate(GeneratorSpec("randomPlanarTriangulation", {"n": n}, seed=1))
    assert run_cell(g, {}, {"alg": "A"}).status == "ok"


def test_algorithm_a_on_triangulation_1000_exceeds_default_budget():
    # a hub's radius-3 target is most of the graph, and a best-set prefix search runs out
    g = generate(GeneratorSpec("randomPlanarTriangulation", {"n": 1000}, seed=1))
    report = run_cell(g, {}, {"alg": "A"})
    assert report.status == "resource"
    assert "best_minimum_dominating_set: exact search exceeded" in report.message


@pytest.mark.parametrize(
    "spec",
    [
        GeneratorSpec("grid", {"rows": 160, "cols": 160}),
        GeneratorSpec("gadgetGraft", {"n": 40000, "gadgets": 80, "spacing": 150, "gadget": "K5"}, seed=1),
        GeneratorSpec("randomPlanarTriangulation", {"n": 5000}, seed=1),
    ],
    ids=["grid-160x160", "k5-graft-n40400", "triangulation-n5000"],
)
def test_planarity_verdict_equals_networkx_at_scale(spec):
    g = generate(spec)
    assert is_planar(g) == networkx_is_planar(g)

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
    mds_size,
    minimum_dominating_set,
    run_cell,
    verify_domination,
)
from reference import milp_mds_size

pytestmark = pytest.mark.stress


def test_torus_8x8_repair_exceeds_default_budget():
    # B repairs this torus whole; within 10^6 nodes the size search finds a
    # 16-cover below greedy's 17 but cannot prove it optimal
    g = generate(GeneratorSpec("toroidalGrid", {"rows": 8, "cols": 8}))
    with pytest.raises(EnumerationBudgetError):
        minimum_dominating_set(g, g.labels)


def test_torus_8x8_minimum_set_within_raised_budget():
    # the same search ends after 2,322,750 nodes: the ceiling's measured size
    g = generate(GeneratorSpec("toroidalGrid", {"rows": 8, "cols": 8}))
    best = minimum_dominating_set(g, g.labels, budget=3 * 10**6)
    assert len(best) == 16
    assert verify_domination(g, best, g.labels)


def test_torus_8x8_optimum_from_integer_program():
    # an independent proof that the 16 members found above are a minimum
    g = generate(GeneratorSpec("toroidalGrid", {"rows": 8, "cols": 8}))
    assert milp_mds_size(g, g.labels, time_limit=60) == 16


def test_long_path_size():
    g = path(2000)
    assert mds_size(g, g.labels) == 667


def test_algorithm_a_on_triangulation_400():
    g = generate(GeneratorSpec("randomPlanarTriangulation", {"n": 400}, seed=1))
    assert run_cell(g, {}, {"alg": "A"}).status == "ok"

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
)

pytestmark = pytest.mark.stress


def test_torus_8x8_repair_exceeds_default_budget():
    # B repairs this torus whole; the size search proves nothing in 10^6 nodes
    g = generate(GeneratorSpec("toroidalGrid", {"rows": 8, "cols": 8}))
    with pytest.raises(EnumerationBudgetError):
        minimum_dominating_set(g, g.labels)


def test_long_path_size():
    g = path(2000)
    assert mds_size(g, g.labels) == 667


def test_algorithm_a_on_triangulation_400():
    g = generate(GeneratorSpec("randomPlanarTriangulation", {"n": 400}, seed=1))
    assert run_cell(g, {}, {"alg": "A"}).status == "ok"

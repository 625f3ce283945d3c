import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import complete_bipartite, complete_graph, corpus_specs, grid, path, random_graph
from localmds import (
    GeneratorSpec,
    LabeledGraph,
    PLANAR,
    generate,
    is_planar,
)
from reference import networkx_is_planar, planar_by_subdivisions

ROOT = Path(__file__).resolve().parent.parent

# Past the acceptance corpus: larger members of every family, triangulations
# with and without deletions, and both gadget kinds on both hosts.
LARGER_SPECS = [
    GeneratorSpec("grid", {"rows": 30, "cols": 30}),
    GeneratorSpec("grid", {"rows": 2, "cols": 300}),
    GeneratorSpec("randomPlanarTriangulation", {"n": 300}, seed=5),
    GeneratorSpec("randomPlanarTriangulation", {"n": 300, "deletions": 250}, seed=5),
    GeneratorSpec("randomPlanarTriangulation", {"n": 300, "deletions": 600}, seed=6),
    GeneratorSpec("toroidalGrid", {"rows": 3, "cols": 40}),
    GeneratorSpec("toroidalGrid", {"rows": 12, "cols": 15}),
    GeneratorSpec("projectiveCirculant", {"g": 30}),
    GeneratorSpec("projectiveCirculant", {"g": 200}),
    GeneratorSpec("gadgetGraft", {"n": 400, "gadgets": 4, "spacing": 90}, seed=2),
    GeneratorSpec("gadgetGraft", {"n": 400, "gadgets": 4, "spacing": 90, "gadget": "projectiveCirculant"}, seed=2),
    GeneratorSpec(
        "gadgetGraft",
        {"host": "grid", "rows": 6, "cols": 30, "gadgets": 2, "spacing": 12, "gadget": "projectiveCirculant"},
        seed=3,
    ),
]


def _spec_id(spec: GeneratorSpec) -> str:
    return "-".join([spec.family, *(f"{k}{v}" for k, v in spec.params.items()), f"seed{spec.seed}"])


def _subdivided(g: LabeledGraph, k: int) -> LabeledGraph:
    """g with every edge replaced by a path through k new vertices."""
    n, edges = g.n, []
    for u, v in g.edges():
        chain = [u, *range(n, n + k), v]
        n += k
        edges.extend(zip(chain, chain[1:]))
    return LabeledGraph.from_edges(n, edges)


class TestTextbookCases:
    def test_k4_planar(self):
        assert is_planar(complete_graph(4))

    def test_k5_not_planar(self):
        assert not is_planar(complete_graph(5))

    def test_k33_not_planar(self):
        assert not is_planar(complete_bipartite(3, 3))

    def test_big_grid_planar(self):
        assert is_planar(grid(10, 10))

    def test_projective_circulant_not_planar(self):
        # antipodal circulant on 8 vertices; the reference search agrees
        g = generate(GeneratorSpec("projectiveCirculant", {"g": 1}))
        assert not is_planar(g)
        assert not planar_by_subdivisions(g)

    def test_projective_circulants_up_to_12_vertices(self):
        for genus in (1, 2, 3):
            g = generate(GeneratorSpec("projectiveCirculant", {"g": genus}))
            assert is_planar(g) == planar_by_subdivisions(g) == False  # noqa: E712

    def test_empty_and_tiny(self):
        assert is_planar(LabeledGraph.from_edges(0))
        assert is_planar(LabeledGraph.from_edges(1))
        assert is_planar(path(2))


class TestAgainstSubdivisionReference:
    def test_random_small_graphs(self, rng):
        for _ in range(60):
            n = rng.randrange(1, 10)
            g = random_graph(n, rng.uniform(0.2, 0.8), rng)
            assert is_planar(g) == planar_by_subdivisions(g)

    def test_dense_small_graphs(self, rng):
        for _ in range(20):
            g = random_graph(rng.randrange(5, 9), 0.85, rng)
            assert is_planar(g) == planar_by_subdivisions(g)


@pytest.mark.parametrize("spec", corpus_specs() + LARGER_SPECS, ids=_spec_id)
def test_verdict_equals_networkx_on_generated_graphs(spec):
    g = generate(spec)
    assert is_planar(g) == networkx_is_planar(g)


class TestScale:
    # both searches are iterative: a DFS as deep as the graph is long must
    # give a verdict, not a RecursionError
    def test_long_path_is_planar(self):
        assert is_planar(path(200_000))

    def test_long_subdivided_k33_is_not_planar(self):
        g = _subdivided(complete_bipartite(3, 3), 10_000)
        assert (g.n, g.m) == (90_006, 90_009)
        assert not is_planar(g)


def test_importing_the_package_does_not_load_networkx():
    # networkx is only the tests' reference tester
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = "import localmds, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestProperties:
    def test_edge_count_necessary_condition(self, rng):
        for _ in range(25):
            g = random_graph(rng.randrange(3, 20), 0.4, rng)
            if is_planar(g):
                assert g.m <= 3 * g.n - 6 or g.n < 3

    def test_hereditary_under_deletions(self, rng):
        for _ in range(10):
            g = random_graph(rng.randrange(4, 16), 0.3, rng)
            if not is_planar(g):
                continue
            keep = [v for v in g.labels if rng.random() < 0.6]
            assert is_planar(g.induced(keep))

    def test_verdict_invariant_under_relabeling(self, rng):
        for _ in range(10):
            g = random_graph(9, 0.5, rng)
            perm = list(g.labels)
            rng.shuffle(perm)
            h = LabeledGraph.from_edges(
                9, [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges()]
            )
            assert is_planar(g) == is_planar(h)


class TestClassPredicate:
    def test_planar_predicate(self):
        assert PLANAR.name == "planar"
        assert PLANAR.test(grid(3, 3))
        assert not PLANAR.test(complete_graph(5))

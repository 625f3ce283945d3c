import random
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from localmds import GeneratorSpec, LabeledGraph, generate

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic. Hypothesis still caches source
# literals under `.hypothesis/constants/`, which .gitignore lists.
settings.register_profile("localmds", derandomize=True, database=None, deadline=None, max_examples=300)
settings.load_profile("localmds")


def complete_graph(n: int) -> LabeledGraph:
    return LabeledGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> LabeledGraph:
    return LabeledGraph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def random_graph(n: int, p: float, rng: random.Random) -> LabeledGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return LabeledGraph.from_edges(n, edges)


def disjoint_union(g: LabeledGraph, h: LabeledGraph) -> LabeledGraph:
    """g on its own labels, then h with its labels shifted past g's."""
    return LabeledGraph.from_edges(g.n + h.n, list(g.edges()) + [(u + g.n, v + g.n) for u, v in h.edges()])


def star(leaves: int) -> LabeledGraph:
    return LabeledGraph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def path(n: int) -> LabeledGraph:
    return generate(GeneratorSpec("path", {"n": n}))


def cycle(n: int) -> LabeledGraph:
    return generate(GeneratorSpec("cycle", {"n": n}))


def grid(rows: int, cols: int) -> LabeledGraph:
    return generate(GeneratorSpec("grid", {"rows": rows, "cols": cols}))


def corpus_specs() -> list[GeneratorSpec]:
    """The acceptance corpus: 200+ graphs over every family, up to 400 vertices."""
    specs: list[GeneratorSpec] = []
    for n in (1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 20, 30, 40, 60, 80, 120, 160, 240, 320, 400):
        specs.append(GeneratorSpec("path", {"n": n}))
    for n in (3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 16, 18, 22, 25, 30, 40, 60, 80, 120, 180, 400):
        specs.append(GeneratorSpec("cycle", {"n": n}))
    for rows, cols in (
        (1, 1), (1, 7), (2, 2), (2, 3), (2, 5), (2, 8), (3, 3), (3, 4), (3, 5),
        (4, 4), (4, 6), (4, 9), (5, 5), (5, 8), (6, 6), (7, 9), (8, 12), (10, 10),
        (13, 13), (20, 20),
    ):
        specs.append(GeneratorSpec("grid", {"rows": rows, "cols": cols}))
    for rows, cols in ((3, 3), (3, 4), (3, 5), (4, 4), (4, 5), (5, 5), (5, 6), (6, 6)):
        specs.append(GeneratorSpec("toroidalGrid", {"rows": rows, "cols": cols}))
    for n in (4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 18, 20, 22, 25, 28, 32, 36, 40, 45, 50, 60, 70, 80):
        for seed in (1, 2, 3, 4):
            specs.append(GeneratorSpec("randomPlanarTriangulation", {"n": n}, seed=seed))
    for n, deletions in ((10, 5), (15, 8), (20, 12), (25, 15), (30, 20), (40, 28), (50, 35), (60, 45)):
        for seed in (1, 2):
            specs.append(GeneratorSpec("randomPlanarTriangulation", {"n": n, "deletions": deletions}, seed=seed))
    for g in (1, 2, 3, 4, 5, 6, 8, 10):
        specs.append(GeneratorSpec("projectiveCirculant", {"g": g}))
    for alpha in (2, 3):
        specs.append(GeneratorSpec("depth2Tree", {"alpha": alpha}))
    graft_configs = [
        ({"n": 60, "gadgets": 1, "spacing": 10}, 1),
        ({"n": 60, "gadgets": 1, "gadget": "projectiveCirculant", "spacing": 10}, 2),
        ({"n": 80, "gadgets": 2, "spacing": 40}, 3),
        ({"n": 90, "gadgets": 2, "gadget": "projectiveCirculant", "spacing": 30}, 4),
        ({"n": 100, "gadgets": 3, "spacing": 35}, 5),
        ({"n": 120, "gadgets": 2, "spacing": 50}, 6),
        ({"n": 150, "gadgets": 2, "spacing": 70}, 7),
        ({"n": 200, "gadgets": 3, "spacing": 60}, 8),
        ({"n": 70, "gadgets": 2, "spacing": 20}, 9),
        ({"host": "grid", "rows": 3, "cols": 40, "gadgets": 1, "spacing": 1}, 10),
    ]
    for params, seed in graft_configs:
        specs.append(GeneratorSpec("gadgetGraft", params, seed=seed))
    return specs


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)

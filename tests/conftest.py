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


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)

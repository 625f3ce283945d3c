from conftest import complete_bipartite, complete_graph, grid, path, random_graph
from localmds import (
    GeneratorSpec,
    LabeledGraph,
    PLANAR,
    generate,
    is_planar,
)
from reference import planar_by_subdivisions


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

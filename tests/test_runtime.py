import ast
from pathlib import Path

import pytest

from conftest import cycle, grid, path, random_graph
from reference import item_width
import localmds
from localmds import composition, nomination, runtime
from localmds import (
    ALGORITHM_A,
    PLANAR,
    GeneratorSpec,
    InputError,
    LabeledGraph,
    LocalAlgorithm,
    RoundLedger,
    RuleError,
    algorithm_a,
    ball,
    generate,
    run_by_messages,
    run_by_views,
    t_error_set,
)

MIN_LABEL_LOCAL = LocalAlgorithm("local-min", 1, lambda view: view.center == min(view.vertices))
OWN_LABEL = LocalAlgorithm("own-label", 0, lambda view: view.center)
DEGREE_RULE = LocalAlgorithm("degree", 1, lambda view: view.subgraph.degree(view.center))


class TestRunByViews:
    def test_local_minimum_on_path(self):
        assert run_by_views(path(3), MIN_LABEL_LOCAL) == {0: True, 1: False, 2: False}

    def test_radius_zero_identity(self):
        g = cycle(5)
        assert run_by_views(g, OWN_LABEL) == {v: v for v in g.labels}

    def test_algorithm_a_rule_on_p4(self):
        # hand-simulated nominations, cross-checked by the exact oracle
        from localmds import best_minimum_dominating_set

        g = path(4)
        assert best_minimum_dominating_set(g, g.labels) == {1, 2}
        decisions = run_by_views(g, ALGORITHM_A)
        assert {u: d.nominee for u, d in decisions.items()} == {0: 1, 1: 1, 2: 1, 3: 2}

    def test_rule_failure_carries_center(self):
        def explode(view):
            if view.center == 2:
                raise ValueError("boom")
            return None

        with pytest.raises(RuleError) as info:
            run_by_views(path(4), LocalAlgorithm("explode", 1, explode))
        assert info.value.center == 2


class TestExecutorEquivalence:
    @pytest.mark.parametrize(
        "spec",
        [
            GeneratorSpec("path", {"n": 9}),
            GeneratorSpec("cycle", {"n": 8}),
            GeneratorSpec("grid", {"rows": 3, "cols": 4}),
            GeneratorSpec("toroidalGrid", {"rows": 3, "cols": 4}),
            GeneratorSpec("randomPlanarTriangulation", {"n": 14}, seed=5),
            GeneratorSpec("projectiveCirculant", {"g": 2}),
        ],
    )
    @pytest.mark.parametrize("alg", [MIN_LABEL_LOCAL, OWN_LABEL, DEGREE_RULE, ALGORITHM_A])
    def test_views_equal_messages(self, spec, alg):
        g = generate(spec)
        by_views = run_by_views(g, alg)
        by_messages, ledger = run_by_messages(g, alg)
        assert by_views == by_messages
        assert ledger.view_collection == alg.radius
        assert ledger.total == alg.radius

    def test_disconnected_graph(self):
        g = LabeledGraph.from_edges(5, [(0, 1), (2, 3)])
        assert run_by_views(g, DEGREE_RULE) == run_by_messages(g, DEGREE_RULE)[0]

    def test_six_cycle_radius_two_ledger(self):
        counter = LocalAlgorithm("count-seen", 2, lambda view: len(view.vertices))
        decisions, ledger = run_by_messages(cycle(6), counter)
        assert ledger.view_collection == 2 and ledger.total == 2
        assert decisions == {v: 5 for v in range(6)}

    def test_message_views_are_exact_balls(self, rng):
        # the flooded reconstruction must equal the direct ball, labels and all
        grab = LocalAlgorithm("grab-view", 2, lambda view: view)
        for _ in range(5):
            g = random_graph(16, 0.18, rng)
            flooded, _ = run_by_messages(g, grab)
            for u in g.labels:
                assert flooded[u] == ball(g, u, 2)


class TestDeterminism:
    def test_repeated_runs_identical(self, rng):
        g = random_graph(20, 0.2, rng)
        first = run_by_views(g, ALGORITHM_A)
        second = run_by_views(g, ALGORITHM_A)
        assert first == second

    def test_rebuilt_graph_same_decisions(self, rng):
        # same labeled structure built in a different edge order
        g = random_graph(14, 0.25, rng)
        edges = list(g.edges())
        rng.shuffle(edges)
        h = LabeledGraph.from_edges(14, edges)
        assert run_by_views(g, ALGORITHM_A) == run_by_views(h, ALGORITHM_A)

    def test_relabel_invariant_rule(self, rng):
        # label-blind rule: verdict maps through any permutation
        in_triangle = LocalAlgorithm(
            "in-triangle",
            1,
            lambda view: any(
                view.subgraph.neighbors(a) & view.subgraph.neighbors(view.center) - {a}
                for a in view.subgraph.neighbors(view.center)
            ),
        )
        for _ in range(5):
            g = random_graph(12, 0.3, rng)
            perm = list(g.labels)
            rng.shuffle(perm)
            h = LabeledGraph.from_edges(
                12, [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges()]
            )
            base = run_by_views(g, in_triangle)
            mapped = run_by_views(h, in_triangle)
            assert all(mapped[perm[u]] == base[u] for u in g.labels)


class TestLocality:
    def test_far_gadget_never_changes_decision(self, rng):
        # graft a gadget strictly beyond the rule radius; decisions at the
        # original vertices must not move
        for alg in (MIN_LABEL_LOCAL, DEGREE_RULE, ALGORITHM_A):
            g = path(14)
            base = run_by_views(g, alg)
            attach = 13  # distance from vertex 0..8 is > 4
            edges = list(g.edges())
            extra = 14
            for _ in range(3):  # a small pendant triangle chain
                edges += [(attach, extra), (extra, extra + 1), (attach, extra + 1)]
                extra += 2
            h = LabeledGraph.from_edges(extra, edges)
            moved = run_by_views(h, alg)
            for u in range(9):  # all further than alg.radius from the graft
                assert moved[u] == base[u]


class TestRoundLedger:
    def test_total_is_sum(self):
        ledger = RoundLedger(view_collection=4, algorithm_run=1, repair=2)
        assert ledger.total == 7

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            RoundLedger(view_collection=-1)

    def test_negative_radius_rejected(self):
        with pytest.raises(InputError):
            LocalAlgorithm("bad", -2, lambda view: None)


class TestMemoised:
    def test_best_sets_hold_one_key_per_distinct_search(self):
        # the 100 views of the 10x10 grid have 81 distinct ranked forms
        nomination.BEST_SETS.clear()
        algorithm_a(grid(10, 10))
        assert len(nomination.BEST_SETS) == 81
        algorithm_a(grid(10, 10))
        assert len(nomination.BEST_SETS) == 81

    def test_best_set_keys_are_packed(self):
        # each key is (n, code, targets), the code one item per ball edge, of the
        # narrowest width that holds n*n - 1 (one byte up to n = 16, then two)
        g = grid(10, 10)
        nomination.BEST_SETS.clear()
        algorithm_a(g)
        views = [ball(g, v, nomination.VIEW_RADIUS) for v in g.labels]
        shapes = {(len(view.dist), item_width(len(view.dist)) * view.subgraph.m) for view in views}
        assert all(type(code) is bytes and type(targets) is bytes for _, code, targets in nomination.BEST_SETS)
        assert {(n, len(code)) for n, code, _ in nomination.BEST_SETS} == shapes

    def test_verdicts_hold_one_key_per_predicate_call(self):
        # radius-15 views of a 40-vertex path are paths of 16..31 vertices;
        # a view is keyed off its host, so only a verdict miss builds its graph
        class CountingGraph(LabeledGraph):
            built = 0

            def induced(self, keep):
                CountingGraph.built += 1
                return super().induced(keep)

        host = CountingGraph({v: path(40).neighbors(v) for v in range(40)})
        composition.VERDICTS.clear()
        assert t_error_set(host, PLANAR, 15) == frozenset()
        assert CountingGraph.built == len(composition.VERDICTS) == 16

    def test_a_raising_compute_stores_nothing(self):
        memo, calls = {}, []

        def flaky():
            calls.append(None)
            if len(calls) == 1:
                raise ValueError("budget")
            return 7

        with pytest.raises(ValueError):
            runtime.memoised(memo, "k", flaky)
        assert memo == {}
        assert runtime.memoised(memo, "k", flaky) == 7
        assert runtime.memoised(memo, "k", flaky) == 7
        assert memo == {"k": 7} and len(calls) == 2

    def test_memo_size_bounds_every_memo(self, monkeypatch):
        g = grid(6, 8)
        expected = algorithm_a(g)

        class PeakDict(dict):
            peak = 0

            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                self.peak = max(self.peak, len(self))

        memo = PeakDict()
        monkeypatch.setattr(runtime, "MEMO_SIZE", 3)
        monkeypatch.setattr(nomination, "BEST_SETS", memo)
        assert algorithm_a(g) == expected
        assert memo.peak == len(memo) == 3
        fifo = {}
        for key in range(5):
            runtime.memoised(fifo, key, lambda: key)
        assert list(fifo) == [2, 3, 4]  # the oldest keys went first

    def test_no_function_caches_in_the_package(self):
        # every memo is a named dict whose size can be read; a hidden
        # functools cache would escape that
        offenders = []
        for source in sorted(Path(localmds.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(source.read_text())):
                if isinstance(node, ast.ImportFrom) and node.module == "functools":
                    names = {alias.name for alias in node.names}
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "functools":
                    names = {node.attr}
                else:
                    continue
                offenders += [f"{source.name}:{node.lineno} {name}" for name in names & {"lru_cache", "cache"}]
        assert offenders == []

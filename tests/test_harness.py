import json
import re

import pytest

from conftest import cycle, grid, path, random_graph
from localmds import (
    ClassPredicate,
    EnumerationBudgetError,
    GeneratorSpec,
    InputError,
    InvariantError,
    LocalMdsError,
    RuleError,
    RunReport,
    distance3_lower_bound,
    experiment,
    generate,
    mds_size,
    run_cell,
    verify_domination,
    write_csv,
)
from localmds import harness
from localmds.errors import require_int
from localmds.harness import error_category

SUITE = {
    "oracle_max_n": 25,
    "graphs": [
        {"family": "path", "params": {"n": 12}},
        {"family": "grid", "params": {"rows": 3, "cols": 4}},
        {"family": "projectiveCirculant", "params": {"g": 1}},
        {"family": "randomPlanarTriangulation", "params": {"n": 18}, "seed": 3},
    ],
    "algorithms": [{"alg": "A"}, {"alg": "B", "control_fn": "linear:1", "dim": 2}],
}


class TestLowerBound:
    def test_path(self):
        # vertices 0,3,6,... are pairwise three apart
        assert distance3_lower_bound(path(9)) == 3

    def test_never_exceeds_optimum(self, rng):
        for _ in range(10):
            g = random_graph(rng.randrange(1, 14), 0.25, rng)
            assert distance3_lower_bound(g) <= mds_size(g, g.labels)


class TestRunCell:
    def test_a_cell_fields(self):
        g = grid(3, 4)
        report = run_cell(g, {"family": "grid"}, {"alg": "A"})
        assert report.status == "ok"
        assert report.output_size == len(report.output)
        assert report.optimum == mds_size(g, g.labels)
        assert report.ratio == report.output_size / report.optimum
        assert report.ledger["total"] == 5
        assert verify_domination(g, frozenset(report.output), g.labels)

    def test_b_cell_includes_errors(self):
        g = generate(GeneratorSpec("projectiveCirculant", {"g": 1}))
        report = run_cell(g, {}, {"alg": "B"})
        assert report.status == "ok"
        assert report.errors["errors"] == sorted(g.labels)
        assert report.errors["radius"] == 15
        assert report.ledger["total"] == 15 + report.errors["delta"] + 2

    def test_large_graph_reports_ratio_upper_bound(self):
        g = path(60)
        report = run_cell(g, {}, {"alg": "A"}, oracle_max_n=25)
        assert report.optimum is None and report.ratio is None
        assert report.ratio_upper_bound == report.output_size / report.lower_bound
        assert report.ratio_upper_bound >= 1.0

    def test_unknown_algorithm_is_cell_error(self):
        report = run_cell(path(5), {}, {"alg": "Z"})
        assert report.status == "input"
        assert report.output is None

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"k": "x"}, "uniformity scale k must be an integer, got 'x'"),
            ({"k": 4.9}, "uniformity scale k must be an integer, got 4.9"),
            ({"k": True}, "uniformity scale k must be an integer, got True"),
            ({"k": -1}, "uniformity scale k must be >= 0, got -1"),
            ({"alpha": [1]}, "uniformity ratio alpha must be an integer, got [1]"),
            ({"dim": "2"}, "dimension must be an integer, got '2'"),
            ({"dim": -1}, "dimension must be >= 0, got -1"),
            ({"control_fn": "linear:0"}, "linear control factor must be >= 1, got 0"),
        ],
    )
    def test_bad_b_config_is_an_input_error(self, config, message):
        # a bad constant is the caller's input error, never `unexpected` and never a run
        report = run_cell(path(5), {}, dict(config, alg="B"))
        assert (report.status, report.message) == ("input", message)
        assert report.output is None

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"alg": "B", "K": 9}, "B takes no config key 'K' (it takes: ['control_fn', 'k', 'alpha', 'dim'])"),
            ({"alg": "A", "k": 2}, "A takes no config key 'k' (it takes: [])"),
        ],
    )
    def test_unknown_config_key_is_an_input_error(self, config, message):
        # a key no algorithm reads would otherwise run the defaults while the
        # CSV config column records the key
        report = run_cell(path(6), {}, config)
        assert (report.status, report.message) == ("input", message)
        assert report.output is None

    @pytest.mark.parametrize(
        "alg, keyword, message",
        [
            ("A", {"oracle_max_n": "x"}, "oracle_max_n must be an integer, got 'x'"),
            ("A", {"oracle_max_n": 2.5}, "oracle_max_n must be an integer, got 2.5"),
            ("B", {"budget": "x"}, "budget must be an integer, got 'x'"),
            ("A", {"budget": True}, "budget must be an integer, got True"),
        ],
    )
    def test_bad_keyword_argument_is_an_input_error(self, alg, keyword, message):
        # a library caller's bad limit ends the cell `input`, never `unexpected`
        report = run_cell(path(4), {}, {"alg": alg}, **keyword)
        assert (report.status, report.message) == ("input", message)
        assert report.output is None

    def test_budget_error_category(self):
        g = grid(5, 5)
        report = run_cell(g, {}, {"alg": "A"}, budget=2)
        assert report.status == "resource"
        # the budget caps the optimum oracle, never A's per-view searches
        report = run_cell(g, {}, {"alg": "A"}, budget=2, oracle_max_n=0)
        assert report.status == "ok"


class TestErrorCategory:
    def test_resource_failures(self):
        for exc in (EnumerationBudgetError("x"), RecursionError("depth"), MemoryError()):
            assert error_category(exc) == "resource"
            # the way runtime._apply wraps a failing rule
            wrapped = RuleError(0, str(exc))
            wrapped.__cause__ = exc
            assert error_category(wrapped) == "resource"

    @pytest.mark.parametrize(
        "exc, category", [(ValueError("boom"), "internal"), (RecursionError("depth"), "resource")]
    )
    def test_b_component_check_failure_keeps_its_category(self, monkeypatch, exc, category):
        # B checks a whole planar component with one predicate call; a failure
        # there is categorised like one inside the per-vertex rule
        def raises(h):
            raise exc

        monkeypatch.setattr(harness, "PLANAR", ClassPredicate("raises", raises))
        report = run_cell(grid(3, 3), {}, {"alg": "B"})
        assert report.status == category
        assert report.message.startswith("rule failed at vertex 0: ")

    def test_other_categories(self):
        assert error_category(InputError("x")) == "input"
        assert error_category(RuleError(0, "x")) == "internal"
        assert error_category(InvariantError("x")) == "internal"
        assert error_category(LocalMdsError("x")) == "internal"
        assert error_category(ValueError("x")) == "unexpected"


class TestRequireInt:
    def test_accepts_ints_at_or_above_the_minimum(self):
        assert require_int(0, "x") == 0
        assert require_int(-5, "x") == -5
        assert require_int(3, "x", 3) == 3

    @pytest.mark.parametrize("value", [True, False, 2.0, "2", None, [2]])
    def test_rejects_everything_that_is_not_an_int(self, value):
        with pytest.raises(InputError, match=f"^where must be an integer, got {re.escape(repr(value))}$"):
            require_int(value, "where", 0)

    def test_below_the_minimum(self):
        with pytest.raises(InputError, match="^radius must be >= 1, got 0$"):
            require_int(0, "radius", 1)


class TestExperiment:
    def test_rows_and_aggregates(self):
        reports, aggregates = experiment(SUITE)
        assert len(reports) == 8
        assert all(r.status == "ok" for r in reports)
        assert aggregates["A"]["cells"] == 4
        assert aggregates["A"]["failures"] == 0
        assert aggregates["A"]["max_ratio"] >= 1.0
        assert aggregates["A"]["mean_ratio"] <= aggregates["A"]["max_ratio"]

    def test_cell_failures_do_not_abort(self):
        suite = dict(SUITE, graphs=[{"family": "nosuch"}, {"family": "path", "params": {"n": 5}}])
        reports, aggregates = experiment(suite)
        assert len(reports) == 4
        assert [r.status for r in reports] == ["input", "input", "ok", "ok"]
        assert aggregates["A"]["failures"] == 1

    def test_same_seed_byte_identical_csv(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(experiment(SUITE)[0], p1)
        write_csv(experiment(SUITE)[0], p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header.startswith("family,params,seed,n,m,alg,config,status")

    def test_malformed_suite(self):
        from localmds import InputError

        with pytest.raises(InputError):
            experiment({"graphs": []})


class TestRunReportSerialization:
    def test_round_trip_re_verifies(self):
        g = cycle(12)
        report = run_cell(g, {"family": "cycle"}, {"alg": "A"})
        back = RunReport.from_json(report.to_json())
        assert back.output == report.output
        assert verify_domination(g, frozenset(back.output), g.labels)
        assert back.ledger == report.ledger

    def test_rejects_alien_payload(self):
        from localmds import InputError

        with pytest.raises(InputError):
            RunReport.from_json(json.dumps({"schema": "other", "graph": {}}))
        valid = json.loads(run_cell(cycle(6), {}, {"alg": "A"}).to_json())
        for text in (
            '{"schema": "localmds.run_report@1"}',
            "nope",
            "[]",
            json.dumps(dict(valid, extra=1)),
            json.dumps(dict(valid, output="12", output_size="two")),
            json.dumps(dict(valid, output=[1, "2"])),
            json.dumps(dict(valid, output_size=True)),
            json.dumps(dict(valid, ledger=[])),
        ):
            with pytest.raises(InputError, match="^not a localmds run report"):
                RunReport.from_json(text)

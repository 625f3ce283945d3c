import json

import pytest

from conftest import cycle, grid, path, random_graph
from localmds import (
    EnumerationBudgetError,
    GeneratorSpec,
    InputError,
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

    def test_other_categories(self):
        assert error_category(InputError("x")) == "input"
        assert error_category(RuleError(0, "x")) == "internal"
        assert error_category(ValueError("x")) == "unexpected"


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

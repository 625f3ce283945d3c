import json

import pytest

from localmds import read_edge_list, verify_domination, write_edge_list, write_vertex_set
from localmds.cli import main
from conftest import grid, path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_gen_grid(self, tmp_path, capsys):
        out = tmp_path / "g.edges"
        code, stdout, _ = run_cli(
            capsys, "gen", "--family", "grid", "--param", "rows=3", "--param", "cols=3",
            "--seed", "1", "-o", str(out),
        )
        assert code == 0
        meta = json.loads(stdout)
        assert meta["n"] == 9 and meta["m"] == 12 and meta["genus_upper_bound"] == 0
        assert read_edge_list(out).n == 9

    def test_gen_bad_param(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "gen", "--family", "path", "--param", "n", "-o", str(tmp_path / "x"),
        )
        assert code == 2
        assert json.loads(stderr)["error"]["category"] == "input"

    def test_gen_missing_param(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "gen", "--family", "path", "-o", str(tmp_path / "x"),
        )
        assert code == 2
        assert "n" in json.loads(stderr)["error"]["message"]


class TestRun:
    def test_run_a_writes_report(self, tmp_path, capsys):
        gfile = tmp_path / "g.edges"
        write_edge_list(grid(3, 4), gfile)
        rfile = tmp_path / "report.json"
        code, stdout, _ = run_cli(
            capsys, "run", "--alg", "A", "--graph", str(gfile), "-o", str(rfile),
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["status"] == "ok" and summary["rounds"] == 5
        payload = json.loads(rfile.read_text())
        assert payload["schema"] == "localmds.run_report@1"
        assert payload["ledger"]["total"] == 5
        assert verify_domination(grid(3, 4), payload["output"], range(12))

    def test_run_b_flags(self, tmp_path, capsys):
        gfile = tmp_path / "g.edges"
        write_edge_list(path(20), gfile)
        code, stdout, _ = run_cli(
            capsys, "run", "--alg", "B", "--graph", str(gfile),
            "--control-fn", "linear:1", "--k", "4", "--alpha", "302", "--dim", "2",
        )
        assert code == 0
        assert json.loads(stdout)["rounds"] == 17  # T=15, no errors

    def test_run_missing_graph_file(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "run", "--alg", "A", "--graph", str(tmp_path / "none.edges"),
        )
        assert code == 2
        assert json.loads(stderr)["error"]["category"] == "io"


class TestOracle:
    def test_oracle_whole_graph(self, tmp_path, capsys):
        gfile = tmp_path / "g.edges"
        write_edge_list(path(4), gfile)
        code, stdout, _ = run_cli(
            capsys, "oracle", "--graph", str(gfile), "--best", "--all",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["mds_size"] == 2
        assert payload["best"] == [1, 2]
        assert payload["count"] == 4

    def test_oracle_with_target(self, tmp_path, capsys):
        gfile = tmp_path / "g.edges"
        write_edge_list(path(6), gfile)
        tfile = tmp_path / "t.txt"
        write_vertex_set({0, 1}, tfile)
        code, stdout, _ = run_cli(
            capsys, "oracle", "--graph", str(gfile), "--target", str(tfile),
        )
        assert code == 0
        assert json.loads(stdout)["mds_size"] == 1

    def test_oracle_budget(self, tmp_path, capsys):
        gfile = tmp_path / "g.edges"
        write_edge_list(grid(5, 5), gfile)
        code, _, stderr = run_cli(
            capsys, "oracle", "--graph", str(gfile), "--budget", "2",
        )
        assert code == 3
        assert json.loads(stderr)["error"]["category"] == "resource"


class TestVerify:
    def test_verify_true(self, tmp_path, capsys):
        gfile = tmp_path / "g.edges"
        write_edge_list(path(4), gfile)
        sfile = tmp_path / "s.txt"
        write_vertex_set({1, 2}, sfile)
        code, stdout, _ = run_cli(
            capsys, "verify", "--graph", str(gfile), "--set", str(sfile), "--planar",
        )
        assert code == 0
        assert json.loads(stdout) == {"domination": True, "planar": True}

    def test_verify_false_domination(self, tmp_path, capsys):
        gfile = tmp_path / "g.edges"
        write_edge_list(path(5), gfile)
        sfile = tmp_path / "s.txt"
        write_vertex_set({0}, sfile)
        code, stdout, _ = run_cli(capsys, "verify", "--graph", str(gfile), "--set", str(sfile))
        assert code == 1
        assert json.loads(stdout) == {"domination": False}

    def test_verify_nonplanar(self, tmp_path, capsys):
        from conftest import complete_graph

        gfile = tmp_path / "k5.edges"
        write_edge_list(complete_graph(5), gfile)
        code, stdout, _ = run_cli(capsys, "verify", "--graph", str(gfile), "--planar")
        assert code == 1
        assert json.loads(stdout) == {"planar": False}

    def test_verify_target_needs_set(self, tmp_path, capsys):
        gfile = tmp_path / "g.edges"
        write_edge_list(path(3), gfile)
        code, stdout, stderr = run_cli(
            capsys, "verify", "--graph", str(gfile), "--planar", "--target", str(tmp_path / "nothere.txt"),
        )
        assert code == 2 and stdout == ""
        error = json.loads(stderr)["error"]
        assert error["category"] == "input" and "--target needs --set" in error["message"]

    def test_verify_nothing_requested(self, tmp_path, capsys):
        gfile = tmp_path / "g.edges"
        write_edge_list(path(3), gfile)
        code, _, stderr = run_cli(capsys, "verify", "--graph", str(gfile))
        assert code == 2


class TestMeasure:
    def test_measure_suite(self, tmp_path, capsys):
        suite = {
            "oracle_max_n": 25,
            "graphs": [
                {"family": "path", "params": {"n": 10}},
                {"family": "projectiveCirculant", "params": {"g": 1}},
            ],
            "algorithms": [{"alg": "A"}, {"alg": "B"}],
        }
        sfile = tmp_path / "suite.json"
        sfile.write_text(json.dumps(suite))
        csv_out = tmp_path / "results.csv"
        reports_dir = tmp_path / "reports"
        code, stdout, _ = run_cli(
            capsys, "measure", "--suite", str(sfile), "-o", str(csv_out),
            "--reports-dir", str(reports_dir),
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["cells"] == 4
        assert summary["aggregates"]["A"]["max_ratio"] >= 1.0
        lines = csv_out.read_text().splitlines()
        assert len(lines) == 5
        assert len(list(reports_dir.glob("report_*.json"))) == 4

    def test_measure_bad_json(self, tmp_path, capsys):
        sfile = tmp_path / "suite.json"
        sfile.write_text("{nope")
        code, _, stderr = run_cli(capsys, "measure", "--suite", str(sfile), "-o", str(tmp_path / "r.csv"))
        assert code == 2

    @pytest.mark.parametrize(
        "change, entry",
        [
            ({"algorithms": ["A"]}, "algorithms[0]"),
            ({"graphs": [5]}, "graphs[0]"),
            ({"oracle_max_n": "many"}, "oracle_max_n"),
            ({"graphs": [{"family": "path", "params": [["n", 4]]}]}, "graphs[0].params"),
            ({"graphs": [{"family": "path", "params": {"n": 4}, "seed": 1.5}]}, "graphs[0].seed"),
            ({"budget": None}, "budget"),
            ({"budget": -1}, "budget"),
        ],
    )
    def test_measure_malformed_suite(self, tmp_path, capsys, change, entry):
        suite = {"graphs": [{"family": "path", "params": {"n": 4}}], "algorithms": [{"alg": "A"}], **change}
        sfile = tmp_path / "suite.json"
        sfile.write_text(json.dumps(suite))
        csv_out = tmp_path / "r.csv"
        code, stdout, stderr = run_cli(capsys, "measure", "--suite", str(sfile), "-o", str(csv_out))
        assert code == 2 and stdout == "" and not csv_out.exists()
        error = json.loads(stderr)["error"]
        assert error["category"] == "input" and entry in error["message"]

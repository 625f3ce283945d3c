"""Command-line interface.

Subcommands:
  gen      generate a graph into the canonical edge-list format
  run      run algorithm A or B on a graph file, emit a JSON run report
  oracle   exact minimum-domination queries
  verify   check domination certificates and/or planarity
  measure  run a suite file, emit a CSV table plus aggregate ratios

Exit codes: 0 success (and all requested checks true), 1 a requested check
is false, 2 input error, 3 resource budget exceeded, 4 internal error.
Failures print one JSON line {"error": {"category", "message"}} to stderr.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .domination import (
    DEFAULT_BUDGET,
    all_minimum_dominating_sets,
    best_minimum_dominating_set,
    minimum_dominating_set,
    verify_domination,
)
from .errors import InputError, LocalMdsError
from .generators import FAMILIES, GeneratorSpec, generate
from .graph import read_edge_list, read_vertex_set, write_edge_list
from .composition import CONTROL, DIM
from .harness import ORACLE_MAX_N, error_category, experiment, run_cell, write_csv
from .nomination import ALPHA, K_UNIFORM
from .planarity import is_planar

EXIT_CODES = {"ok": 0, "input": 2, "resource": 3}  # by run status or error category; any other exits 4


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise InputError(f"--param expects key=value, got {pair!r}")
        try:
            params[key] = int(value)
        except ValueError:
            params[key] = value
    return params


def _cmd_gen(args) -> int:
    spec = GeneratorSpec(family=args.family, params=_parse_params(args.param), seed=args.seed)
    g = generate(spec)
    write_edge_list(g, args.output)
    _emit(
        {
            "family": spec.family,
            "params": dict(spec.params),
            "seed": spec.seed,
            "n": g.n,
            "m": g.m,
            "genus_upper_bound": spec.genus_upper_bound,
            "output": str(args.output),
        }
    )
    return 0


def _cmd_run(args) -> int:
    g = read_edge_list(args.graph)
    descriptor = {"path": str(args.graph)}
    alg_config = {"alg": args.alg}
    if args.alg == "B":
        alg_config.update(
            {"control_fn": args.control_fn, "k": args.k, "alpha": args.alpha, "dim": args.dim}
        )
    report = run_cell(
        g, descriptor, alg_config, oracle_max_n=args.oracle_max_n, budget=args.budget
    )
    if args.output:
        Path(args.output).write_text(report.to_json() + "\n")
    _emit(
        {
            "status": report.status,
            "message": report.message,
            "output_size": report.output_size,
            "optimum": report.optimum,
            "ratio": report.ratio,
            "rounds": report.ledger["total"] if report.ledger else None,
            "report": str(args.output) if args.output else None,
        }
    )
    return EXIT_CODES.get(report.status, 4)


def _cmd_oracle(args) -> int:
    g = read_edge_list(args.graph)
    target = read_vertex_set(args.target) if args.target else frozenset(g.labels)
    payload: dict = {"n": g.n, "target_size": len(target)}
    payload["minimum"] = sorted(minimum_dominating_set(g, target, budget=args.budget))
    payload["mds_size"] = len(payload["minimum"])
    if args.best:
        payload["best"] = sorted(best_minimum_dominating_set(g, target, budget=args.budget))
    if args.all:
        sets = all_minimum_dominating_sets(g, target, budget=args.budget)
        payload["count"] = len(sets)
        payload["sets"] = [sorted(s) for s in sets]
    _emit(payload)
    return 0


def _cmd_verify(args) -> int:
    if args.target and not args.set:
        raise InputError("--target needs --set")
    g = read_edge_list(args.graph)
    verdicts: dict[str, bool] = {}
    if args.set:
        chosen = read_vertex_set(args.set)
        target = read_vertex_set(args.target) if args.target else frozenset(g.labels)
        verdicts["domination"] = verify_domination(g, chosen, target)
    if args.planar:
        verdicts["planar"] = is_planar(g)
    if not verdicts:
        raise InputError("nothing to verify: pass --set and/or --planar")
    _emit(verdicts)
    return 0 if all(verdicts.values()) else 1


def _cmd_measure(args) -> int:
    try:
        suite = json.loads(Path(args.suite).read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{args.suite}: not valid JSON ({exc})") from None
    reports, aggregates = experiment(suite)
    write_csv(reports, args.output)
    if args.reports_dir:
        out = Path(args.reports_dir)
        out.mkdir(parents=True, exist_ok=True)
        for i, report in enumerate(reports):
            (out / f"report_{i:04d}.json").write_text(report.to_json() + "\n")
    _emit({"cells": len(reports), "aggregates": aggregates, "csv": str(args.output)})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="localmds", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("run", help="run an algorithm on a graph file")
    p.add_argument("--alg", required=True, choices=("A", "B"))
    p.add_argument("--graph", required=True)
    p.add_argument("--control-fn", default=CONTROL)
    p.add_argument("--k", type=int, default=K_UNIFORM)
    p.add_argument("--alpha", type=int, default=ALPHA)
    p.add_argument("--dim", type=int, default=DIM)
    p.add_argument("--oracle-max-n", type=int, default=ORACLE_MAX_N)
    p.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="search-node cap for B's repair searches and the optimum oracle; A's searches keep the default",
    )
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("oracle", help="exact minimum-domination queries")
    p.add_argument("--graph", required=True)
    p.add_argument("--target")
    p.add_argument("--best", action="store_true", help="also report the best minimum set")
    p.add_argument("--all", action="store_true", help="also enumerate every minimum set")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="search-node cap for each query")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("verify", help="verify domination and/or planarity")
    p.add_argument("--graph", required=True)
    p.add_argument("--set", help="vertex-set file with the claimed dominating set")
    p.add_argument("--target", help="vertex-set file with the set to dominate (default: all); needs --set")
    p.add_argument("--planar", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("measure", help="run a suite and emit CSV results")
    p.add_argument("--suite", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--reports-dir", help="also write one JSON report per cell")
    p.set_defaults(handler=_cmd_measure)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except LocalMdsError as exc:
        category = error_category(exc)
        print(json.dumps({"error": {"category": category, "message": str(exc)}}), file=sys.stderr)
        return EXIT_CODES.get(category, 4)
    except OSError as exc:
        print(json.dumps({"error": {"category": "io", "message": str(exc)}}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

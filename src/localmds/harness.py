"""Experiment harness: run algorithms over generated graphs, report ratios.

A suite is a JSON-able dict:

    {
      "oracle_max_n": 25,            # exact optimum only up to this size
      "budget": 1000000,             # node cap (an int >= 0) of each repair search and oracle call
      "graphs": [{"family": "grid", "params": {"rows": 3, "cols": 4}, "seed": 0}, ...],
      "algorithms": [{"alg": "A"},
                     {"alg": "B", "control_fn": "linear:1", "k": 4,
                      "alpha": 302, "dim": 2}]
    }

Each (graph, algorithm) cell yields one RunReport row; cell failures are
recorded in the row and never abort the suite. CSV output excludes wall
clocks so identical seeds give byte-identical files; full reports,
including wall clocks, are written as JSON that any JSON parser reads.
"""
from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass
from typing import Iterable

from .composition import CONTROL, DIM, BConfig, algorithm_b, parse_control
from .domination import DEFAULT_BUDGET, mds_size, verify_domination
from .errors import EnumerationBudgetError, InputError, InvariantError, LocalMdsError, require_int
from .generators import GeneratorSpec, generate
from .graph import LabeledGraph, neighborhood
from .nomination import ALPHA, K_UNIFORM, algorithm_a_run
from .planarity import PLANAR

ORACLE_MAX_N = 25  # the exact optimum is computed only up to this many vertices
CONFIG_KEYS = {"A": (), "B": ("control_fn", "k", "alpha", "dim")}  # the config keys each algorithm reads


@dataclass
class RunReport:
    """One algorithm run on one graph, with everything needed to re-verify it."""

    graph: dict
    algorithm: str
    config: dict
    status: str = "ok"
    message: str = ""
    output: tuple[int, ...] | None = None
    output_size: int | None = None
    optimum: int | None = None
    lower_bound: int | None = None
    ratio: float | None = None
    ratio_upper_bound: float | None = None
    errors: dict | None = None
    ledger: dict | None = None
    wall_clock_sec: float | None = None

    def to_json(self) -> str:
        payload = {"schema": "localmds.run_report@1", **asdict(self)}
        return json.dumps(payload, indent=2, sort_keys=True)


def distance3_lower_bound(g: LabeledGraph) -> int:
    """Size of a greedy set of vertices pairwise at distance >= 3.

    Such vertices have disjoint closed neighborhoods, so any set dominating
    all of g needs at least one vertex per member: a true lower bound.
    """
    blocked: set[int] = set()
    count = 0
    for v in g.labels:
        if v in blocked:
            continue
        count += 1
        blocked |= neighborhood(g, (v,), 2)
    return count


def error_category(exc: BaseException) -> str:
    """`resource` if a budget, the recursion limit or memory ran out anywhere in the cause chain;
    else `input` for bad input, `internal` for any other package error, `unexpected` otherwise."""
    seen: BaseException | None = exc
    while seen is not None:
        if isinstance(seen, (EnumerationBudgetError, RecursionError, MemoryError)):
            return "resource"
        seen = seen.__cause__
    if isinstance(exc, InputError):
        return "input"
    if isinstance(exc, LocalMdsError):
        return "internal"
    return "unexpected"


def build_b_config(alg_config: dict) -> BConfig:
    """B's configuration from a config dict; BConfig checks the values."""
    get = alg_config.get
    control = parse_control(str(get("control_fn", CONTROL)))
    return BConfig(PLANAR, control, k=get("k", K_UNIFORM), alpha=get("alpha", ALPHA), dim=get("dim", DIM))


def _row(graph: dict, alg_config: dict) -> RunReport:
    """A row that has not run yet: the graph descriptor, the algorithm and its config without `alg`."""
    config = {k: v for k, v in alg_config.items() if k != "alg"}
    return RunReport(graph=graph, algorithm=str(alg_config.get("alg", "")), config=config)


def run_cell(
    g: LabeledGraph,
    descriptor: dict,
    alg_config: dict,
    *,
    oracle_max_n: int = ORACLE_MAX_N,
    budget: int = DEFAULT_BUDGET,
) -> RunReport:
    """Run one algorithm on one graph; failures land in the report row.

    `budget` caps the nodes of each of B's repair searches and of the
    optimum oracle, not A's per-view searches (also in B's sub-run): those
    keep DEFAULT_BUDGET, because their results are cached per ranked view.
    """
    report = _row(dict(descriptor, n=g.n, m=g.m), alg_config)
    alg, config = report.algorithm, report.config
    start = time.perf_counter()
    try:
        require_int(oracle_max_n, "oracle_max_n")
        require_int(budget, "budget", 0)
        if alg not in CONFIG_KEYS:
            raise InputError(f"unknown algorithm {alg!r} (expected 'A' or 'B')")
        for key in config:
            if key not in CONFIG_KEYS[alg]:
                raise InputError(f"{alg} takes no config key {key!r} (it takes: {list(CONFIG_KEYS[alg])})")
        if alg == "A":
            run = algorithm_a_run(g)
            output, ledger = run.output, run.ledger
        else:
            cfg = build_b_config(config)
            result = algorithm_b(g, cfg, budget=budget)
            output, ledger = result.output, result.ledger
            report.errors = {
                "radius": cfg.error_radius,
                "errors": sorted(result.errors.errors),
                "delta": result.errors.delta,
                "components": [
                    {"vertices": sorted(comp), "weak_diameter": wd}
                    for comp, wd in zip(result.errors.components, result.errors.weak_diameters)
                ],
            }
        if not verify_domination(g, output, g.labels):
            raise InvariantError("algorithm output does not dominate the graph")
        report.output = tuple(sorted(output))
        report.output_size = len(output)
        report.ledger = dict(asdict(ledger), total=ledger.total)
        report.lower_bound = distance3_lower_bound(g)
        if g.n > 0 and g.n <= oracle_max_n:
            report.optimum = mds_size(g, g.labels, budget=budget)
            report.ratio = len(output) / report.optimum
        elif report.lower_bound:
            report.ratio_upper_bound = len(output) / report.lower_bound
    except Exception as exc:  # noqa: BLE001 - cell failures must not abort a suite
        report.status = error_category(exc)
        report.message = str(exc)
    report.wall_clock_sec = time.perf_counter() - start
    return report


def _suite_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"suite {where} must be an object, got {value!r}")
    return value


def experiment(suite: dict) -> tuple[list[RunReport], dict]:
    """Run every (graph, algorithm) cell of a suite; return rows + aggregates.

    A malformed suite raises InputError, naming the entry, before any cell runs."""
    entries = ("graphs", "algorithms")
    if not isinstance(suite, dict) or not all(isinstance(suite.get(k), (list, tuple)) for k in entries):
        raise InputError("suite must be a dict with 'graphs' and 'algorithms' lists")
    oracle_max_n = require_int(suite.get("oracle_max_n", ORACLE_MAX_N), "suite oracle_max_n")
    budget = require_int(suite.get("budget", DEFAULT_BUDGET), "suite budget", 0)
    for i, alg_config in enumerate(suite["algorithms"]):
        _suite_object(alg_config, f"algorithms[{i}]")
    specs = []
    for i, gspec in enumerate(suite["graphs"]):
        gspec = _suite_object(gspec, f"graphs[{i}]")
        params = _suite_object(gspec.get("params", {}), f"graphs[{i}].params")
        seed = require_int(gspec.get("seed", 0), f"suite graphs[{i}].seed")
        specs.append(GeneratorSpec(str(gspec.get("family", "")), dict(params), seed))
    reports: list[RunReport] = []
    for spec in specs:
        descriptor = {"family": spec.family, "params": dict(spec.params), "seed": spec.seed}
        try:
            g = generate(spec)
        except Exception as exc:  # noqa: BLE001 - recorded per cell, suite continues
            for alg_config in suite["algorithms"]:
                report = _row(descriptor, alg_config)
                report.status, report.message = error_category(exc), str(exc)
                reports.append(report)
            continue
        for alg_config in suite["algorithms"]:
            reports.append(
                run_cell(g, descriptor, dict(alg_config), oracle_max_n=oracle_max_n, budget=budget)
            )
    return reports, aggregate(reports)


def aggregate(reports: Iterable[RunReport]) -> dict:
    """Per-algorithm aggregates: cell counts, failures, max/mean realized ratio."""
    rows_of: dict[str, list[RunReport]] = {}
    for r in reports:
        rows_of.setdefault(r.algorithm, []).append(r)
    out = {}
    for alg, rows in rows_of.items():
        ratios = [r.ratio for r in rows if r.ratio is not None]
        out[alg] = {
            "cells": len(rows),
            "failures": sum(r.status != "ok" for r in rows),
            "max_ratio": max(ratios, default=None),
            "mean_ratio": sum(ratios) / len(ratios) if ratios else None,
        }
    return out


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


# The CSV layout: each column's header and how a report fills it.
_CSV_TABLE = (
    ("family", lambda r: r.graph.get("family")),
    ("params", lambda r: r.graph.get("params", {})),
    ("seed", lambda r: r.graph.get("seed")),
    ("n", lambda r: r.graph.get("n")),
    ("m", lambda r: r.graph.get("m")),
    ("alg", lambda r: r.algorithm),
    ("config", lambda r: r.config),
    ("status", lambda r: r.status),
    ("output_size", lambda r: r.output_size),
    ("optimum", lambda r: r.optimum),
    ("lower_bound", lambda r: r.lower_bound),
    ("ratio", lambda r: r.ratio),
    ("ratio_upper_bound", lambda r: r.ratio_upper_bound),
    ("error_count", lambda r: len(r.errors["errors"]) if r.errors else None),
    ("delta", lambda r: r.errors["delta"] if r.errors else None),
    ("rounds_total", lambda r: r.ledger["total"] if r.ledger else None),
)


def write_csv(reports: Iterable[RunReport], path) -> None:
    """Write report rows as CSV; byte-identical for identical suites."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(column for column, _ in _CSV_TABLE)
    for r in reports:
        writer.writerow(_csv_cell(value(r)) for _, value in _CSV_TABLE)
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())

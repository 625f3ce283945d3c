"""One pass of a workload in a fresh interpreter.

Generates every graph of the workload, runs every cell once through the
harness's public `run_cell`, writes the CSV with `write_csv`, and prints
one JSON line describing the pass. `bench/run.py` starts one process per
pass, so each pass begins with empty module caches; only the caching that
happens between the different cells of one pass is measured.

    python3 bench/cellpass.py --workload corpus-small --seed 0 --csv out.csv [--trace 1 --spans spans.jsonl]

With `--setup-only` it stops after generating the graphs. The `ready`
field is `time.monotonic()` when the last graph exists; the caller
subtracts its own launch time to get the set-up time.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ROUNDS_A = 5
# B's detection radius under linear:1 with k=4: T = f(2k+2) + max(k+1, 5) = 10 + 5.
DETECTION_RADIUS_B = 15


def _ledger_problems(reports) -> list[str]:
    """Cells whose status is neither ok nor resource, or whose round ledger
    differs from 5 for A and T + delta + 2 for B."""
    problems = []
    for i, r in enumerate(reports):
        where = f"cell {i} ({r.algorithm} on {r.graph['family']} {r.graph['params']} seed {r.graph['seed']})"
        if r.status == "ok":
            rounds = ROUNDS_A if r.algorithm == "A" else DETECTION_RADIUS_B + r.errors["delta"] + 2
            if r.ledger["total"] != rounds:
                problems.append(f"{where}: {r.ledger['total']} rounds, expected {rounds}")
        elif r.status != "resource":
            problems.append(f"{where}: status {r.status}: {r.message}")
    return problems


def _layer_metrics(summary: dict, sizes: dict, reports) -> dict:
    def get(name: str, key: str):
        return summary.get(name, {}).get(key, 0)

    m: dict = {}
    for name in ("graph.ball", "runtime.run_by_views", "nomination.best_local_set", "domination.best_set",
                 "domination.min_set", "domination.mds_size"):
        m[f"{name}.calls"] = get(name, "calls")
    for name in ("graph.ball", "graph.ranked_form", "graph.components", "graph.weak_diameter",
                 "graph.neighborhood", "runtime.run_by_views", "nomination.best_local_set",
                 "domination.best_set", "domination.min_set", "domination.mds_size", "planarity",
                 "harness.run_cell", "harness.lower_bound", "harness.verify"):
        m[f"{name}.self_s"] = get(name, "self_s")
    for name in ("composition.error_set", "composition.sub_run", "composition.repair_step",
                 "generators.generate", "generators.planarity_check"):
        m[f"{name}.s"] = get(name, "s")
    for name in ("domination.best_set", "domination.min_set"):
        m[f"{name}.resource_failures"] = summary.get(name, {}).get("errors", {}).get("EnumerationBudgetError", 0)
    m["graph.ball.vertices"] = sizes["graph.ball"]
    local, search = m["nomination.best_local_set.calls"], m["domination.best_set.calls"]
    m["nomination.search_calls"] = search
    m["nomination.view_reuse"] = 1 - search / local if local else 0.0
    views = sizes["planarity.detection_views"]
    m["planarity.calls"] = get("planarity", "cell_calls")
    m["planarity.vertices"] = sizes["planarity"]
    m["planarity.view_reuse"] = 1 - m["planarity.calls"] / views if views else 0.0
    b_runs = [r.errors for r in reports if r.errors is not None]
    m["composition.errors"] = sum(len(e["errors"]) for e in b_runs)
    m["composition.components"] = sum(len(e["components"]) for e in b_runs)
    m["composition.delta_max"] = max((e["delta"] for e in b_runs), default=0)
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--csv", required=True, help="where to write the pass's CSV")
    parser.add_argument("--spans", help="where to write the spans of a traced pass")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import localmds

    if Path(localmds.__file__).resolve().parent != (SRC / "localmds").resolve():
        raise SystemExit(f"imported localmds from {localmds.__file__}, not from {SRC}")
    from localmds import GeneratorSpec, generate, run_cell, write_csv

    import spans
    from workloads import WORKLOADS

    suite = WORKLOADS[args.workload](args.seed)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        detection_views = spans.instrument(tracer)
        generate = tracer.wrap("generators.generate", generate)
        run_cell = tracer.wrap("harness.run_cell", run_cell)
    graphs = [
        (spec, generate(GeneratorSpec(spec["family"], dict(spec["params"]), spec["seed"])))
        for spec in suite["graphs"]
    ]
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    reports = []
    cell_s = []
    for spec, g in graphs:
        for alg_config in suite["algorithms"]:
            if tracer is not None:
                tracer.cell = len(reports)
            descriptor = {"family": spec["family"], "params": dict(spec["params"]), "seed": spec["seed"]}
            start = time.perf_counter()
            report = run_cell(g, descriptor, dict(alg_config), oracle_max_n=suite["oracle_max_n"])
            cell_s.append(time.perf_counter() - start)
            reports.append(report)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    write_csv(reports, args.csv)
    statuses: dict[str, int] = {}
    for r in reports:
        statuses[r.status] = statuses.get(r.status, 0) + 1
    result = {
        "ready": ready,
        "cells": len(reports),
        "cell_s": cell_s,
        "ok_vertices": sum(r.graph["n"] for r in reports if r.status == "ok"),
        "statuses": statuses,
        "digest": hashlib.sha256(Path(args.csv).read_bytes()).hexdigest(),
        "rss_mb": rss_mb,
        "problems": _ledger_problems(reports),
    }
    if tracer is not None:
        tracer.cell = None
        summary = spans.summarize(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
        layers = _layer_metrics(summary, tracer.sizes, reports)
        if layers["planarity.calls"] != len(detection_views):
            result["problems"].append(
                f"{layers['planarity.calls']} planarity calls for {len(detection_views)} distinct"
                " ranked detection views: the verdict cache was bypassed"
            )
        if all(a["alg"] == "A" for a in suite["algorithms"]) and layers["planarity.calls"]:
            result["problems"].append(f"{layers['planarity.calls']} planarity calls inside A-only cells")
        result["layers"] = layers
        result["self_s_by_module"] = {}
        for name, s in summary.items():
            module = name.split(".")[0]
            result["self_s_by_module"][module] = result["self_s_by_module"].get(module, 0.0) + s["self_s"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

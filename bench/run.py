"""Benchmark for localmds: seeded workloads, end-to-end metrics, checked outputs.

    python3 bench/run.py --workload a-planar --seed 0 --seconds 45 --trace 0

Workloads are defined in bench/workloads.py. A run starts one fresh
process per pass (bench/cellpass.py); a pass generates the workload's
graphs and runs every cell once, one after another (single-threaded,
closed loop). Passes repeat until the next one would end after
`--seconds`; at least one pass runs.

End-to-end metrics (`--trace 0`):

* setup_s: from launching a pass's interpreter to its last generated graph
  (importing localmds and every `generate()` call); the median over the
  passes and three set-up-only launches.
* wall_s: the sum of the `run_cell` times over all cells, each cell's
  time being its median over the run's passes.
* decisions_per_s: vertices of the cells that ended `ok`, per wall_s.
* peak_rss_mb: `ru_maxrss` of a pass at its end; the median over passes.

The share of cells that did not end `ok` (`fail_share`, base: cells
attempted) is printed by category and carried by `attempted`/`failed`.

`--trace 1` alternates untraced and traced passes and reports the
per-layer metrics of bench/spans.py, the tracing overhead, and the
non-blank source lines of each localmds module.

Checks, any of which makes the run exit 1: every cell ends `ok` or
`resource`; every `ok` cell reports 5 rounds for A and T + delta + 2 for
B; all passes of a run write identical CSV bytes, traced or not; the
traced run keeps B's planarity verdict cache in use and makes no planarity
call in A-only workloads; and at the default seed, or at any seed that
yields the same graphs, the CSV equals bench/expected/<workload>.csv,
except that a cell recorded as `resource` may start to pass. After an intended output change, re-record with
`python3 bench/cellpass.py --workload W --seed 0 --csv bench/expected/W.csv`
and update bench/expected.json.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 0
SETUP_PROBES = 3  # set-up-only launches per untraced run, besides the passes
SLACK = 1.1  # start a pass only if 1.1x the longest one so far still fits
RUN_LIMIT_S = 170  # every process of a run has ended by then
SOURCE_MODULES = ("__init__", "cli", "composition", "domination", "errors", "generators", "graph",
                  "harness", "nomination", "planarity", "runtime")
MAX_PRINTED_PROBLEMS = 20
IDENTITY_COLUMNS = 7  # family, params, seed, n, m, alg, config


class PassFailed(Exception):
    pass


def run_pass(args, limit: float, trace: int = 0, setup_only: bool = False, tag: str = "") -> dict:
    """Run one pass (or set-up-only launch) that must end by monotonic time `limit`."""
    csv_path = OUT / f"{args.workload}-{args.seed}{tag}.csv"
    cmd = [sys.executable, str(BENCH / "cellpass.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace), "--csv", str(csv_path)]
    if trace:
        cmd += ["--spans", str(OUT / f"{args.workload}-{args.seed}-spans.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(1.0, limit - time.monotonic())
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"a pass did not end within {timeout:.0f} s") from None
    ended = time.monotonic()
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"a pass exited with code {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - launched
    result["elapsed_s"] = ended - launched
    result["csv"] = csv_path
    return result


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(text.splitlines()))


def expected_problems(workload: str, produced: str) -> list[str]:
    """Differences from the CSV recorded at the default seed; a row recorded
    as `resource` may change as long as it describes the same cell."""
    recorded = json.loads((BENCH / "expected.json").read_text())[workload]
    if hashlib.sha256(produced.encode()).hexdigest() == recorded["csv_sha256"]:
        return []
    expected_text = (BENCH / "expected" / f"{workload}.csv").read_text()
    if hashlib.sha256(expected_text.encode()).hexdigest() != recorded["csv_sha256"]:
        return [f"bench/expected/{workload}.csv does not match csv_sha256 in bench/expected.json"]
    expected, got = _rows(expected_text), _rows(produced)
    if len(expected) != len(got) or expected[0] != got[0]:
        return [f"CSV shape differs from bench/expected/{workload}.csv"]
    status = expected[0].index("status")
    return [
        f"row {i}: expected {','.join(e)} got {','.join(g)}"
        for i, (e, g) in enumerate(zip(expected[1:], got[1:]), start=1)
        if e != g and (e[status] != "resource" or e[:IDENTITY_COLUMNS] != g[:IDENTITY_COLUMNS])
    ]


def source_lines() -> dict[str, int]:
    """Non-blank lines of each module in SOURCE_MODULES (0 once it is gone),
    and of all localmds modules together."""
    counts = {
        path.stem: sum(1 for line in path.read_text().splitlines() if line.strip())
        for path in (ROOT / "src" / "localmds").glob("*.py")
    }
    out = {f"src.lines.{m}": counts.get(m, 0) for m in SOURCE_MODULES}
    out["src.lines.total"] = sum(counts.values())
    return out


def wall_s(passes: list[dict]) -> float:
    """Sum over cells of each cell's median `run_cell` time across passes."""
    return sum(statistics.median(times) for times in zip(*(p["cell_s"] for p in passes)))


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    wall = wall_s(passes)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "decisions_per_s": (passes[0]["ok_vertices"] / wall, "vertices/s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
    }


def per_layer(passes: list[dict], traced: list[dict]) -> dict:
    units = {"calls": "count", "vertices": "count", "resource_failures": "count", "search_calls": "count",
             "errors": "count", "components": "count", "view_reuse": "ratio", "delta_max": "hops"}
    metrics = {}
    for name in traced[0]["layers"]:
        value = statistics.median(p["layers"][name] for p in traced)
        metrics[name] = (value, units.get(name.rsplit(".", 1)[1], "s"))
    overhead = wall_s(traced) - wall_s(passes)
    metrics["trace.overhead_s"] = (overhead, "s")
    first = traced[0]
    metrics["harness.fail_share.resource"] = (first["statuses"].get("resource", 0) / first["cells"], "ratio")
    for name, lines in source_lines().items():
        metrics[name] = (lines, "lines")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    limit = started + RUN_LIMIT_S
    if not (ROOT / "src" / "localmds" / "__init__.py").is_file():
        print(f"bench: no localmds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = started + args.seconds

    passes: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    try:
        if not args.trace:
            setups = [run_pass(args, limit, setup_only=True, tag="-setup")["setup_s"] for _ in range(SETUP_PROBES)]
        cycle = 0.0
        while not passes or time.monotonic() + SLACK * cycle <= deadline:
            passes.append(run_pass(args, limit))
            elapsed = passes[-1]["elapsed_s"]
            if args.trace:
                traced.append(run_pass(args, limit, trace=1, tag="-traced"))
                elapsed += traced[-1]["elapsed_s"]
            cycle = max(cycle, elapsed)
    except PassFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    setups += [p["setup_s"] for p in passes]

    everything = passes + traced
    problems = sorted({p for r in everything for p in r["problems"]})
    if len({r["digest"] for r in everything}) != 1:
        problems.append("passes of one run wrote different CSV bytes")
    build = WORKLOADS[args.workload]
    if build(args.seed) == build(DEFAULT_SEED):
        problems += expected_problems(args.workload, passes[0]["csv"].read_text())

    first = passes[0]
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} pass(es) of {first['cells']} cells"
          + (f", {len(traced)} traced" if traced else "") + f"; CSV sha256 {first['digest']}")
    print("  wall_s per pass: " + " ".join(f"{sum(p['cell_s']):.3f}" for p in passes)
          + (" | traced: " + " ".join(f"{sum(p['cell_s']):.3f}" for p in traced) if traced else ""))
    shares = {k: round(v / first["cells"], 4) for k, v in sorted(first["statuses"].items()) if k != "ok"}
    print(f"  fail_share {sum(shares.values()):.4f} ratio (base {first['cells']} cells; by category {shares})")
    metrics = per_layer(passes, traced) if args.trace else end_to_end(passes, setups)
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    if traced:
        in_cells = {m: s for m, s in traced[0]["self_s_by_module"].items() if m != "generators"}
        total = sum(in_cells.values()) or 1.0
        print("  self-time share in cells: " + ", ".join(
            f"{m} {s / total:.1%}" for m, s in sorted(in_cells.items(), key=lambda kv: -kv[1])))
    for problem in problems[:MAX_PRINTED_PROBLEMS]:
        print(f"  CHECK FAILED: {problem}")
    if len(problems) > MAX_PRINTED_PROBLEMS:
        print(f"  ... and {len(problems) - MAX_PRINTED_PROBLEMS} more failed checks")

    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["cells"] for r in everything),
        "failed": sum(r["cells"] - r["statuses"].get("ok", 0) for r in everything),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

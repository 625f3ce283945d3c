"""The benchmark's tracing hooks still find the names they wrap.

`bench/spans.py` rebinds module-level names of localmds (for example
`composition.algorithm_a`, traced as `composition.sub_run`). A refactor
that drops or renames one of them would only show as a crashed traced
benchmark run; this test turns it into a test failure. It runs in a
subprocess, so the rebinding never leaks into the other tests.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path.insert(0, "bench")
import spans
from localmds import GeneratorSpec, generate, harness

tracer = spans.Tracer()
detection_views = spans.instrument(tracer)
cells = [
    (GeneratorSpec("gadgetGraft", {"n": 60, "gadgets": 1, "spacing": 10}, 1), "B"),
    (GeneratorSpec("grid", {"rows": 4, "cols": 4}), "A"),
]
statuses = []
for i, (spec, alg) in enumerate(cells):
    g = generate(spec)
    tracer.cell = i
    statuses.append(harness.run_cell(g, {}, {"alg": alg}).status)
tracer.cell = None
summary = spans.summarize(tracer.spans)
print(json.dumps({
    "statuses": statuses,
    "planarity_cell_calls": summary.get("planarity", {}).get("cell_calls", 0),
    "detection_views": len(detection_views),
    "sub_runs": summary.get("composition.sub_run", {}).get("calls", 0),
}))
"""


def test_traced_cells_run_through_every_hook():
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["statuses"] == ["ok", "ok"]
    assert result["detection_views"] > 0
    assert result["planarity_cell_calls"] == result["detection_views"]
    assert result["sub_runs"] == 1

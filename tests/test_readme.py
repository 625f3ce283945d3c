"""The README's Python examples and suite files run as written."""
import json
import re
from pathlib import Path

from localmds import experiment

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), flags=re.S | re.M)


def test_readme_python_examples_run():
    blocks = _blocks("python")
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def test_readme_suites_run():
    suites = [s for s in map(json.loads, _blocks("json")) if "graphs" in s]
    assert suites
    for suite in suites:
        reports, _ = experiment(suite)
        assert [(r.status, r.message) for r in reports] == [("ok", "")] * len(reports)

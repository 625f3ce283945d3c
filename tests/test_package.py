"""The package's surface and source: what it exports, and what it imports."""
import ast
from pathlib import Path

import pytest

import localmds
from localmds import domination, nomination, runtime

SOURCES = sorted(p for p in Path(localmds.__file__).parent.glob("*.py") if p.name != "__init__.py")

# slow references and measurements that only the tests call; they live in tests/reference.py
TEST_ONLY = ("strictly_dominated", "validate_nominations", "check_uniformity", "UniformityCheck", "run_by_messages")


@pytest.mark.parametrize("module", [localmds, domination, nomination, runtime], ids=lambda m: m.__name__)
def test_test_only_references_stay_out_of_the_package(module):
    assert [name for name in TEST_ONLY if hasattr(module, name)] == []


def unread_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level imports, `from __future__` aside,
    that no expression in the module reads."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_no_unread_imports(source):
    assert unread_imports(ast.parse(source.read_text())) == []


def test_unread_imports_finds_a_dead_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from fractions import Fraction\n"
        "from typing import Any as A, Mapping\n"
        "def f(x: Mapping) -> A:\n"
        "    return os.sep\n"
    )
    assert unread_imports(tree) == ["Fraction"]

"""The runtime dependencies that pyproject.toml declares are exactly the
third-party modules that the package in `src/` imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def imported_top_level_modules(src: Path) -> set[str]:
    """Top-level names of every absolute import under `src`, function-local
    ones included, less the standard library."""
    names = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names - sys.stdlib_module_names


def test_declared_dependencies_are_the_imported_modules():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req)[0] for req in project["dependencies"]}
    assert imported_top_level_modules(ROOT / "src") == declared == {"numpy"}

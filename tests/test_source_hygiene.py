"""Static checks over the package source, with the standard library's `ast`."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rfid_sampler"


def _unused_imports(path: Path) -> list[str]:
    """'file:line name' for each name `path` imports but never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_package_modules_use_every_name_they_import():
    # __init__.py imports names only to re-export them
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [hit for path in modules for hit in _unused_imports(path)] == []

"""Static checks over the package source, with the standard library's `ast`."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rfid_sampler"
# `population.random_ids` reads PCG64 raw words, which `default_rng` gives
_GENERATOR_BUILDERS = {"Generator", "RandomState", "MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64"}


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


def _generator_builds(path: Path) -> list[str]:
    """'file:line name' for each call in `path` that builds a generator or
    bit generator other than through `np.random.default_rng`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _GENERATOR_BUILDERS:
                hits.append(f"{path.name}:{node.lineno} {name}")
    return hits


def _private_imports(path: Path) -> list[str]:
    """'file:line name' for each underscore-prefixed name `path` imports
    from another package module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == PACKAGE.name
        ):
            hits += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name.startswith("_")]
    return hits


def test_package_modules_use_every_name_they_import():
    # __init__.py imports names only to re-export them
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [hit for path in modules for hit in _unused_imports(path)] == []


def test_package_builds_generators_only_through_default_rng():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in _generator_builds(path)] == []


def test_package_modules_import_no_private_name_from_each_other():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in _private_imports(path)] == []

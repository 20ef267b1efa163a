"""Static checks over the package source, with the standard library's `ast`."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rfid_sampler"
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


def _definitions(path: Path) -> list[tuple[str, str]]:
    """('file:line name', name) for each top-level name that `path` defines
    by def, class or assignment."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    hits = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            names = []
        hits += [(f"{path.name}:{node.lineno} {name}", name) for name in names]
    return hits


def _names_read(path: Path) -> set[str]:
    """Every name `path` loads, bare or as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def _names_read_or_imported(path: Path, strings: bool = False) -> set[str]:
    """`_names_read`, every name `path` imports and, with `strings`, every
    string constant in it."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = _names_read(path)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            read.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


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


def test_package_modules_read_every_private_name_they_define():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    read = set().union(*map(_names_read, modules))
    private = [(hit, name) for path in modules for hit, name in _definitions(path)
               if name.startswith("_") and not name.startswith("__")]  # `_x`, not a dunder
    assert [hit for hit, name in private if name not in read] == []


def test_every_public_name_in_the_package_has_a_reader():
    # a reader: a load in the defining module, a read or import in another
    # package module (re-exports in __init__.py do not count), or a read,
    # import or string (the benchmark's tracer names its targets) in a demo
    # or the benchmark; a name only the tests read belongs in the tests
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    scripts = sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("benchmarks/*.py"))
    assert modules and scripts
    outside = set().union(*(_names_read_or_imported(path, strings=True) for path in scripts))
    reads = {path: _names_read_or_imported(path) for path in modules}
    unread = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        readers = loaded | outside | set().union(*(reads[o] for o in modules if o != path))
        unread += [hit for hit, name in _definitions(path) if not name.startswith("_") and name not in readers]
    assert unread == []

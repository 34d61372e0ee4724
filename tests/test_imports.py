"""The package's import graph, pinned in one table, the names each module
imports, and the code that reaches every definition in the package."""

import ast
from pathlib import Path

import affmult

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(affmult.__file__).parent

# each module of the package and the package modules it imports
GRAPH = {
    "records": set(),
    "laurent": set(),
    "affine_cartan": {"records"},
    "partitions": {"affine_cartan", "laurent"},
    "tableaux": {"partitions"},
    "weyl_orbits": {"affine_cartan", "records"},
    "multiplicities": {"affine_cartan", "laurent", "partitions", "records", "weyl_orbits"},
    "char_oracle": {"affine_cartan", "partitions", "records", "weyl_orbits"},
    "cli": {"affine_cartan", "char_oracle", "multiplicities", "partitions", "records",
            "tableaux", "weyl_orbits"},
    "__init__": {"affine_cartan", "char_oracle", "laurent", "multiplicities", "partitions",
                 "tableaux", "weyl_orbits"},
}


def package_imports(path: Path) -> set:
    """The package modules that the module at path imports, relatively or
    by the name affmult."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module is None:  # from . import name
                found |= {alias.name for alias in node.names}
            elif node.level or (node.module or "").startswith("affmult."):
                found.add(node.module.split(".")[-1])
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[-1] for alias in node.names
                      if alias.name.startswith("affmult.")}
    return found


def test_import_graph():
    modules = PACKAGE.glob("*.py")
    assert {path.stem: package_imports(path) for path in modules} == GRAPH


def test_every_imported_name_is_used():
    """Each name a module of the package imports is used in that module,
    but those of the statements marked noqa: F401: the package's
    re-exports, and names kept importable for the benchmark's tracer."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines, tree = source.splitlines(), ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    and "# noqa: F401" not in lines[node.lineno - 1]):
                unused += [f"{path.stem}: {alias.asname or alias.name}" for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []


def referenced_names(tree: ast.AST) -> set:
    """The names a syntax tree refers to: bare names, attribute names and
    names imported from a module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found |= {alias.name for alias in node.names}
    return found


def root_names() -> set:
    """The names the package's users refer to: the cli module, scripts/,
    bench/ with the attributes its tracer's SPANS and COUNTS name in
    strings, and the names tests/test_acceptance.py imports."""
    found = referenced_names(ast.parse((PACKAGE / "cli.py").read_text()))
    for path in sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        found |= referenced_names(ast.parse(path.read_text()))
    for node in ast.parse((ROOT / "bench" / "tracing.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) in ("SPANS", "COUNTS") for target in node.targets):
            for const in ast.walk(node.value):
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    found |= set(const.value.split("."))
    for node in ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            found |= {alias.name for alias in node.names}
    return found


def test_every_definition_is_reached():
    """Every top-level function and class of the package is reached from
    root_names through the bodies of the definitions reached, matched by
    name, so code that only the tests call lives in the tests' helpers."""
    definitions = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append((path.stem, node))
    reached = set()
    todo = root_names() & definitions.keys()
    while todo:
        name = todo.pop()
        reached.add(name)
        for _module, node in definitions[name]:
            todo |= (referenced_names(node) & definitions.keys()) - reached
    assert sorted(f"{module}.{name}" for name, found in definitions.items()
                  for module, _node in found if name not in reached) == []

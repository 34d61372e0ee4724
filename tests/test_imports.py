"""The package's import graph, pinned in one table, the names each module
imports, and the code that reaches every definition and method in the package."""

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


def test_demazure_check_is_independent():
    """tests/demazure.py, the check of the flag multiplicities, takes from
    the package only FiniteWeight, and from weyl_group only the affine
    Cartan matrix, whose body refers to nothing weyl_group imports."""
    taken = set()
    for node in ast.walk(ast.parse((ROOT / "tests" / "demazure.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            taken |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            taken |= {(alias.name, None) for alias in node.names}
    assert {(module, name) for module, name in taken
            if module.split(".")[0] in ("affmult", "weyl_group")} == {
        ("affmult.affine_cartan", "FiniteWeight"), ("weyl_group", "affine_cartan_matrix")}
    tree = ast.parse((ROOT / "tests" / "weyl_group.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    matrix = next(node for node in tree.body
                  if getattr(node, "name", None) == "affine_cartan_matrix")
    assert referenced_names(matrix) & imported == set()


def referenced_names(tree: ast.AST) -> set:
    """The names a syntax tree refers to: bare names and names imported
    from a module as they are, and attribute names with a leading dot
    (obj.name gives ".name")."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add("." + node.attr)
        elif isinstance(node, ast.ImportFrom):
            found |= {alias.name for alias in node.names}
    return found


def root_names() -> set:
    """The names the package's users refer to: the cli module, bench/ with
    the attributes its tracer's SPANS and COUNTS name in strings (which it
    looks up as attributes), and the names tests/test_acceptance.py imports."""
    found = referenced_names(ast.parse((PACKAGE / "cli.py").read_text()))
    for path in sorted((ROOT / "bench").glob("*.py")):
        found |= referenced_names(ast.parse(path.read_text()))
    for node in ast.parse((ROOT / "bench" / "tracing.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) in ("SPANS", "COUNTS") for target in node.targets):
            for const in ast.walk(node.value):
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    found |= {"." + part for part in const.value.split(".")}
    for node in ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            found |= {alias.name for alias in node.names}
    return found


def package_definitions(methods: bool) -> dict:
    """(module, name) of each top-level function and class of the package,
    with the names its body refers to.  With methods, also (module,
    "Class.method") of each non-dunder method of a class, with the names
    its body refers to; a class's own names then leave out those bodies,
    as a method runs only where it is named."""
    found = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            parts = [node]
            if methods and isinstance(node, ast.ClassDef):
                own = [part for part in node.body if isinstance(part, ast.FunctionDef)
                       and not part.name.startswith("__")]
                for method in own:
                    found[(path.stem, f"{node.name}.{method.name}")] = referenced_names(method)
                parts = node.bases + node.keywords + node.decorator_list + [
                    part for part in node.body if part not in own]
            found[(path.stem, node.name)] = set().union(*map(referenced_names, parts))
    return found


def unreached(roots: set, definitions: dict) -> list:
    """The definitions not reached from roots through the names of the
    definitions reached: a function or class by its own name, bare or as an
    attribute, and a method only as an attribute, so that a local variable
    of the same spelling does not reach it."""
    by_name = {}
    for key in definitions:
        owner, _, name = key[1].rpartition(".")
        for ref in ("." + name,) if owner else (name, "." + name):
            by_name.setdefault(ref, []).append(key)
    seen, todo = set(), roots & by_name.keys()
    while todo:
        ref = todo.pop()
        seen.add(ref)
        for key in by_name[ref]:
            todo |= (definitions[key] & by_name.keys()) - seen
    reached = {key for ref in seen for key in by_name[ref]}
    return sorted(f"{module}.{name}" for module, name in definitions
                  if (module, name) not in reached)


def test_every_definition_is_reached():
    """Every top-level function and class of the package is reached from
    root_names through the bodies of the definitions reached, matched by
    name, so code that only the tests call lives in the tests' helpers."""
    assert unreached(root_names(), package_definitions(methods=False)) == []


def test_every_method_is_reached():
    """Every non-dunder method of a package class is named as an attribute
    (obj.method) by a root or by the body of a reached definition.  The
    roots add to root_names every
    name tests/test_acceptance.py uses, as the gate calls methods of the
    values it gets (.is_palindromic(), .coeff, .shift)."""
    roots = root_names() | referenced_names(
        ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    assert [name for name in unreached(roots, package_definitions(methods=True))
            if name.count(".") == 2] == []

"""The package's import graph, pinned in one table."""

import ast
from pathlib import Path

import affmult

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
    modules = Path(affmult.__file__).parent.glob("*.py")
    assert {path.stem: package_imports(path) for path in modules} == GRAPH

"""Every name a module of the package imports is used in that module.
`__init__.py` imports only to re-export, and `__future__` imports are
directives, so both are skipped."""

import ast
from pathlib import Path

import tangleforge


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_is_caught():
    assert unused_imports("import os\nfrom a.b import c, d as e\nprint(c)\n") == [
        (1, "os"), (2, "e")]
    assert unused_imports("from __future__ import annotations\nimport a.b\na.b.f()\n") == []


def test_no_unused_import_in_package():
    sources = sorted(Path(tangleforge.__file__).parent.glob("*.py"))
    assert sources
    found = [f"{path.name}:{line} {name}" for path in sources if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())]
    assert found == []

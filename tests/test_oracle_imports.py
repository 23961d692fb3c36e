"""The oracle shares only `lam` with the engine.  At module level oracle.py
imports from the package only the types, caps and bit helper below and the
errors; it imports an engine function only inside `differential_report`,
whose job is to compare the engine with the oracle."""

import ast
from pathlib import Path

import tangleforge

MODULE_LEVEL = {
    "bitset": {"elements_of"},
    "core": {"NODE_CAP", "ORACLE_MAX_PETALS", "ConnectivitySystem"},
    "closure": {"Separation", "TreeCompatibleSet"},
    "flowers": {"Flower"},
    "tangles": {"Tangle"},
    "trees": {"PiTree"},
}
IN_DIFFERENTIAL_REPORT = {"closure": {"full_closure"}, "flowers": {"classify"}}


def _imports(node, function=None):
    """Each import statement under node with the outermost function that
    holds it (None at module level)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield function, child
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _imports(child, function or child.name)
        else:
            yield from _imports(child, function)


def broken_rule(source: str):
    """(line, module.name) for each package name the source imports where
    the rule does not allow it."""
    found = []
    for function, node in _imports(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name.split(".")[0] == "tangleforge"]
            continue
        if not node.level and (node.module or "").split(".")[0] != "tangleforge":
            continue  # the standard library
        module = (node.module or "").rsplit(".", 1)[-1]
        if function is None:
            allowed = MODULE_LEVEL.get(module, set())
        else:
            allowed = (IN_DIFFERENTIAL_REPORT if function == "differential_report"
                       else {}).get(module, set())
        found += [(node.lineno, f"{module}.{a.name}") for a in node.names
                  if a.name not in allowed and not (module == "errors" and function is None)]
    return found


def test_broken_rule_is_caught():
    source = """from typing import List
from .core import NODE_CAP, verify_connectivity_axioms
from .errors import ViolationFound
import tangleforge.flowers
from . import trees
def differential_report():
    from .closure import full_closure
    from .trees import build_maximal_tree
    from .errors import PreconditionFailed
def other():
    from .flowers import classify
"""
    assert broken_rule(source) == [
        (2, "core.verify_connectivity_axioms"), (4, "tangleforge.flowers"), (5, ".trees"),
        (8, "trees.build_maximal_tree"), (9, "errors.PreconditionFailed"),
        (11, "flowers.classify")]


def test_oracle_imports_only_what_the_rule_allows():
    path = Path(tangleforge.__file__).parent / "oracle.py"
    assert broken_rule(path.read_text()) == []

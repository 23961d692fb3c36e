"""No handler in the package swallows a broad exception.  An `except` that
is bare or catches `Exception`, `BaseException` or `TangleforgeError` must
use the exception it binds or raise; narrow handlers such as
`except DichotomyViolation: pass` name the one fault they expect."""

import ast
from pathlib import Path

import tangleforge

BROAD = {"Exception", "BaseException", "TangleforgeError"}


def _caught(node):
    if node is None:
        return {None}
    types = node.elts if isinstance(node, ast.Tuple) else [node]
    return {t.id if isinstance(t, ast.Name) else getattr(t, "attr", None) for t in types}


def swallowed(source: str):
    """Line numbers of the broad handlers that neither use their exception
    nor raise."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _caught(node.type) & (BROAD | {None}):
            continue
        body = [n for stmt in node.body for n in ast.walk(stmt)]
        if any(isinstance(n, ast.Raise) for n in body):
            continue
        if node.name and any(isinstance(n, ast.Name) and n.id == node.name for n in body):
            continue
        found.append(node.lineno)
    return found


def test_swallowed_exception_is_caught():
    source = """
try: f()
except: pass
try: f()
except Exception: g()
try: f()
except (ValueError, errors.TangleforgeError) as exc: g()
try: f()
except TangleforgeError as exc: g(exc)
try: f()
except BaseException: raise
try: f()
except ValueError: pass
"""
    assert swallowed(source) == [3, 5, 7]


def test_no_swallowed_exception_in_package():
    sources = sorted(Path(tangleforge.__file__).parent.glob("*.py"))
    assert sources
    found = [f"{path.name}:{line}" for path in sources
             for line in swallowed(path.read_text())]
    assert found == []

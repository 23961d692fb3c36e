"""The construction checks the steps of its proofs with exceptions that
carry witnesses, never with `assert`, so the checks still run under
`python -O`."""

import ast
from pathlib import Path

import tangleforge


def test_no_assert_in_package():
    sources = sorted(Path(tangleforge.__file__).parent.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []

"""Checks on the package's own source code."""

import ast
from pathlib import Path

import coinfo


def test_no_assert_statements():
    # invariants are typed checks (InternalCheckError, the ValidationError
    # family) that python -O keeps; an assert statement would be stripped
    files = sorted(Path(coinfo.__file__).parent.rglob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert files and not found, f"assert statements in src/coinfo: {found}"
